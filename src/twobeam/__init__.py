"""Optimal collaborative beamforming and rate regions for two-way AF relay networks."""

from . import errors, heuristics, model, nonrecip, recip, region, sdp

__all__ = ["errors", "heuristics", "model", "nonrecip", "recip", "region", "sdp"]
__version__ = "0.1.0"
