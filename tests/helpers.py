"""Shared builders for test instances."""

from __future__ import annotations

import numpy as np

from twobeam.model import ChannelSet, SystemParams
from twobeam.region import draw_channels


def draw_reciprocal(rng: np.random.Generator, k: int, var: float = 1.0) -> ChannelSet:
    return draw_channels(rng, k, reciprocal=True, variance=var)


def draw_nonreciprocal(rng: np.random.Generator, k: int, var: float = 1.0) -> ChannelSet:
    return draw_channels(rng, k, reciprocal=False, variance=var)


def unit_params(k: int, sigma_relay: float | np.ndarray = 1.0) -> SystemParams:
    sig = np.full(k, float(sigma_relay)) if np.isscalar(sigma_relay) else np.asarray(sigma_relay)
    return SystemParams(p_s1=1.0, p_s2=1.0, sigma_relay=sig, sigma_s1_sq=1.0, sigma_s2_sq=1.0)


def pareto_chain_contains(chain: np.ndarray, x: float, y: float, tol: float) -> bool:
    """Whether (x, y) lies under the Pareto chain extended down to both axes.

    ``chain`` is sorted by ascending first coordinate with strictly
    descending second coordinate (the shape hull builders emit).
    """
    if x < -tol or y < -tol:
        return False
    if x <= chain[0, 0] + tol:
        return y <= chain[0, 1] + tol
    if x > chain[-1, 0] + tol:
        return y <= tol
    idx = int(np.searchsorted(chain[:, 0], x, side="right")) - 1
    idx = min(idx, chain.shape[0] - 2)
    x0, y0 = chain[idx]
    x1, y1 = chain[idx + 1]
    if x1 == x0:
        return y <= max(y0, y1) + tol
    frac = (x - x0) / (x1 - x0)
    return y <= y0 + frac * (y1 - y0) + tol
