"""Low-complexity beamforming baselines.

Each relay acts on local channel knowledge only: a fixed magnitude rule
(equal split of the budget, or run flat out at the cap) and a phase rule
(cancel the composite channel phase, or greedily pick which direction to
cancel when reciprocity does not make both coincide).
"""

from __future__ import annotations

import numpy as np

from .model import Beamformer, ChannelSet, IndividualPower, PowerBudget, SumPower, SystemParams
from .model import _relay_caps, noise_matrices
from .recip import matched_phases


def _budget_magnitudes(d: np.ndarray, budget: PowerBudget) -> np.ndarray:
    # Equal split of a sum budget, full caps for individual budgets.
    if isinstance(budget, SumPower):
        return np.sqrt(budget.p_r / (d.size * d))
    return np.sqrt(_relay_caps(budget.p, d.size) / d)


def equal_power_bf(ch: ChannelSet, sp: SystemParams, p_r: float) -> Beamformer:
    """Every relay spends P_R / K; phases matched to the reciprocal channel."""
    mags = _budget_magnitudes(noise_matrices(ch, sp).d, SumPower(p_r))
    return Beamformer(mags * np.exp(1j * matched_phases(ch)))


def max_power_bf(ch: ChannelSet, sp: SystemParams, p: np.ndarray) -> Beamformer:
    """Every relay spends its full cap; phases matched to the reciprocal channel."""
    mags = _budget_magnitudes(noise_matrices(ch, sp).d, IndividualPower(p))
    return Beamformer(mags * np.exp(1j * matched_phases(ch)))


def greedy_phase_bf(ch: ChannelSet, sp: SystemParams, budget: PowerBudget) -> Beamformer:
    """Per-relay greedy phase choice for channels that need not be reciprocal.

    Magnitudes follow the budget kind (equal split for a sum budget, full caps
    for individual ones). Each relay then aligns its phase with whichever
    composite channel direction its own amplify-and-forward SNR contribution
    favors, ties going to direction 1.
    """
    nm = noise_matrices(ch, sp)
    mags = _budget_magnitudes(nm.d, budget)
    x_sq = mags**2
    # Solo SNR contribution of relay i toward each receiver, with only its own
    # amplified noise in the denominator.
    q1 = x_sq * sp.p_s2 * np.abs(ch.f2) ** 2 / (sp.sigma_s1_sq + x_sq * nm.a1)
    q2 = x_sq * sp.p_s1 * np.abs(ch.f1) ** 2 / (sp.sigma_s2_sq + x_sq * nm.a2)
    toward_1 = -(np.angle(ch.h2) + np.angle(ch.h1r))
    toward_2 = -(np.angle(ch.h1) + np.angle(ch.h2r))
    phases = np.where(q1 >= q2, toward_1, toward_2)
    return Beamformer(mags * np.exp(1j * phases))
