"""Closed-form weighted inverse-SNR minimizers for reciprocal channels.

With reciprocal channels the optimal beamformer phase cancels the composite
channel phase relay by relay, leaving a magnitude problem with a closed-form
solution under a sum power budget and a sorting-based waterfilling solution
under per-relay budgets. Both admit a partially distributed form: a control
center broadcasts one scalar and each relay finishes its own weight from
local channel knowledge.

The local rules here intentionally mirror the centralized arithmetic
operation for operation so that reassembling per-relay weights reproduces the
centralized beamformer bit for bit, not merely to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ReciprocityError
from .model import Beamformer, ChannelSet, SystemParams, _power_diag, _relay_caps
from .model import _require_positive_scalar, _require_weight

__all__ = [
    "SumPowerSolution",
    "IndividualPowerSolution",
    "matched_phases",
    "wsismin_sum_power",
    "broadcast_params_sum",
    "local_weight_sum",
    "wsismin_individual",
    "broadcast_params_indiv",
    "local_weight_indiv",
    "sum_power_beamformer",
    "individual_power_beamformer",
]


def _require_reciprocal(ch: ChannelSet) -> None:
    if not ch.reciprocal():
        raise ReciprocityError("closed-form solvers require reciprocal channels")


def _resolve_sigma(sp: SystemParams, sigma_i_sq: float | None) -> float:
    if sigma_i_sq is not None:
        return _require_positive_scalar(sigma_i_sq, "sigma_i_sq")
    first = float(sp.sigma_relay[0])
    if not np.all(sp.sigma_relay == first):
        raise DomainError(
            "relay noise powers differ; pass this relay's sigma_i_sq explicitly"
        )
    return first


def _wrap_phase(theta: np.ndarray | float):
    # Wrap to [-pi, pi); keeps -pi fixed so opposite-phase channels stay at -pi.
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


def matched_phases(ch: ChannelSet) -> np.ndarray:
    """Per-relay phases cancelling the composite channel phase.

    Both end-to-end SNRs are maximized at fixed magnitudes when every relay
    rotates by the negative of its two hop phases.
    """
    _require_reciprocal(ch)
    return _wrap_phase(-(np.angle(ch.h1) + np.angle(ch.h2)))


@dataclass(frozen=True)
class SumPowerSolution:
    """Optimal matched-phase magnitudes under a sum power budget."""

    x: np.ndarray
    xi_over_norm: float
    mu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        if np.any(self.x < 0.0):
            raise DomainError("magnitudes must be non-negative")
        self.x.setflags(write=False)


@dataclass(frozen=True)
class IndividualPowerSolution:
    """Optimal power fractions under per-relay budgets.

    ``alpha[i]`` is relay i's amplitude as a fraction of its cap; the first
    ``k_star`` relays in the ordering ``tau`` transmit at full power and the
    rest back off proportionally to their signal-to-leakage figure.
    """

    alpha: np.ndarray
    k_star: int
    lambda_kstar: float
    tau: np.ndarray = field(repr=False)
    mu: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=np.float64))
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=np.intp))
        if np.any(self.alpha < 0.0) or np.any(self.alpha > 1.0):
            raise DomainError("alpha must lie in [0, 1]")
        if not 1 <= self.k_star <= self.alpha.size:
            raise DomainError("k_star out of range")
        self.alpha.setflags(write=False)
        self.tau.setflags(write=False)


def _nu(sp: SystemParams, mu: float) -> float:
    return mu * sp.sigma_s1_sq / sp.p_s2 + (1.0 - mu) * sp.sigma_s2_sq / sp.p_s1


def wsismin_sum_power(
    ch: ChannelSet, sp: SystemParams, p_r: float, mu: float
) -> SumPowerSolution:
    """Minimize mu/SNR1 + (1-mu)/SNR2 subject to total relay power ``p_r``.

    The optimum is a scaled, diagonally reweighted copy of the composite
    channel magnitudes. At mu = 0 or 1 the same formula yields the one-way
    optimal beamformer for the remaining direction.
    """
    _require_reciprocal(ch)
    mu = _require_weight(mu, "mu")
    p_r = _require_positive_scalar(p_r, "p_r")
    mu_bar = 1.0 - mu
    abs1_sq = np.abs(ch.h1) ** 2
    abs2_sq = np.abs(ch.h2) ** 2
    nu = _nu(sp, mu)
    beta = _power_diag(ch, sp)
    eta = sp.sigma_relay * (mu * abs1_sq / sp.p_s2 + mu_bar * abs2_sq / sp.p_s1)
    gamma = nu * beta / p_r + eta
    fhat = ch.fhat
    if not np.any(fhat > 0.0):
        raise DomainError("every composite channel gain is zero")
    weighted = fhat / gamma
    norm = float(np.linalg.norm(weighted))
    u = weighted / norm
    xi = float(np.sqrt(p_r / (u**2 @ beta)))
    scalar = xi / norm
    # Same expression the local rule evaluates, element by element.
    x = scalar * (fhat / gamma)
    return SumPowerSolution(x=x, xi_over_norm=scalar, mu=mu)


def broadcast_params_sum(sol: SumPowerSolution) -> tuple[float, float]:
    """The pair the control center broadcasts: (mu, scaling scalar)."""
    return sol.mu, sol.xi_over_norm


def local_weight_sum(
    h1_i: complex,
    h2_i: complex,
    sp: SystemParams,
    p_r: float,
    mu: float,
    scalar: float,
    sigma_i_sq: float | None = None,
) -> complex:
    """One relay's weight from its own channels plus the broadcast scalar.

    ``sigma_i_sq`` may be omitted when all relays share the same noise power.
    ``p_r``, ``mu`` and ``sigma_i_sq`` are checked as the centralized solver
    checks them.
    """
    sig = _resolve_sigma(sp, sigma_i_sq)
    mu = _require_weight(mu, "mu")
    p_r = _require_positive_scalar(p_r, "p_r")
    mu_bar = 1.0 - mu
    abs1_sq = np.abs(h1_i) ** 2
    abs2_sq = np.abs(h2_i) ** 2
    nu = _nu(sp, mu)
    beta_i = abs1_sq * sp.p_s1 + abs2_sq * sp.p_s2 + sig
    eta_i = sig * (mu * abs1_sq / sp.p_s2 + mu_bar * abs2_sq / sp.p_s1)
    gamma_i = nu * beta_i / p_r + eta_i
    fhat_i = np.abs(h1_i) * np.abs(h2_i)
    theta_i = _wrap_phase(-(np.angle(h1_i) + np.angle(h2_i)))
    return scalar * (fhat_i / gamma_i) * np.exp(1j * theta_i)


def _individual_figures(
    ch: ChannelSet, sp: SystemParams, p: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-relay (g_tilde, psi_sq, phi) for the per-relay-budget problem."""
    mu_bar = 1.0 - mu
    abs1_sq = np.abs(ch.h1) ** 2
    abs2_sq = np.abs(ch.h2) ** 2
    nu = _nu(sp, mu)
    d = _power_diag(ch, sp)
    g = np.sqrt(p) * ch.fhat / np.sqrt(d)
    psi_sq = sp.sigma_relay * p * (mu * abs1_sq / sp.p_s2 + mu_bar * abs2_sq / sp.p_s1) / (d * nu)
    g_tilde = g / np.sqrt(nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = g_tilde / psi_sq
    # Noiseless-amplification relays cost nothing: rank them first, full power.
    phi[psi_sq == 0.0] = np.inf
    return g_tilde, psi_sq, phi


def wsismin_individual(
    ch: ChannelSet, sp: SystemParams, p: np.ndarray, mu: float
) -> IndividualPowerSolution:
    """Minimize mu/SNR1 + (1-mu)/SNR2 under per-relay power caps ``p``.

    Relays are ranked by signal-per-unit-noise-leakage; a prefix transmits at
    full power and the rest scale down by a common waterlevel found in one
    sorted pass.
    """
    _require_reciprocal(ch)
    mu = _require_weight(mu, "mu")
    p = _relay_caps(p, ch.k)

    g_tilde, psi_sq, phi = _individual_figures(ch, sp, p, mu)
    k = ch.k
    tau = np.argsort(-phi, kind="stable")
    sums_psi = np.cumsum(psi_sq[tau])
    sums_g = np.cumsum(g_tilde[tau])
    with np.errstate(divide="ignore"):
        lam = (1.0 + sums_psi) / sums_g
    inv_phi_next = np.empty(k)
    with np.errstate(divide="ignore"):
        inv_phi_next[: k - 1] = 1.0 / phi[tau[1:]]
    inv_phi_next[k - 1] = np.inf

    eligible = np.flatnonzero(lam < inv_phi_next)
    if eligible.size == 0:
        warnings.warn(
            "no prefix satisfied the waterlevel test; defaulting to full power everywhere",
            RuntimeWarning,
            stacklevel=2,
        )
        return IndividualPowerSolution(
            alpha=np.ones(k), k_star=k, lambda_kstar=np.inf, tau=tau, mu=mu
        )
    k_star = int(eligible[0]) + 1
    lambda_kstar = float(lam[k_star - 1])
    alpha = lambda_kstar * phi
    alpha[tau[:k_star]] = 1.0
    np.minimum(alpha, 1.0, out=alpha)
    return IndividualPowerSolution(
        alpha=alpha, k_star=k_star, lambda_kstar=lambda_kstar, tau=tau, mu=mu
    )


def broadcast_params_indiv(sol: IndividualPowerSolution) -> tuple[float, float]:
    """The pair the control center broadcasts: (mu, waterlevel)."""
    return sol.mu, sol.lambda_kstar


def local_weight_indiv(
    h1_i: complex,
    h2_i: complex,
    sp: SystemParams,
    p_i: float,
    mu: float,
    lambda_kstar: float,
    sigma_i_sq: float | None = None,
) -> complex:
    """One relay's weight from its own channels plus the broadcast waterlevel.

    A relay whose inverse figure of merit does not exceed the waterlevel
    transmits at its full budget; otherwise it backs off proportionally.
    ``p_i``, ``mu`` and ``sigma_i_sq`` are checked as the centralized solver
    checks them.
    """
    sig = _resolve_sigma(sp, sigma_i_sq)
    mu = _require_weight(mu, "mu")
    p_i = _require_positive_scalar(p_i, "p_i")
    mu_bar = 1.0 - mu
    abs1_sq = np.abs(h1_i) ** 2
    abs2_sq = np.abs(h2_i) ** 2
    nu = _nu(sp, mu)
    d_i = abs1_sq * sp.p_s1 + abs2_sq * sp.p_s2 + sig
    g_i = np.sqrt(p_i) * (np.abs(h1_i) * np.abs(h2_i)) / np.sqrt(d_i)
    psi_sq_i = sig * p_i * (mu * abs1_sq / sp.p_s2 + mu_bar * abs2_sq / sp.p_s1) / (d_i * nu)
    g_tilde_i = g_i / np.sqrt(nu)
    if psi_sq_i == 0.0:
        phi_i = np.inf
    else:
        phi_i = g_tilde_i / psi_sq_i
    if np.isinf(phi_i):
        inv_phi_i = 0.0
    elif phi_i == 0.0:
        inv_phi_i = np.inf
    else:
        inv_phi_i = 1.0 / phi_i
    if inv_phi_i <= lambda_kstar:
        alpha_i = 1.0
    else:
        alpha_i = min(lambda_kstar * phi_i, 1.0)
    theta_i = _wrap_phase(-(np.angle(h1_i) + np.angle(h2_i)))
    return alpha_i * np.sqrt(p_i / d_i) * np.exp(1j * theta_i)


def sum_power_beamformer(ch: ChannelSet, sol: SumPowerSolution) -> Beamformer:
    """Materialize the complex beamformer from a sum-power solution."""
    return Beamformer(sol.x * np.exp(1j * matched_phases(ch)))


def individual_power_beamformer(
    ch: ChannelSet, sp: SystemParams, p: np.ndarray, sol: IndividualPowerSolution
) -> Beamformer:
    """Materialize the complex beamformer from a per-relay-budget solution."""
    p = _relay_caps(p, ch.k)
    d = _power_diag(ch, sp)
    return Beamformer(sol.alpha * np.sqrt(p / d) * np.exp(1j * matched_phases(ch)))
