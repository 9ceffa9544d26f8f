"""Rate-profile solvers for non-reciprocal channels.

The boundary of the rate region is traced one rate profile at a time: fix the
split ``(kappa, 1 - kappa)`` of the sum rate, then bisect on the sum rate. One
search per channel realization builds the channel-only parts once and serves
every kappa. Each bisection step asks one max-slack feasibility SDP whether
the implied SNR pair is supportable, with a sum budget as one more trace row
and per-relay caps as diagonal bounds; a step the solver leaves undecided
(``MAX_ITER``) raises ``SolverError`` instead of counting as infeasible. Sum-power
solutions admit an exact rank-one reduction; individual-power solutions use
randomized rank-one extraction.
``min_power_sdp`` keeps the minimum-power relaxation as a tested reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .model import Beamformer, ChannelSet, IndividualPower, NoiseMatrices, PowerBudget, RatePair
from .model import SumPower, SystemParams, _relay_caps, _require_count, _require_positive_scalar
from .model import _require_weight, _snr_for_rate, noise_matrices, rate_pair
from .sdp import (
    SdpProblem,
    SdpSolution,
    SdpStatus,
    solve_feasibility,
    solve_min_trace,
)

# Rate-to-SNR exponents beyond this are astronomically infeasible and only
# risk overflow, so the targets are reported as unreachable outright.
_MAX_RATE_EXPONENT = 50.0

# Safety cap on bisection steps: a tiny epsilon would otherwise loop forever
# once the bracket stops shrinking at float resolution.
_MAX_STEPS = 60


@dataclass(frozen=True)
class ExactReduction:
    """Provenance tag for the null-space rank-one reduction.

    ``fallback`` marks the rare dominant-eigenvector escape hatch; the exact
    path leaves it False.
    """

    fallback: bool = False


@dataclass(frozen=True)
class Randomization:
    """Provenance tag for randomized extraction: candidate count and the
    violation value of the selected candidate (nonpositive means both SNR
    targets are met)."""

    num_candidates: int
    best_violation: float


@dataclass(frozen=True)
class RankOneResult:
    """A beamformer recovered from a PSD solution, with its achieved rates."""

    w: Beamformer
    rates: RatePair
    source: ExactReduction | Randomization


def _split(kappa: float) -> tuple[float, float]:
    """The profile (kappa, 1 - kappa); kappa must lie in [0, 1]."""
    kappa = _require_weight(kappa, "kappa")
    return kappa, 1.0 - kappa


def _witness(x_opt: np.ndarray, k: int) -> np.ndarray:
    """``x_opt`` as a finite complex K-by-K matrix."""
    x = np.asarray(x_opt, dtype=np.complex128)
    if x.shape != (k, k):
        raise DomainError("x_opt must be K-by-K for the channel's K")
    if not np.isfinite(x).all():
        raise DomainError("x_opt must contain only finite entries")
    return x


def profile_rate(rates: RatePair, kappa: float) -> float:
    """Largest sum rate the pair supports at the given profile.

    Returns sup{R : r1 >= kappa R and r2 >= (1-kappa) R}; the value a
    beamformer contributes toward a rate-profile target, which never exceeds
    the relaxed optimum even when the raw sum r1 + r2 does.
    """
    kappa, kappa_bar = _split(kappa)
    supported = np.inf
    if kappa > 0.0:
        supported = min(supported, rates.r1 / kappa)
    if kappa_bar > 0.0:
        supported = min(supported, rates.r2 / kappa_bar)
    return supported


def snr_targets(kappa: float, r: float) -> tuple[float, float]:
    """SNR thresholds implied by splitting sum rate ``r`` as (kappa, 1-kappa).

    Returns ``(gamma1, gamma2)``; a target whose exponent exceeds the desk
    scale comes back as ``inf`` and should be treated as unreachable.
    """
    kappa, kappa_bar = _split(kappa)
    if not np.isfinite(r) or r < 0.0:
        raise DomainError("rate r must be finite and nonnegative")

    def gamma(split: float) -> float:
        if split * r > _MAX_RATE_EXPONENT:
            return np.inf
        return _snr_for_rate(split * r)

    return gamma(kappa), gamma(kappa_bar)


def _snr_rows(ch: ChannelSet, sp: SystemParams, nm: NoiseMatrices):
    """Both SNR rows, ``(s - gamma a, gamma sigma^2)``, as a function of the targets."""
    f1, f2 = ch.f1, ch.f2
    parts = (
        (sp.p_s2 * np.outer(f2.conj(), f2), np.diag(nm.a1).astype(np.complex128), sp.sigma_s1_sq),
        (sp.p_s1 * np.outer(f1.conj(), f1), np.diag(nm.a2).astype(np.complex128), sp.sigma_s2_sq),
    )
    return lambda gamma1, gamma2: tuple(
        (s - g * a, g * var) for (s, a, var), g in zip(parts, (gamma1, gamma2))
    )


def snr_constraint_rows(
    ch: ChannelSet, sp: SystemParams, gamma1: float, gamma2: float
) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
    """Linear-trace forms of the two SNR constraints on X = w w^H.

    Direction 1 reads tr[(P_S2 F2 - gamma1 A1) X] >= gamma1 sigma_S1^2 and
    direction 2 swaps the roles; both matrices are Hermitian by construction.
    """
    return _snr_rows(ch, sp, noise_matrices(ch, sp))(gamma1, gamma2)


def r_max_bound(ch: ChannelSet, sp: SystemParams, budget: PowerBudget) -> float:
    """Upper bound on the sum rate: twice the better one-way optimum.

    Each direction alone is a diagonal Rayleigh quotient whose maximum under
    the total-power budget has a closed form; individual budgets are relaxed
    to their sum, which can only enlarge the bound.
    """
    total = budget.p_r if isinstance(budget, SumPower) else float(np.sum(budget.p))
    nm = noise_matrices(ch, sp)
    snr1 = sp.p_s2 * float(
        np.sum(np.abs(ch.f2) ** 2 / (sp.sigma_s1_sq * nm.d / total + nm.a1))
    )
    snr2 = sp.p_s1 * float(
        np.sum(np.abs(ch.f1) ** 2 / (sp.sigma_s2_sq * nm.d / total + nm.a2))
    )
    r1 = 0.5 * np.log2(1.0 + snr1)
    r2 = 0.5 * np.log2(1.0 + snr2)
    return 2.0 * max(r1, r2)


def min_power_sdp(
    ch: ChannelSet, sp: SystemParams, kappa: float, r: float
) -> SdpSolution:
    """Minimum relay sum power supporting sum rate ``r`` at profile ``kappa``.

    The relaxation drops the rank-one constraint: minimize tr(D X) subject to
    the two SNR trace constraints and X PSD. The reported objective is the
    required power; unreachable targets come back Infeasible.
    """
    gamma1, gamma2 = snr_targets(kappa, r)
    k = ch.k
    if not np.isfinite(gamma1) or not np.isfinite(gamma2):
        return SdpSolution(
            x=np.zeros((k, k), dtype=np.complex128),
            status=SdpStatus.INFEASIBLE,
            objective=np.inf,
            max_violation=np.inf,
            duality_gap=np.inf,
        )
    if gamma1 == 0.0 and gamma2 == 0.0:
        # No rate requested: zero power is exactly optimal.
        return SdpSolution(
            x=np.zeros((k, k), dtype=np.complex128),
            status=SdpStatus.OPTIMAL,
            objective=0.0,
            max_violation=0.0,
            duality_gap=0.0,
        )
    nm = noise_matrices(ch, sp)
    problem = SdpProblem(
        dimension=k,
        objective=np.diag(nm.d).astype(np.complex128),
        constraints=snr_constraint_rows(ch, sp, gamma1, gamma2),
    )
    return solve_min_trace(problem)


def _profile_search(ch: ChannelSet, sp: SystemParams, budget: PowerBudget):
    """Rate-profile search over one channel realization, for every kappa.

    D, the budget (pooled as the trace row tr(D X) <= p_r, per-relay caps as
    diagonal bounds X_ii <= p_i/D_ii), the bracket top and the channel-only
    parts of the SNR rows are built once. ``search(kappa, epsilon)`` bisects
    the sum rate on max-slack feasibility and returns the located rate and a
    PSD witness of the last feasible step (zero when no positive rate fits),
    scaled by the largest factor <= 1 that meets the budget. A step that ends
    ``MAX_ITER`` certifies neither side of the bracket and raises SolverError.
    """
    nm = noise_matrices(ch, sp)
    d, snr_rows = nm.d, _snr_rows(ch, sp, nm)
    if isinstance(budget, SumPower):
        rows, caps = ((-np.diag(d).astype(np.complex128), -budget.p_r),), None
    else:
        rows, caps = (), _relay_caps(budget.p, ch.k) / d
    r_top = r_max_bound(ch, sp, budget)

    def search(kappa: float, epsilon: float) -> tuple[float, np.ndarray]:
        epsilon = _require_positive_scalar(epsilon, "epsilon")
        r_low, r_up = 0.0, r_top
        x_best = np.zeros((ch.k, ch.k), dtype=np.complex128)
        for _ in range(_MAX_STEPS):
            if r_up - r_low < epsilon:
                break
            r = 0.5 * (r_low + r_up)
            gamma1, gamma2 = snr_targets(kappa, r)
            if not np.isfinite(gamma1) or not np.isfinite(gamma2):
                r_up = r
                continue
            problem = SdpProblem(
                dimension=ch.k,
                objective=None,
                constraints=snr_rows(gamma1, gamma2) + rows,
                caps=caps,
            )
            sol = solve_feasibility(problem)
            if sol.status is SdpStatus.MAX_ITER:
                raise SolverError(f"feasibility at sum rate {r!r} ended without a verdict")
            if sol.status is SdpStatus.OPTIMAL:
                r_low = r
                x_best = sol.x
            else:
                r_up = r
        else:
            raise SolverError(f"bisection did not reach epsilon={epsilon} in {_MAX_STEPS} steps")
        # The feasibility tolerance lets the witness overshoot the budget by
        # float dust; scale it back so extracted beamformers meet it exactly.
        diag = np.real(np.diag(x_best))
        spend, limit = (d @ diag, budget.p_r) if caps is None else (d * diag, budget.p)
        return r_low, x_best * np.min(limit / np.maximum(spend, limit))

    return search


def algorithm1_sum_power(
    ch: ChannelSet,
    sp: SystemParams,
    p_r: float,
    kappa: float,
    epsilon: float = 1e-4,
) -> tuple[float, np.ndarray]:
    """Largest relaxed sum rate supportable with total relay power ``p_r``.

    Bisects the sum rate with one feasibility SDP per step: the two SNR rows
    plus the budget row tr(D X) <= p_r. With two SNR rows and one power row
    the returned witness reduces exactly to rank one, so no minimum-power
    solve is needed.
    """
    return _profile_search(ch, sp, SumPower(p_r))(kappa, epsilon)


def algorithm2_individual(
    ch: ChannelSet,
    sp: SystemParams,
    p: np.ndarray,
    kappa: float,
    epsilon: float = 1e-4,
) -> tuple[float, np.ndarray]:
    """Largest relaxed sum rate supportable under per-relay power caps ``p``.

    Same bisection as the sum-power driver, with the caps folded into each
    feasibility SDP as diagonal bounds X_ii <= p_i/D_ii.
    """
    return _profile_search(ch, sp, IndividualPower(p))(kappa, epsilon)


def _trace_preserving_direction(mats: np.ndarray) -> np.ndarray:
    """Nonzero Hermitian direction with tr(M Delta) = 0 for each stacked
    Hermitian M of ``mats`` (three r-by-r matrices, r >= 2).

    Delta is parameterized by its real diagonal and the real and imaginary
    parts of its strict upper triangle, in which tr(M Delta) = diag(M) .
    Delta_ii + 2 Re M_ij Re Delta_ij + 2 Im M_ij Im Delta_ij. Three rows
    against r^2 >= 4 unknowns leave the last right singular vector in the
    null space.
    """
    r = mats.shape[-1]
    iu, ju = np.triu_indices(r, 1)
    upper = mats[:, iu, ju]
    diag = np.diagonal(mats, axis1=1, axis2=2).real
    rows = np.hstack([diag, 2.0 * upper.real, 2.0 * upper.imag])
    coeffs = np.linalg.svd(rows)[2][-1]
    delta = np.diag(coeffs[:r]).astype(np.complex128)
    delta[iu, ju] = coeffs[r : r + iu.size] + 1j * coeffs[r + iu.size :]
    delta[ju, iu] = delta[iu, ju].conj()
    return delta


def rank_one_reduce(
    x_opt: np.ndarray,
    ch: ChannelSet,
    sp: SystemParams,
    gamma1: float,
    gamma2: float,
) -> RankOneResult:
    """Exact rank-one beamformer from a sum-power SDR optimum.

    With only two SNR constraints plus the power objective, any feasible X can
    be driven to rank one without changing its three trace values: factor
    X = V V^H, pick a Hermitian null direction Delta of the three compressed
    matrices V^H B V, and step to the PSD boundary with X <- V (I - Delta /
    lambda_max(Delta)) V^H, which removes at least one rank each pass. Should
    the null-space step ever degenerate numerically, the dominant eigenvector
    of X is returned instead, flagged and scaled to spend exactly tr(D X):
    along one direction both SNRs rise with the scale, so that is the best
    beamformer on it within X's power, and it never spends more.
    """
    k = ch.k
    x = _witness(x_opt, k)
    (b1, _), (b2, _) = snr_constraint_rows(ch, sp, gamma1, gamma2)
    d = noise_matrices(ch, sp).d
    mats = np.array([b1, b2, np.diag(d)])

    vals, vecs = np.linalg.eigh(0.5 * (x + x.conj().T))
    floor = 1e-9 * max(float(vals.max(initial=0.0)), 0.0)
    keep = vals > max(floor, 0.0)
    if not keep.any():
        # Zero matrix: the zero beamformer is the faithful reduction.
        w = Beamformer(np.zeros(k, dtype=np.complex128))
        return RankOneResult(w=w, rates=rate_pair(ch, sp, w), source=ExactReduction())
    v = vecs[:, keep] * np.sqrt(vals[keep])

    fallback = False
    while v.shape[1] > 1:
        delta = _trace_preserving_direction(v.conj().T @ mats @ v)
        dvals, dvecs = np.linalg.eigh(delta)
        if abs(dvals[0]) > dvals[-1]:
            # Either sign of the null direction works; take the one whose top
            # eigenvalue is the dominant magnitude for a well-scaled step.
            dvals, dvecs = np.linalg.eigh(-delta)
        lam_max = dvals[-1]
        if lam_max <= 0.0:
            # tr(V^H D V * Delta) = 0 against a positive definite matrix forces
            # indefiniteness, so a nonpositive spectrum signals degeneracy.
            fallback = True
            break
        shrink = np.maximum(1.0 - dvals / lam_max, 0.0)
        v = (v @ dvecs) * np.sqrt(shrink)
        v = v[:, shrink > 1e-14]
        if v.shape[1] == 0:
            fallback = True
            break

    if fallback:
        top = vecs[:, int(np.argmax(vals))]
        v = top[:, None] * np.sqrt((d @ np.real(np.diag(x))) / (d @ np.abs(top) ** 2))
    w = Beamformer(v[:, 0])
    return RankOneResult(w=w, rates=rate_pair(ch, sp, w), source=ExactReduction(fallback))


def randomize_rank_one(
    x_opt: np.ndarray,
    ch: ChannelSet,
    sp: SystemParams,
    gamma1: float,
    gamma2: float,
    *,
    num_candidates: int = 1000,
    seed: int,
) -> RankOneResult:
    """Randomized rank-one extraction respecting per-relay powers exactly.

    Candidates copy the solution's diagonal magnitudes and draw uniform phases,
    so every candidate spends exactly the per-relay power of ``x_opt``. The
    winner minimizes the worst relative SNR-constraint shortfall; nonpositive
    best violation means both targets are met.
    """
    num_candidates = _require_count(num_candidates, "num_candidates", 1)
    k = ch.k
    x = _witness(x_opt, k)
    nm = noise_matrices(ch, sp)
    mags = np.sqrt(np.maximum(np.real(np.diag(x)), 0.0))

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_candidates, k))
    candidates = mags * np.exp(1j * phases)

    # Per-relay powers are phase-invariant, so the noise quadratic forms are
    # constant across candidates; only the signal terms vary.
    noise1 = float(mags**2 @ nm.a1)
    noise2 = float(mags**2 @ nm.a2)
    violations = np.full(num_candidates, -np.inf)
    if gamma1 > 0.0:
        signal1 = np.abs(candidates @ ch.f2) ** 2
        v1 = 1.0 - (sp.p_s2 * signal1 - gamma1 * noise1) / (gamma1 * sp.sigma_s1_sq)
        violations = np.maximum(violations, v1)
    if gamma2 > 0.0:
        signal2 = np.abs(candidates @ ch.f1) ** 2
        v2 = 1.0 - (sp.p_s1 * signal2 - gamma2 * noise2) / (gamma2 * sp.sigma_s2_sq)
        violations = np.maximum(violations, v2)

    best = int(np.argmin(violations))
    w = Beamformer(candidates[best])
    return RankOneResult(
        w=w,
        rates=rate_pair(ch, sp, w),
        source=Randomization(
            num_candidates=num_candidates, best_violation=float(violations[best])
        ),
    )
