"""Independent brute-force checkers used only by tests and `twobeam validate`.

Everything here re-derives its arithmetic from the channel vectors directly
(grid search, random sampling, penalty descent, quadratic-time hulls) and
deliberately shares no code path with the production solvers it is used to
check. Only the plain domain types from :mod:`twobeam.model` are reused.

These engines run at desk scale; they are written for independence, not
performance.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from .errors import DomainError, ReciprocityError
from .model import (
    Beamformer,
    ChannelSet,
    IndividualPower,
    PowerBudget,
    RatePair,
    SumPower,
    SystemParams,
)

__all__ = [
    "wsis_objective",
    "best_wsis_grid",
    "random_beamformer_cloud",
    "weighted_sum_rate_search",
    "hull_bruteforce",
    "min_trace_descent",
    "feasibility_descent",
]


def _d_vector(ch: ChannelSet, sp: SystemParams) -> np.ndarray:
    # Per-relay transmit power per unit |w_i|^2, re-derived locally.
    return np.abs(ch.h1) ** 2 * sp.p_s1 + np.abs(ch.h2) ** 2 * sp.p_s2 + sp.sigma_relay


def _snr_arrays(ch: ChannelSet, sp: SystemParams, w_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both end-to-end SNRs for each row of ``w_rows``, from first principles."""
    g1 = ch.h1 * ch.h2r
    g2 = ch.h2 * ch.h1r
    abs_sq = np.abs(w_rows) ** 2
    num1 = sp.p_s2 * np.abs(w_rows @ g2) ** 2
    num2 = sp.p_s1 * np.abs(w_rows @ g1) ** 2
    den1 = sp.sigma_s1_sq + abs_sq @ (np.abs(ch.h1r) ** 2 * sp.sigma_relay)
    den2 = sp.sigma_s2_sq + abs_sq @ (np.abs(ch.h2r) ** 2 * sp.sigma_relay)
    return num1 / den1, num2 / den2


def _rate_arrays(ch: ChannelSet, sp: SystemParams, w_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s1, s2 = _snr_arrays(ch, sp, w_rows)
    return 0.5 * np.log2(1.0 + s1), 0.5 * np.log2(1.0 + s2)


def _inverse_snr_sum(ch: ChannelSet, sp: SystemParams, mu: float, mags):
    """Weighted inverse-SNR sum for one magnitude array per relay.

    The arrays broadcast against each other, so a grid search lays each
    relay's magnitudes along the grid axes they depend on and gets the
    objective on the whole grid at once. Zero-signal entries give ``inf``.
    """
    terms = zip(np.abs(ch.h1), np.abs(ch.h2), sp.sigma_relay, mags, strict=True)
    amp, n1, n2 = 0.0, sp.sigma_s1_sq, sp.sigma_s2_sq
    for a1, a2, s, x in terms:
        amp = amp + a1 * a2 * x
        n1 = n1 + a1**2 * s * x**2
        n2 = n2 + a2**2 * s * x**2
    sig, obj = amp**2, 0.0
    with np.errstate(divide="ignore"):
        if mu > 0.0:
            obj = obj + mu * n1 / (sp.p_s2 * sig)
        if mu < 1.0:
            obj = obj + (1.0 - mu) * n2 / (sp.p_s1 * sig)
    return obj


def wsis_objective(ch: ChannelSet, sp: SystemParams, mu: float, x: np.ndarray) -> float:
    """Weighted sum of inverse SNRs for matched-phase magnitudes ``x``.

    Reciprocal channels assumed; with the composite phase cancelled the SNRs
    depend only on the magnitudes, which is what the grid searches sweep.
    Returns ``inf`` when a weighted direction has zero SNR.
    """
    return float(_inverse_snr_sum(ch, sp, mu, np.asarray(x, dtype=np.float64)))


def best_wsis_grid(
    ch: ChannelSet,
    sp: SystemParams,
    budget: PowerBudget,
    mu: float,
    resolution: int,
    return_gap: bool = False,
):
    """Exhaustive search for the best weighted inverse-SNR over magnitudes.

    Sum budgets sweep the full-power surface {x >= 0 : x^T D x = P_R} via a
    spherical-angle grid with ``resolution`` points per angle; individual
    budgets sweep the box alpha in [0,1]^K with ``resolution + 1`` points per
    axis. Each relay's magnitudes lie along the grid axes they depend on and
    the objective is summed along those axes by broadcasting, without a list
    of nodes. Returns ``(objective, x)``; with ``return_gap`` also returns
    the largest objective change between adjacent grid nodes, an empirical
    Lipschitz-step estimate of how far below the grid optimum the continuum
    optimum can lie.
    """
    if not ch.reciprocal():
        raise ReciprocityError("grid oracle sweeps matched-phase magnitudes only")
    k = ch.k
    if k > 4:
        raise DomainError("grid oracle supports K <= 4; use random_beamformer_cloud instead")
    d = _d_vector(ch, sp)
    if isinstance(budget, SumPower):
        # Angle j lies on axis j; relay j takes the sines of the angles
        # before it and the cosine of its own, the last relay only sines.
        theta = np.linspace(0.0, np.pi / 2.0, resolution)
        unit, running = [], np.ones(())
        for j in range(k - 1):
            axis = theta.reshape((-1,) + (1,) * (k - 2 - j))
            unit.append(running * np.cos(axis))
            running = running * np.sin(axis)
        mags = [np.sqrt(budget.p_r) * u / np.sqrt(dj) for u, dj in zip(unit + [running], d)]
    else:
        alpha = np.linspace(0.0, 1.0, resolution + 1)
        caps = np.sqrt(budget.p / d)
        mags = [alpha.reshape((-1,) + (1,) * (k - 1 - j)) * c for j, c in enumerate(caps)]
    obj = np.asarray(_inverse_snr_sum(ch, sp, mu, mags))
    best = np.unravel_index(int(np.argmin(obj)), obj.shape)
    x = np.array([np.broadcast_to(m, obj.shape)[best] for m in mags])
    if not return_gap:
        return float(obj[best]), x
    gap = 0.0
    for axis in range(obj.ndim):
        diffs = np.abs(np.diff(obj, axis=axis))
        gap = max(gap, float(diffs[np.isfinite(diffs)].max(initial=0.0)))
    return float(obj[best]), x, gap


def random_beamformer_cloud(
    ch: ChannelSet,
    sp: SystemParams,
    budget: PowerBudget,
    n: int,
    seed: int,
    matched_phases: bool = False,
) -> list[tuple[Beamformer, RatePair]]:
    """Draw ``n`` budget-feasible beamformers with their achieved rates.

    Magnitudes point in a random non-negative direction scaled to a uniform
    random fraction of the budget. Phases are uniform on the circle unless
    ``matched_phases`` is set, in which case the composite channel phase is
    cancelled (the natural choice for reciprocal sweeps).
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = np.random.default_rng(seed)
    k = ch.k
    d = _d_vector(ch, sp)
    if isinstance(budget, SumPower):
        direction = np.abs(rng.standard_normal((n, k))) + 1e-300
        full = np.sqrt(budget.p_r / (direction**2 @ d))
        mags = direction * (full * np.sqrt(rng.uniform(0.0, 1.0, n)))[:, None]
    else:
        alphas = rng.uniform(0.0, 1.0, (n, k))
        mags = alphas * np.sqrt(budget.p / d)
    if matched_phases:
        theta = -(np.angle(ch.h1) + np.angle(ch.h2))
        w_rows = mags * np.exp(1j * theta)
    else:
        w_rows = mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, k)))
    r1, r2 = _rate_arrays(ch, sp, w_rows)
    return [
        (Beamformer(w_rows[i]), RatePair(r1=float(r1[i]), r2=float(r2[i])))
        for i in range(n)
    ]


def weighted_sum_rate_search(
    ch: ChannelSet,
    sp: SystemParams,
    budget: PowerBudget,
    lam: float,
    n_restarts: int = 8,
    seed: int = 0,
) -> tuple[float, Beamformer]:
    """Multi-start local ascent of ``lam*r1 + (1-lam)*r2`` over feasible w.

    Parameterizes per-relay amplitude fractions and phases; sum budgets are
    rescaled to full power (both SNRs increase with a common scale factor, so
    the optimum uses the whole budget). Deterministic for fixed seed.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lam must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    k = ch.k
    d = _d_vector(ch, sp)
    caps = np.sqrt(budget.p / d) if isinstance(budget, IndividualPower) else None

    def assemble(params: np.ndarray) -> np.ndarray:
        alpha, phi = params[:k], params[k:]
        if caps is None:
            scale_sq = float(alpha**2 @ d)
            mags = alpha * np.sqrt(budget.p_r / scale_sq)
        else:
            mags = alpha * caps
        return mags * np.exp(1j * phi)

    def neg_wsr(params: np.ndarray) -> float:
        w = assemble(params)[None, :]
        r1, r2 = _rate_arrays(ch, sp, w)
        return -(lam * float(r1[0]) + (1.0 - lam) * float(r2[0]))

    bounds = [(1e-6, 1.0)] * k + [(-2.0 * np.pi, 2.0 * np.pi)] * k
    starts = [
        np.concatenate([np.ones(k), -np.angle(ch.h2 * ch.h1r)]),
        np.concatenate([np.ones(k), -np.angle(ch.h1 * ch.h2r)]),
    ]
    while len(starts) < n_restarts:
        starts.append(
            np.concatenate([rng.uniform(0.05, 1.0, k), rng.uniform(-np.pi, np.pi, k)])
        )
    best_val, best_w = -np.inf, None
    for start in starts[:max(n_restarts, 2)]:
        res = optimize.minimize(neg_wsr, start, method="L-BFGS-B", bounds=bounds)
        if -res.fun > best_val:
            best_val, best_w = -float(res.fun), assemble(res.x)
    return best_val, Beamformer(best_w)


def hull_bruteforce(points: np.ndarray) -> np.ndarray:
    """Upper-right Pareto hull by definition-chasing elimination, O(n^2).

    A point survives iff no other point weakly dominates it and it does not
    lie on or below a chord between two surviving points. Used as the oracle
    for the production monotone-chain hull.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] == 1:
        return pts
    keep = []
    for i in range(pts.shape[0]):
        others = np.delete(pts, i, axis=0)
        dominated = np.any(
            (others[:, 0] >= pts[i, 0]) & (others[:, 1] >= pts[i, 1])
        )
        if not dominated:
            keep.append(pts[i])
    maximal = np.array(sorted(keep, key=lambda p: p[0]))
    m = maximal.shape[0]
    vertex = np.ones(m, dtype=bool)
    for i in range(m):
        for a in range(m):
            if not vertex[i]:
                break
            for b in range(a + 1, m):
                if a == i or b == i:
                    continue
                xa, ya = maximal[a]
                xb, yb = maximal[b]
                xi, yi = maximal[i]
                if xa < xi < xb:
                    chord = ya + (yb - ya) * (xi - xa) / (xb - xa)
                    if chord >= yi - 1e-15 * max(1.0, abs(yi)):
                        vertex[i] = False
                        break
    return maximal[vertex]


def _herm_inner(a: np.ndarray, x: np.ndarray) -> float:
    # Real-valued trace inner product for Hermitian a, x.
    return float(np.real(np.sum(a.conj() * x)))


def _penalty_descent(
    c: np.ndarray | None,
    constraints: list[tuple[np.ndarray, float]],
    caps: np.ndarray | None,
    restarts: int,
    seed: int,
) -> tuple[float, np.ndarray | None, float]:
    """Shared factored-descent engine; returns (objective, X, residual).

    Minimizes an augmented Lagrangian over the factor V of X = V V^H: the
    multiplier updates remove the feasibility bias a pure quadratic penalty
    would leave, so converged starts land on the constrained optimum rather
    than just near it.
    """
    k = constraints[0][0].shape[0] if constraints else (c.shape[0] if c is not None else caps.size)
    rng = np.random.default_rng(seed)
    scales = np.array([max(1.0, np.linalg.norm(a), abs(b)) for a, b in constraints])
    cap_scales = np.maximum(1.0, caps) if caps is not None else None
    n_cons = len(constraints)
    n_caps = k if caps is not None else 0

    def unpack(v: np.ndarray) -> np.ndarray:
        return (v[: k * k] + 1j * v[k * k :]).reshape(k, k)

    def slacks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Normalized constraint functions with feasible region g <= 0.
        gs = np.array([(b - _herm_inner(a, x)) / s for (a, b), s in zip(constraints, scales)])
        if caps is None:
            return gs, np.zeros(0)
        gc = (np.real(np.diag(x)) - caps) / cap_scales
        return gs, gc

    def make_objective(rho: float, lam: np.ndarray, lam_cap: np.ndarray):
        def fun(v: np.ndarray) -> tuple[float, np.ndarray]:
            vm = unpack(v)
            x = vm @ vm.conj().T
            gs, gc = slacks(x)
            ts = np.maximum(0.0, lam + rho * gs)
            tc = np.maximum(0.0, lam_cap + rho * gc)
            val = (float(ts @ ts) - float(lam @ lam)) / (2.0 * rho)
            if n_caps:
                val += (float(tc @ tc) - float(lam_cap @ lam_cap)) / (2.0 * rho)
            grad_mat = np.zeros((k, k), dtype=np.complex128)
            if c is not None:
                val += _herm_inner(c, x)
                grad_mat += c
            for (a, _), s, t in zip(constraints, scales, ts):
                if t > 0.0:
                    grad_mat -= (t / s) * a
            if n_caps:
                for j in range(k):
                    if tc[j] > 0.0:
                        grad_mat[j, j] += tc[j] / cap_scales[j]
            g = 2.0 * grad_mat @ vm
            return val, np.concatenate([np.real(g).ravel(), np.imag(g).ravel()])

        return fun

    best_obj, best_x, best_resid = np.inf, None, np.inf
    for _ in range(restarts):
        v = rng.standard_normal(2 * k * k) * 0.5
        lam = np.zeros(n_cons)
        lam_cap = np.zeros(n_caps)
        for rho in (1e2, 1e3, 1e4, 1e4, 1e4, 1e4):
            res = optimize.minimize(
                make_objective(rho, lam, lam_cap), v, jac=True, method="L-BFGS-B",
                options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
            )
            v = res.x
            xm = unpack(v) @ unpack(v).conj().T
            gs, gc = slacks(xm)
            lam = np.maximum(0.0, lam + rho * gs)
            lam_cap = np.maximum(0.0, lam_cap + rho * gc)
        xm = unpack(v) @ unpack(v).conj().T
        gs, gc = slacks(xm)
        resid = float(
            max(
                np.maximum(0.0, gs).max(initial=0.0),
                np.maximum(0.0, gc).max(initial=0.0),
            )
        )
        obj = _herm_inner(c, xm) if c is not None else 0.0
        best_resid = min(best_resid, resid)
        if resid <= 1e-6 and obj < best_obj:
            best_obj, best_x = obj, xm
    return best_obj, best_x, best_resid


def min_trace_descent(
    c: np.ndarray,
    constraints: list[tuple[np.ndarray, float]],
    caps: np.ndarray | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> tuple[float, np.ndarray | None]:
    """Independent minimizer of tr(C X) over the constrained PSD set.

    Parameterizes X = V V^H with a full K-by-K factor and runs an augmented
    Lagrangian descent from multiple random starts. Returns the best feasible
    objective found and its X, or ``(inf, None)`` when no start reached
    feasibility.
    """
    obj, xm, _ = _penalty_descent(np.asarray(c, dtype=np.complex128), constraints, caps, restarts, seed)
    return obj, xm


def feasibility_descent(
    constraints: list[tuple[np.ndarray, float]],
    caps: np.ndarray | None = None,
    restarts: int = 6,
    seed: int = 0,
) -> tuple[bool, float]:
    """Penalty-descent feasibility verdict for the same constraint shape.

    Returns ``(feasible, best_residual)`` where the residual is the largest
    normalized constraint violation over the best start.
    """
    _, xm, resid = _penalty_descent(None, constraints, caps, restarts, seed)
    return xm is not None, resid
