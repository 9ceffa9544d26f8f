"""Small dense semidefinite solver for the two relaxation shapes used here.

Scope is deliberately narrow: minimize a real trace objective, or maximize a
common slack, over a Hermitian PSD matrix with linear trace inequality
constraints and optional diagonal caps. Problems are tiny (K rarely above
16), so the implementation favors robustness over speed:

* the complex Hermitian variable is embedded as a structured real symmetric
  matrix of twice the size, which doubles trace inner products;
* every inequality row carries its own dedicated slack, making the Newton
  normal matrix symmetric positive definite by construction;
* the search direction is a Mehrotra predictor-corrector step under
  Nesterov-Todd scaling, the standard primal-dual recipe for this cone.

Feasibility questions are answered by maximizing how far all relaxable
constraints can be pushed past their bounds simultaneously, which is a
bounded problem with a strictly interior starting point; the sign of that
optimum is the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError, SolverError

__all__ = [
    "FEASIBILITY",
    "SdpStatus",
    "SdpProblem",
    "SdpSolution",
    "solve_min_trace",
    "solve_feasibility",
    "MAX_DIMENSION",
]

MAX_DIMENSION = 64
_FEAS_TOL = 1e-8
_OPT_TOL = 1e-9
_MAX_ITERS = 100


# The objective of a pure feasibility problem: there is nothing to minimize.
FEASIBILITY = None


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max_iter"


def _check_hermitian(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{what} must be a square matrix")
    scale = max(1.0, float(np.linalg.norm(a)))
    if float(np.linalg.norm(a - a.conj().T)) > 1e-12 * scale:
        raise DomainError(f"{what} must be Hermitian within 1e-12")
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class SdpProblem:
    """Minimize tr(C X) (or find any X) over PSD X with linear trace bounds.

    Every constraint reads tr(A_i X) >= b_i; diagonal caps add X_ii <= u_i.
    An objective of None poses a pure feasibility problem.
    """

    dimension: int
    objective: np.ndarray | None
    constraints: tuple[tuple[np.ndarray, float], ...]
    caps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise DomainError(f"dimension must lie in [1, {MAX_DIMENSION}]")
        if self.objective is not None:
            obj = _check_hermitian(self.objective, "objective")
            if obj.shape[0] != self.dimension:
                raise DimensionMismatchError("objective dimension mismatch")
            obj.setflags(write=False)
            object.__setattr__(self, "objective", obj)
        rows = []
        for a, b in self.constraints:
            a = _check_hermitian(a, "constraint matrix")
            if a.shape[0] != self.dimension:
                raise DimensionMismatchError("constraint dimension mismatch")
            b = float(b)
            if not np.isfinite(b):
                raise DomainError("constraint bound must be finite")
            a.setflags(write=False)
            rows.append((a, b))
        object.__setattr__(self, "constraints", tuple(rows))
        if self.caps is not None:
            caps = np.asarray(self.caps, dtype=np.float64)
            if caps.shape != (self.dimension,):
                raise DimensionMismatchError("caps must have one entry per dimension")
            if np.any(caps < 0.0) or not np.all(np.isfinite(caps)):
                raise DomainError("caps must be non-negative and finite")
            caps.setflags(write=False)
            object.__setattr__(self, "caps", caps)

    @property
    def is_feasibility(self) -> bool:
        return self.objective is None


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray = field(repr=False)
    status: SdpStatus
    objective: float
    max_violation: float
    duality_gap: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.complex128)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def _embed(a: np.ndarray) -> np.ndarray:
    re, im = np.real(a), np.imag(a)
    return np.block([[re, -im], [im, re]])


def _unembed(y: np.ndarray, k: int) -> np.ndarray:
    # Congruence with [I, jI]/sqrt(2): preserves PSD and halves the trace pairing.
    x = 0.5 * (y[:k, :k] + y[k:, k:]) + 0.5j * (y[k:, :k] - y[:k, k:])
    return 0.5 * (x + x.conj().T)


def _sym_sqrt(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(a)
    vals = np.maximum(vals, 1e-300)
    root = np.sqrt(vals)
    return (vecs * root) @ vecs.T, (vecs / root) @ vecs.T


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NT scaling point W with WZW = X, plus W^{1/2} and W^{-1/2}."""
    xs, _ = _sym_sqrt(x)
    vals, vecs = np.linalg.eigh(xs @ z @ xs)
    vals = np.maximum(vals, 1e-300)
    inner = (vecs / np.sqrt(vals)) @ vecs.T
    w = xs @ inner @ xs
    w = 0.5 * (w + w.T)
    w_half, w_inv_half = _sym_sqrt(w)
    return w, w_half, w_inv_half


def _solve_jordan(lam_vals: np.ndarray, lam_vecs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # Solve (lam G + G lam)/2 = rhs for symmetric G, in lam's eigenbasis.
    r = lam_vecs.T @ rhs @ lam_vecs
    denom = 0.5 * (lam_vals[:, None] + lam_vals[None, :])
    g = r / denom
    return lam_vecs @ g @ lam_vecs.T


def _max_step_psd(x: np.ndarray, dx: np.ndarray) -> float:
    _, x_inv_half = _sym_sqrt(x)
    r = x_inv_half @ dx @ x_inv_half
    lo = float(np.linalg.eigvalsh(0.5 * (r + r.T))[0])
    return np.inf if lo >= 0.0 else 1.0 / (-lo)


def _max_step_lin(u: np.ndarray, du: np.ndarray) -> float:
    neg = du < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(u[neg] / (-du[neg])))


def _chol_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    jitter = 0.0
    base = float(np.trace(m)) / m.shape[0]
    for _ in range(4):
        try:
            cf = np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
            y = np.linalg.solve(cf, rhs)
            return np.linalg.solve(cf.T, y)
        except np.linalg.LinAlgError:
            jitter = max(base * 1e-14, jitter * 100.0, 1e-300)
    return np.linalg.lstsq(m, rhs, rcond=None)[0]


def _run_ipm(
    c_mat: np.ndarray,
    c_lin: np.ndarray,
    f_mats: list[np.ndarray],
    g_mat: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Primal-dual interior point for the internal equality-form program.

    minimize  <c_mat, X> + c_lin . u
    s.t.      <f_mats[j], X> + g_mat[j] . u = b[j],   X PSD,  u >= 0

    Returns (X, u, y, Z, z, converged). Every row is assumed to touch at
    least one dedicated linear variable, so the Schur complement stays
    positive definite.
    """
    n = c_mat.shape[0]
    m = c_lin.size
    p = b.size

    scale0 = max(1.0, float(np.max(np.abs(b))) if p else 1.0, float(np.linalg.norm(c_mat)))
    x = scale0 * np.eye(n)
    z = scale0 * np.eye(n)
    u = np.full(m, scale0)
    zl = np.full(m, scale0)
    y = np.zeros(p)

    b_scale = 1.0 + (float(np.max(np.abs(b))) if p else 0.0)
    c_scale = 1.0 + float(np.linalg.norm(c_mat)) + (float(np.max(np.abs(c_lin))) if m else 0.0)

    def inner_rows(xm: np.ndarray, uv: np.ndarray) -> np.ndarray:
        vals = np.array([float(np.sum(f * xm)) for f in f_mats])
        return vals + g_mat @ uv

    # Near machine-level duality gaps the Newton system loses accuracy and the
    # primal residual can drift back up, so keep the best iterate seen and be
    # willing to settle for it slightly above the target tolerance.
    best = (x, u, y, z, zl)
    best_marks = (np.inf, np.inf, np.inf)

    for _ in range(_MAX_ITERS):
        # Stray overflow in intermediate products is handled by the finite
        # checks below, so keep numpy quiet about it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            finite = (
                np.all(np.isfinite(x))
                and np.all(np.isfinite(z))
                and np.all(np.isfinite(u))
                and np.all(np.isfinite(zl))
                and np.all(np.isfinite(y))
            )
            if not finite:
                break
            r_p = b - inner_rows(x, u)
            r_d_mat = c_mat - sum(y[j] * f_mats[j] for j in range(p)) - z
            r_d_lin = c_lin - g_mat.T @ y - zl
            gap = float(np.sum(x * z)) + float(u @ zl)
            mu = gap / (n + m)
            p_obj = float(np.sum(c_mat * x)) + float(c_lin @ u)
            d_obj = float(b @ y)
            rel_gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))
            p_res = float(np.max(np.abs(r_p))) / b_scale if p else 0.0
            d_res = max(
                float(np.linalg.norm(r_d_mat)) / c_scale,
                (float(np.max(np.abs(r_d_lin))) / c_scale) if m else 0.0,
            )
            if max(p_res, d_res, rel_gap) < max(best_marks):
                best = (x, u, y, z, zl)
                best_marks = (p_res, d_res, rel_gap)
            if p_res <= _OPT_TOL and d_res <= _OPT_TOL and rel_gap <= _OPT_TOL:
                return x, u, y, z, zl, True
            if mu <= 1e-14:
                break

            try:
                w, w_half, w_inv_half = _nt_scaling(x, z)
                lam = w_inv_half @ x @ w_inv_half
                lam = 0.5 * (lam + lam.T)
                lam_vals, lam_vecs = np.linalg.eigh(lam)
                lam_vals = np.maximum(lam_vals, 1e-300)
                if not np.all(np.isfinite(lam_vals)) or lam_vals[-1] > 1e120:
                    break
                w_lin_sq = u / zl

                w_f_w = [w @ f @ w for f in f_mats]
                schur = np.empty((p, p))
                for j in range(p):
                    for kk in range(j, p):
                        schur[j, kk] = schur[kk, j] = float(np.sum(f_mats[j] * w_f_w[kk]))
                schur += (g_mat * w_lin_sq) @ g_mat.T

                def solve_direction(target_mat: np.ndarray, target_lin: np.ndarray):
                    # target_*: right-hand sides of the linearized complementarity
                    # equations, in scaled space for the PSD block.
                    g_s = _solve_jordan(lam_vals, lam_vecs, target_mat)
                    s_mat = w_half @ g_s @ w_half
                    du_part = (target_lin - u * r_d_lin) / zl
                    rhs = np.array(
                        [
                            r_p[j]
                            - float(np.sum(f_mats[j] * s_mat))
                            + float(np.sum(f_mats[j] * (w @ r_d_mat @ w)))
                            - float(g_mat[j] @ du_part)
                            for j in range(p)
                        ]
                    )
                    dy = _chol_solve(schur, rhs)
                    dz_mat = r_d_mat - sum(dy[j] * f_mats[j] for j in range(p))
                    dz_mat = 0.5 * (dz_mat + dz_mat.T)
                    dx = s_mat - w @ dz_mat @ w
                    dx = 0.5 * (dx + dx.T)
                    dz_lin = r_d_lin - g_mat.T @ dy
                    du = du_part + w_lin_sq * (g_mat.T @ dy)
                    return dx, du, dy, dz_mat, dz_lin

                # Predictor: aim at zero complementarity.
                aff_mat = -(lam @ lam)
                aff_mat = 0.5 * (aff_mat + aff_mat.T)
                aff_lin = -(u * zl)
                dxa, dua, dya, dza, dzla = solve_direction(aff_mat, aff_lin)

                ap = min(_max_step_psd(x, dxa), _max_step_lin(u, dua), 1.0)
                ad = min(_max_step_psd(z, dza), _max_step_lin(zl, dzla), 1.0)
                gap_aff = float(np.sum((x + ap * dxa) * (z + ad * dza))) + float(
                    (u + ap * dua) @ (zl + ad * dzla)
                )
                sigma = min(1.0, max((gap_aff / gap) ** 3, 1e-12)) if gap > 0.0 else 1e-12

                dxa_s = w_inv_half @ dxa @ w_inv_half
                dza_s = w_half @ dza @ w_half
                cross = dxa_s @ dza_s
                corr_mat = sigma * mu * np.eye(n) - lam @ lam - 0.5 * (cross + cross.T)
                corr_mat = 0.5 * (corr_mat + corr_mat.T)
                corr_lin = sigma * mu - u * zl - dua * dzla
                dx, du, dy, dz, dzl = solve_direction(corr_mat, corr_lin)
                step_finite = (
                    np.all(np.isfinite(dx))
                    and np.all(np.isfinite(du))
                    and np.all(np.isfinite(dz))
                    and np.all(np.isfinite(dzl))
                    and np.all(np.isfinite(dy))
                )
                if not step_finite:
                    break

                ap = 0.99 * min(_max_step_psd(x, dx), _max_step_lin(u, du))
                ad = 0.99 * min(_max_step_psd(z, dz), _max_step_lin(zl, dzl))
                ap, ad = min(ap, 1.0), min(ad, 1.0)
                x = x + ap * dx
                u = u + ap * du
                y = y + ad * dy
                z = z + ad * dz
                zl = zl + ad * dzl
                x = 0.5 * (x + x.T)
                z = 0.5 * (z + z.T)
            except np.linalg.LinAlgError:
                break

    x, u, y, z, zl = best
    converged = all(mark <= 10.0 * _OPT_TOL for mark in best_marks)
    return x, u, y, z, zl, converged


def _normalized_rows(problem: SdpProblem) -> tuple[list[np.ndarray], list[float], list[float]]:
    """Embedded, row-normalized (A, b, scale) triples, caps folded in as rows."""
    mats, bounds, scales = [], [], []
    for a, b in problem.constraints:
        s = max(1.0, float(np.linalg.norm(a)), abs(b))
        mats.append(_embed(a / s))
        bounds.append(2.0 * b / s)
        scales.append(s)
    if problem.caps is not None:
        for i in range(problem.dimension):
            e = np.zeros((problem.dimension, problem.dimension), dtype=np.complex128)
            e[i, i] = -1.0
            u_i = float(problem.caps[i])
            s = max(1.0, u_i)
            mats.append(_embed(e / s))
            bounds.append(2.0 * (-u_i) / s)
            scales.append(s)
    return mats, bounds, scales


def _violation(problem: SdpProblem, x: np.ndarray) -> float:
    worst = 0.0
    for a, b in problem.constraints:
        s = max(1.0, float(np.linalg.norm(a)), abs(b))
        worst = max(worst, (b - float(np.real(np.sum(a.conj() * x)))) / s)
    if problem.caps is not None:
        diag = np.real(np.diag(x))
        for i in range(problem.dimension):
            s = max(1.0, float(problem.caps[i]))
            worst = max(worst, (diag[i] - float(problem.caps[i])) / s)
    lo = float(np.linalg.eigvalsh(x)[0])
    norm = max(1.0, float(np.linalg.norm(x)))
    worst = max(worst, -lo / norm if lo < 0.0 else 0.0)
    return max(worst, 0.0)


def _reduce_zero_caps(problem: SdpProblem) -> tuple[SdpProblem | None, np.ndarray]:
    """Remove dimensions frozen to zero by zero caps; None if all are frozen."""
    if problem.caps is None or not np.any(problem.caps == 0.0):
        return problem, np.arange(problem.dimension)
    keep = np.flatnonzero(problem.caps > 0.0)
    if keep.size == 0:
        return None, keep
    sub = np.ix_(keep, keep)
    rows = tuple((a[sub], b) for a, b in problem.constraints)
    reduced = SdpProblem(
        dimension=keep.size,
        objective=problem.objective
        if problem.is_feasibility
        else problem.objective[sub],
        constraints=rows,
        caps=problem.caps[keep],
    )
    return reduced, keep


def _expand(x_small: np.ndarray, keep: np.ndarray, k: int) -> np.ndarray:
    x = np.zeros((k, k), dtype=np.complex128)
    x[np.ix_(keep, keep)] = x_small
    return x


def _polish_witness(
    problem: SdpProblem, x: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Clip and rescale a near-feasible iterate into an exact witness.

    A stalled interior-point iterate misses feasibility only by float dust:
    a slightly indefinite X or constraint rows off by less than the solver
    tolerance. Projecting onto the PSD cone and applying one global scale
    gamma fixes both when the rows allow it, since every lower-bound row
    demands gamma >= b / <A, X> while caps and negative-bound rows demand an
    upper limit. Returns (witness, achieved margin), or None when no scale
    reconciles the two sides.
    """
    vals, vecs = np.linalg.eigh(x)
    x = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    need, head = 0.0, np.inf
    if problem.caps is not None:
        diag = np.real(np.diag(x))
        live = diag > 0.0
        if np.any(live):
            head = float(np.min(problem.caps[live] / diag[live]))
    for a, b in problem.constraints:
        val = float(np.real(np.sum(a.conj() * x)))
        if val > 0.0:
            if b > 0.0:
                need = max(need, b / val)
        elif b > 0.0:
            return None
        elif val < 0.0:
            head = min(head, b / val)
    if need > head:
        return None
    x = min(max(1.0, need), head) * x
    if _violation(problem, x) > _FEAS_TOL:
        return None
    margin = 1.0
    for a, b in problem.constraints:
        if b != 0.0:
            val = float(np.real(np.sum(a.conj() * x)))
            margin = min(margin, (val - b) / abs(b))
    return x, margin


def _solve_max_slack(problem: SdpProblem) -> tuple[float, np.ndarray, float, bool]:
    """Maximize the common relaxation slack t (capped at 1).

    Rows with a zero bound are not relaxed; their scale would be meaningless.
    Returns (t_star, X, rel_gap, converged).
    """
    k2 = 2 * problem.dimension
    mats, bounds, scales = _normalized_rows(problem)
    n_rows = len(mats)
    relax = np.zeros(n_rows)
    for j, (_, b) in enumerate(problem.constraints):
        # After row normalization the slack coefficient is |b| / scale.
        relax[j] = abs(2.0 * b) / scales[j]

    # Linear block: one slack per row, then t+, t-, and the t-cap slack.
    m_lin = n_rows + 3
    p_rows = n_rows + 1
    g_mat = np.zeros((p_rows, m_lin))
    f_mats = []
    b_vec = np.zeros(p_rows)
    for j in range(n_rows):
        f_mats.append(mats[j])
        g_mat[j, j] = -1.0
        g_mat[j, n_rows] = -relax[j]
        g_mat[j, n_rows + 1] = relax[j]
        b_vec[j] = bounds[j]
    f_mats.append(np.zeros((k2, k2)))
    g_mat[n_rows, n_rows] = 1.0  # t+
    g_mat[n_rows, n_rows + 1] = -1.0  # t-
    g_mat[n_rows, n_rows + 2] = 1.0  # cap slack
    b_vec[n_rows] = 1.0

    c_lin = np.zeros(m_lin)
    c_lin[n_rows] = -1.0
    c_lin[n_rows + 1] = 1.0

    x, u, y, z, zl, ok = _run_ipm(np.zeros((k2, k2)), c_lin, f_mats, g_mat, b_vec)
    t_star = float(u[n_rows] - u[n_rows + 1])
    p_obj = -t_star
    d_obj = float(b_vec @ y)
    rel_gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))
    return t_star, _unembed(x, problem.dimension), rel_gap, ok


def _solve_trace_objective(problem: SdpProblem) -> tuple[float, np.ndarray, float, float, bool]:
    """Minimize the trace objective; returns (obj, X, rel_gap, dual_obj, ok)."""
    mats, bounds, _ = _normalized_rows(problem)
    n_rows = len(mats)
    # The objective stays in original units so the interior-point duality gap
    # certifies the reported one; row scaling alone leaves b.y unchanged.
    c_mat = _embed(problem.objective)

    g_mat = np.zeros((n_rows, n_rows))
    np.fill_diagonal(g_mat, -1.0)
    c_lin = np.zeros(n_rows)
    b_vec = np.array(bounds)

    x, u, y, z, zl, ok = _run_ipm(c_mat, c_lin, mats, g_mat, b_vec)
    # The embedding doubles every pairing; halve to report in complex units.
    p_obj = 0.5 * float(np.sum(c_mat * x))
    d_obj = 0.5 * float(b_vec @ y)
    rel_gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))
    return p_obj, _unembed(x, problem.dimension), rel_gap, d_obj, ok


def solve_min_trace(problem: SdpProblem) -> SdpSolution:
    """Minimize tr(C X) under the problem's constraints.

    Runs the max-slack feasibility check first so infeasible inputs are
    reported as such instead of surfacing as a stalled optimization.
    """
    if problem.is_feasibility:
        raise DomainError("problem has no objective; use solve_feasibility")
    reduced, keep = _reduce_zero_caps(problem)
    if reduced is None:
        x = np.zeros((problem.dimension, problem.dimension), dtype=np.complex128)
        viol = _violation(problem, x)
        feasible = viol <= _FEAS_TOL
        return SdpSolution(
            x=x,
            status=SdpStatus.OPTIMAL if feasible else SdpStatus.INFEASIBLE,
            objective=0.0 if feasible else np.inf,
            max_violation=viol,
            duality_gap=0.0,
        )

    t_star, x_slack, _, ok_slack = _solve_max_slack(reduced)
    if ok_slack and t_star < -_FEAS_TOL:
        x_full = _expand(x_slack, keep, problem.dimension)
        return SdpSolution(
            x=x_full,
            status=SdpStatus.INFEASIBLE,
            objective=np.inf,
            max_violation=_violation(problem, x_full),
            duality_gap=np.inf,
        )

    obj, x, rel_gap, d_obj, ok = _solve_trace_objective(reduced)
    x_full = _expand(x, keep, problem.dimension)
    viol = _violation(problem, x_full)
    # Optimal status certifies the reported metrics, so downgrade whenever
    # either one misses its guarantee even though the solver felt converged.
    if not ok or viol > _FEAS_TOL or rel_gap > 1e-7:
        return SdpSolution(
            x=x_full,
            status=SdpStatus.MAX_ITER,
            objective=obj,
            max_violation=viol,
            duality_gap=rel_gap,
        )
    # Weak duality sanity: the reported minimum can never undercut its bound.
    assert obj >= d_obj - 1e-6 * (1.0 + abs(obj) + abs(d_obj))
    return SdpSolution(
        x=x_full,
        status=SdpStatus.OPTIMAL,
        objective=obj,
        max_violation=viol,
        duality_gap=rel_gap,
    )


def solve_feasibility(problem: SdpProblem) -> SdpSolution:
    """Decide whether any PSD X satisfies all constraints and caps.

    The returned X maximizes the smallest proportional margin, making it a
    good center for randomized rounding. Objective field carries the margin
    achieved by the returned X, which is maximal whenever the solve
    converged (status OPTIMAL together with a small duality gap).
    """
    reduced, keep = _reduce_zero_caps(problem)
    if reduced is None:
        x = np.zeros((problem.dimension, problem.dimension), dtype=np.complex128)
        viol = _violation(problem, x)
        feasible = viol <= _FEAS_TOL
        return SdpSolution(
            x=x,
            status=SdpStatus.OPTIMAL if feasible else SdpStatus.INFEASIBLE,
            objective=0.0 if feasible else -np.inf,
            max_violation=viol,
            duality_gap=0.0,
        )
    t_star, x_small, rel_gap, ok = _solve_max_slack(reduced)
    x_full = _expand(x_small, keep, problem.dimension)
    if not ok:
        # A stalled solve still certifies feasibility when its iterate
        # polishes into a point satisfying every constraint: the verdict
        # needs a witness, not the maximal margin. Infeasibility has no
        # such shortcut; it rests on the converged dual bound, so keep
        # MAX_ITER in that direction.
        polished = _polish_witness(problem, x_full)
        if polished is not None:
            x_fixed, margin = polished
            return SdpSolution(
                x=x_fixed,
                status=SdpStatus.OPTIMAL,
                objective=margin,
                max_violation=_violation(problem, x_fixed),
                duality_gap=rel_gap,
            )
        return SdpSolution(
            x=x_full,
            status=SdpStatus.MAX_ITER,
            objective=t_star,
            max_violation=_violation(problem, x_full),
            duality_gap=rel_gap,
        )
    status = SdpStatus.OPTIMAL if t_star >= -_FEAS_TOL else SdpStatus.INFEASIBLE
    return SdpSolution(
        x=x_full,
        status=status,
        objective=t_star,
        max_violation=_violation(problem, x_full),
        duality_gap=rel_gap,
    )
