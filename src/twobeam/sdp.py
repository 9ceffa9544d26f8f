"""Small dense semidefinite solver for the two relaxation shapes used here.

Scope is deliberately narrow: minimize a real trace objective, or maximize a
common slack, over a Hermitian PSD matrix with linear trace inequality
constraints and optional diagonal caps. Problems are tiny (K rarely above
20), and one primal-dual interior-point method serves both shapes:

* the variable stays a K x K complex Hermitian matrix, paired with the
  data as 2 Re tr(A X), so scales and tolerances read as in a real
  symmetric embedding of twice the size;
* the general trace rows are one stacked array and the caps a vector, so
  the Newton (Schur complement) matrix is built without a loop over rows:
  the general rows from one batched W A W product, the cap rows from its
  diagonals and from |W_ik|^2 in closed form;
* every inequality row carries its own dedicated slack, making that
  matrix symmetric positive definite by construction;
* the search direction is a Mehrotra predictor-corrector step under
  Nesterov-Todd scaling, computed from the Cholesky factors of X and Z and
  one SVD, which makes both scaled iterates the same diagonal matrix.

Feasibility questions are answered by maximizing how far all relaxable
constraints can be pushed past their bounds simultaneously, which is a
bounded problem with a strictly interior starting point; the sign of that
optimum is the verdict.

Every verdict leaves through one certification step that measures the
returned X against the full problem. A stalled solve never reads as
infeasible: it returns a polished feasible witness or MAX_ITER.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

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


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product 2 Re tr(A B) of Hermitian matrices."""
    return 2.0 * float(np.vdot(a, b).real)


def _norm(a: np.ndarray) -> float:
    """The norm the pairing induces: sqrt(2) times the Frobenius norm."""
    return float(np.sqrt(2.0) * np.linalg.norm(a))


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _rel_gap(p_obj: float, d_obj: float) -> float:
    return abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A factor F with A = F F^H, and its inverse.

    Cholesky, except near the cone boundary where roundoff can make it
    fail; there the eigendecomposition gives a square-root factor instead.
    """
    try:
        f = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(a)
        f = vecs * np.sqrt(np.maximum(vals, 1e-300))
    return f, np.linalg.inv(f)


def _max_step_psd(f_inv: np.ndarray, d: np.ndarray) -> float:
    # Largest step keeping F F^H + alpha d PSD, read off F^-1 d F^-H.
    lo = float(np.linalg.eigvalsh(_herm(f_inv @ d @ f_inv.conj().T))[0])
    return np.inf if lo >= 0.0 else 1.0 / (-lo)


def _max_step_lin(u: np.ndarray, du: np.ndarray) -> float:
    neg = du < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(u[neg] / (-du[neg])))


def _row_values(mats: np.ndarray, cap_coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's value 2 Re tr(A X): the stacked general rows, then the caps."""
    flat = mats.reshape(mats.shape[0], x.size).conj()
    diag = x.diagonal()[: cap_coef.size].real
    return 2.0 * np.concatenate([(flat @ x.ravel()).real, cap_coef * diag])


def _chol_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    jitter = 0.0
    base = float(np.trace(m)) / max(1, m.shape[0])
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
    mats: np.ndarray,
    cap_coef: np.ndarray,
    g_mat: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Primal-dual interior point for the internal equality-form program.

    minimize  <C, X> + c_lin . u
    s.t.      A(X) + g_mat u = b,   X Hermitian PSD,  u >= 0

    with <A, X> = 2 Re tr(A X). The rows of A(X) are <mats[j], X> for the
    stacked general rows, then <cap_coef[i] e_i e_i^H, X> for the cap rows
    (none, or one per dimension).

    Returns (X, u, y, converged). Every row is assumed to touch at least
    one dedicated linear variable, so the Schur complement stays positive
    definite.
    """
    k = c_mat.shape[0]
    q, kc = mats.shape[0], cap_coef.size
    m = c_lin.size
    p = b.size
    mats_flat = mats.reshape(q, k * k)
    mats_conj = mats_flat.conj()
    caps = np.arange(kc)
    cap_outer = 2.0 * np.outer(cap_coef, cap_coef)
    # Under the pairing each eigenvalue of X counts twice, so the cone has
    # the barrier degree 2K of its real embedding.
    degree = 2 * k + m

    def adjoint(yv: np.ndarray) -> np.ndarray:
        out = (yv[:q] @ mats_flat).reshape(k, k)
        out[caps, caps] += cap_coef * yv[q:]
        return out

    scale0 = max(1.0, float(np.max(np.abs(b))) if p else 1.0, _norm(c_mat))
    x = scale0 * np.eye(k, dtype=np.complex128)
    z = scale0 * np.eye(k, dtype=np.complex128)
    u = np.full(m, scale0)
    zl = np.full(m, scale0)
    y = np.zeros(p)

    b_scale = 1.0 + (float(np.max(np.abs(b))) if p else 0.0)
    c_scale = 1.0 + _norm(c_mat) + (float(np.max(np.abs(c_lin))) if m else 0.0)

    # Near machine-level duality gaps the Newton system loses accuracy and the
    # primal residual can drift back up, so keep the best iterate seen and be
    # willing to settle for it slightly above the target tolerance.
    best = (x, u, y)
    best_marks = (np.inf, np.inf, np.inf)

    for _ in range(_MAX_ITERS):
        # Stray overflow in intermediate products is handled by the finite
        # checks below, so keep numpy quiet about it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if not _finite(x, z, u, zl, y):
                break
            r_p = b - _row_values(mats, cap_coef, x) - g_mat @ u
            r_d_mat = c_mat - adjoint(y) - z
            r_d_lin = c_lin - g_mat.T @ y - zl
            gap = _pair(x, z) + float(u @ zl)
            mu = gap / degree
            p_obj = _pair(c_mat, x) + float(c_lin @ u)
            d_obj = float(b @ y)
            rel_gap = _rel_gap(p_obj, d_obj)
            p_res = float(np.max(np.abs(r_p))) / b_scale if p else 0.0
            d_res = max(
                _norm(r_d_mat) / c_scale,
                (float(np.max(np.abs(r_d_lin))) / c_scale) if m else 0.0,
            )
            if max(p_res, d_res, rel_gap) < max(best_marks):
                best = (x, u, y)
                best_marks = (p_res, d_res, rel_gap)
            if p_res <= _OPT_TOL and d_res <= _OPT_TOL and rel_gap <= _OPT_TOL:
                return x, u, y, True
            if mu <= 1e-14:
                break

            try:
                # Nesterov-Todd scaling from X = L L^H, Z = R R^H and the SVD
                # R^H L = U S V^H: G = L V S^-1/2 scales both X and Z to the
                # diagonal point lam = S, and W = G G^H satisfies W Z W = X.
                l_fac, l_inv = _factor(x)
                r_fac, r_inv = _factor(z)
                svd_u, lam, svd_vh = np.linalg.svd(r_fac.conj().T @ l_fac)
                lam = np.maximum(lam, 1e-300)
                if not _finite(lam) or lam[0] > 1e120:
                    break
                root = np.sqrt(lam)
                g = (l_fac @ svd_vh.conj().T) / root
                g_inv = (svd_u.conj().T @ r_fac.conj().T) / root[:, None]
                w = g @ g.conj().T
                jordan = 0.5 * (lam[:, None] + lam[None, :])
                w_lin_sq = u / zl

                # Schur complement <A_i, W A_j W> from the row structure:
                # general rows by one batched product, cap rows from its
                # diagonals and, between caps, 2 c_i c_k |W_ik|^2.
                w_f_w = w @ mats @ w
                schur = np.zeros((p, p))
                gen = 2.0 * (mats_conj @ w_f_w.reshape(q, k * k).T).real
                schur[:q, :q] = 0.5 * (gen + gen.T)
                gen_cap = 2.0 * w_f_w[:, caps, caps].real * cap_coef
                schur[:q, q:] = gen_cap
                schur[q:, :q] = gen_cap.T
                schur[q:, q:] = cap_outer * np.abs(w[:kc, :kc]) ** 2
                schur += (g_mat * w_lin_sq) @ g_mat.T
                w_rd_w = w @ r_d_mat @ w

                def solve_direction(target_mat: np.ndarray, target_lin: np.ndarray):
                    # target_*: right-hand sides of the linearized complementarity
                    # equations, in scaled space for the PSD block, where the
                    # Jordan product with the diagonal lam divides elementwise.
                    s_mat = g @ (target_mat / jordan) @ g.conj().T
                    du_part = (target_lin - u * r_d_lin) / zl
                    rhs = r_p - _row_values(mats, cap_coef, s_mat - w_rd_w) - g_mat @ du_part
                    dy = _chol_solve(schur, rhs)
                    dz_mat = _herm(r_d_mat - adjoint(dy))
                    dx = _herm(s_mat - w @ dz_mat @ w)
                    dz_lin = r_d_lin - g_mat.T @ dy
                    du = du_part + w_lin_sq * (g_mat.T @ dy)
                    return dx, du, dy, dz_mat, dz_lin

                # Predictor: aim at zero complementarity.
                lam_sq = np.diag(lam * lam)
                dxa, dua, dya, dza, dzla = solve_direction(-lam_sq, -(u * zl))

                ap = min(_max_step_psd(l_inv, dxa), _max_step_lin(u, dua), 1.0)
                ad = min(_max_step_psd(r_inv, dza), _max_step_lin(zl, dzla), 1.0)
                gap_aff = _pair(x + ap * dxa, z + ad * dza) + float(
                    (u + ap * dua) @ (zl + ad * dzla)
                )
                sigma = min(1.0, max((gap_aff / gap) ** 3, 1e-12)) if gap > 0.0 else 1e-12

                cross = (g_inv @ dxa @ g_inv.conj().T) @ (g.conj().T @ dza @ g)
                corr_mat = sigma * mu * np.eye(k) - lam_sq - _herm(cross)
                corr_lin = sigma * mu - u * zl - dua * dzla
                dx, du, dy, dz, dzl = solve_direction(corr_mat, corr_lin)
                if not _finite(dx, du, dz, dzl, dy):
                    break

                ap = 0.99 * min(_max_step_psd(l_inv, dx), _max_step_lin(u, du))
                ad = 0.99 * min(_max_step_psd(r_inv, dz), _max_step_lin(zl, dzl))
                ap, ad = min(ap, 1.0), min(ad, 1.0)
                x = _herm(x + ap * dx)
                u = u + ap * du
                y = y + ad * dy
                z = _herm(z + ad * dz)
                zl = zl + ad * dzl
            except np.linalg.LinAlgError:
                break

    x, u, y = best
    converged = all(mark <= 10.0 * _OPT_TOL for mark in best_marks)
    return x, u, y, converged


def _normalized_rows(problem: SdpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-normalized (mats, cap_coef, bounds) in the 2 Re tr pairing.

    Each general row A, b is divided by s = max(1, ||A||, |b|) and stacked
    into mats; a cap X_ii <= u_i is the row -X_ii / s_i >= -u_i / s_i with
    s_i = max(1, u_i), kept as its coefficient -1/s_i. bounds lists 2 b / s,
    general rows first, then caps.
    """
    k = problem.dimension
    a = np.array([a for a, _ in problem.constraints], dtype=np.complex128).reshape(-1, k, k)
    b = np.array([b for _, b in problem.constraints], dtype=np.float64)
    s = np.maximum(np.maximum(1.0, np.linalg.norm(a, axis=(1, 2))), np.abs(b))
    u = problem.caps if problem.caps is not None else np.zeros(0)
    s_cap = np.maximum(1.0, u)
    bounds = np.concatenate([2.0 * b / s, 2.0 * (-u) / s_cap])
    return a / s[:, None, None], -1.0 / s_cap, bounds


def _violation(problem: SdpProblem, x: np.ndarray) -> float:
    # Each row's shortfall (b - tr(A X)) / s at its normalization scale s.
    mats, cap_coef, bounds = _normalized_rows(problem)
    short = 0.5 * (bounds - _row_values(mats, cap_coef, x))
    lo = float(np.linalg.eigvalsh(x)[0])
    norm = max(1.0, float(np.linalg.norm(x)))
    return max(float(np.max(short, initial=0.0)), -lo / norm)


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


def _solution(
    problem: SdpProblem, x: np.ndarray, status: SdpStatus, objective: float, gap: float
) -> SdpSolution:
    """The one way out of every solve: a verdict and X's violation of the full problem."""
    return SdpSolution(x, status, objective, _violation(problem, x), gap)


def _all_frozen(problem: SdpProblem, infeasible_objective: float) -> SdpSolution:
    """The verdict when zero caps freeze every dimension: X = 0 is the only point."""
    x = np.zeros((problem.dimension, problem.dimension), dtype=np.complex128)
    sol = _solution(problem, x, SdpStatus.OPTIMAL, 0.0, 0.0)
    if sol.max_violation > _FEAS_TOL:
        return replace(sol, status=SdpStatus.INFEASIBLE, objective=infeasible_objective)
    return sol


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
    # Row scaling leaves every ratio b / <A, X> as it is; cap rows read
    # -X_ii >= -u_i, so they limit gamma from above like negative bounds.
    mats, cap_coef, bounds = _normalized_rows(problem)
    val = _row_values(mats, cap_coef, x)
    lifting = bounds > 0.0
    if np.any(val[lifting] <= 0.0):
        return None
    need = float(np.max(bounds[lifting] / val[lifting], initial=0.0))
    falling = val < 0.0
    head = float(np.min(bounds[falling] / val[falling], initial=np.inf))
    if need > head:
        return None
    x = min(max(1.0, need), head) * x
    if _violation(problem, x) > _FEAS_TOL:
        return None
    q = mats.shape[0]
    val, b = _row_values(mats, cap_coef, x)[:q], bounds[:q]
    fixed = b != 0.0
    margin = float(np.min((val[fixed] - b[fixed]) / np.abs(b[fixed]), initial=1.0))
    return x, margin


def _solve_max_slack(problem: SdpProblem) -> tuple[float, np.ndarray, float, bool]:
    """Maximize the common relaxation slack t (capped at 1).

    Rows with a zero bound are not relaxed; their scale would be meaningless.
    Caps are never relaxed. Returns (t_star, X, rel_gap, converged).
    """
    k = problem.dimension
    mats, cap_coef, bounds = _normalized_rows(problem)
    n_rows = bounds.size
    # After row normalization the slack coefficient is |b| / scale.
    relax = np.abs(bounds)
    relax[mats.shape[0] :] = 0.0

    # Write t = 1 - c with c >= 0: min c s.t. A(X) - slack + relax c =
    # b + relax. This keeps the cap t <= 1 without a free variable, whose
    # split t+ - t- lets both halves drift upward together and stalls the
    # solve near its tolerance.
    g_mat = np.hstack([-np.eye(n_rows), relax[:, None]])
    b_vec = bounds + relax
    c_lin = np.zeros(n_rows + 1)
    c_lin[n_rows] = 1.0

    x, u, y, ok = _run_ipm(
        np.zeros((k, k), dtype=np.complex128), c_lin, mats, cap_coef, g_mat, b_vec
    )
    t_star = 1.0 - float(u[n_rows])
    p_obj = -t_star
    d_obj = float(b_vec @ y) - 1.0
    return t_star, x, _rel_gap(p_obj, d_obj), ok


def _solve_trace_objective(problem: SdpProblem) -> tuple[float, np.ndarray, float, float, bool]:
    """Minimize the trace objective; returns (obj, X, rel_gap, dual_obj, ok)."""
    mats, cap_coef, bounds = _normalized_rows(problem)
    n_rows = bounds.size
    # The objective stays in original units so the interior-point duality gap
    # certifies the reported one; row scaling alone leaves b.y unchanged.
    c_mat = problem.objective
    x, u, y, ok = _run_ipm(c_mat, np.zeros(n_rows), mats, cap_coef, -np.eye(n_rows), bounds)
    # The pairing doubles every trace; halve to report tr(C X).
    p_obj = 0.5 * _pair(c_mat, x)
    d_obj = 0.5 * float(bounds @ y)
    return p_obj, x, _rel_gap(p_obj, d_obj), d_obj, ok


def solve_min_trace(problem: SdpProblem) -> SdpSolution:
    """Minimize tr(C X) under the problem's constraints.

    Runs the max-slack feasibility check first so infeasible inputs are
    reported as such instead of surfacing as a stalled optimization.
    """
    if problem.is_feasibility:
        raise DomainError("problem has no objective; use solve_feasibility")
    reduced, keep = _reduce_zero_caps(problem)
    if reduced is None:
        return _all_frozen(problem, np.inf)

    t_star, x_slack, _, ok_slack = _solve_max_slack(reduced)
    if ok_slack and t_star < -_FEAS_TOL:
        x_slack = _expand(x_slack, keep, problem.dimension)
        return _solution(problem, x_slack, SdpStatus.INFEASIBLE, np.inf, np.inf)

    obj, x, rel_gap, d_obj, ok = _solve_trace_objective(reduced)
    sol = _solution(problem, _expand(x, keep, problem.dimension), SdpStatus.OPTIMAL, obj, rel_gap)
    # Optimal status certifies the reported metrics, so downgrade whenever
    # either one misses its guarantee even though the solver felt converged.
    if not ok or sol.max_violation > _FEAS_TOL or rel_gap > 1e-7:
        return replace(sol, status=SdpStatus.MAX_ITER)
    # Weak duality: a minimum below its own dual bound certifies nothing.
    if obj < d_obj - 1e-6 * (1.0 + abs(obj) + abs(d_obj)):
        raise SolverError(f"minimum {obj!r} undercuts its dual bound {d_obj!r}")
    return sol


def solve_feasibility(problem: SdpProblem) -> SdpSolution:
    """Decide whether any PSD X satisfies all constraints and caps.

    The returned X maximizes the smallest proportional margin, making it a
    good center for randomized rounding. Objective field carries the margin
    achieved by the returned X, which is maximal whenever the solve
    converged (status OPTIMAL together with a small duality gap).
    """
    reduced, keep = _reduce_zero_caps(problem)
    if reduced is None:
        return _all_frozen(problem, -np.inf)
    t_star, x_small, rel_gap, ok = _solve_max_slack(reduced)
    x = _expand(x_small, keep, problem.dimension)
    if ok:
        status = SdpStatus.OPTIMAL if t_star >= -_FEAS_TOL else SdpStatus.INFEASIBLE
        return _solution(problem, x, status, t_star, rel_gap)
    # A stalled solve still certifies feasibility when its iterate polishes
    # into a point satisfying every constraint: the verdict needs a witness,
    # not the maximal margin. Infeasibility has no such shortcut; it rests
    # on the converged dual bound, so keep MAX_ITER in that direction.
    polished = _polish_witness(problem, x)
    if polished is None:
        return _solution(problem, x, SdpStatus.MAX_ITER, t_star, rel_gap)
    x_fixed, margin = polished
    return _solution(problem, x_fixed, SdpStatus.OPTIMAL, margin, rel_gap)
