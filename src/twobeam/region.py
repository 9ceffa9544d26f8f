"""Monte Carlo rate regions: seeded sweeps, averaging, hulls, containment.

A region run draws channel realizations, traces the boundary per realization
with the matching solver (closed forms for reciprocal channels, rate-profile
bisection over SDPs otherwise), averages the rate pairs per grid point, and
closes the averaged boundary with the two axis endpoints before hulling.
Region comparisons reduce to vertex containment tests on the chains.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, SolverError
from .model import (
    ChannelSet,
    IndividualPower,
    PowerBudget,
    SumPower,
    SystemParams,
    _require_positive_scalar,
    rate_pair,
)
from .nonrecip import (
    BisectionConfig,
    algorithm1_sum_power,
    algorithm2_individual,
    randomize_rank_one,
    snr_targets,
)
from .recip import (
    individual_power_beamformer,
    sum_power_beamformer,
    wsismin_individual,
    wsismin_sum_power,
)
from .sdp import MAX_DIMENSION

__all__ = [
    "Scenario",
    "RegionResult",
    "ContainmentReport",
    "default_grid",
    "draw_channels",
    "sample_channels",
    "build_region",
    "convex_hull",
    "closed_hull",
    "points_expansion",
    "region_contains",
    "scenario_to_dict",
    "region_csv_text",
    "region_json_text",
]


def default_grid(step: float = 0.05) -> np.ndarray:
    """Evenly spaced sweep values over [0, 1], endpoints included.

    ``step`` must divide 1 so the grid closes exactly at both endpoints.
    """
    step = _require_positive_scalar(step, "step")
    n = int(round(1.0 / step))
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise DomainError("step must divide 1")
    return np.linspace(0.0, 1.0, n + 1)


@dataclass(frozen=True)
class Scenario:
    """One region experiment: network, budget, sweep grid, and RNG plan.

    ``grid`` holds the boundary-tracing weights: WSISMin weights mu when the
    channels are reciprocal, rate-profile fractions kappa otherwise. ``seed``
    roots a single SeedSequence; realization i draws its channels from child
    i, so results do not depend on evaluation order. ``epsilon_bits`` and
    ``rand_candidates`` only matter for non-reciprocal runs.
    """

    k: int
    params: SystemParams
    budget: PowerBudget
    reciprocal: bool
    grid: np.ndarray
    realizations: int
    seed: int
    channel_variance: float = 1.0
    epsilon_bits: float = 1e-4
    rand_candidates: int = 1000
    keep_samples: bool = False

    def __post_init__(self) -> None:
        k = int(self.k)
        if k < 1:
            raise DomainError("k must be at least 1")
        object.__setattr__(self, "k", k)
        if self.params.k != k:
            raise DimensionMismatchError(
                f"params describe {self.params.k} relays, scenario says {k}"
            )
        if isinstance(self.budget, IndividualPower) and self.budget.k != k:
            raise DimensionMismatchError(
                f"budget caps {self.budget.k} relays, scenario says {k}"
            )
        object.__setattr__(self, "reciprocal", bool(self.reciprocal))
        if not self.reciprocal and k > MAX_DIMENSION:
            raise DomainError(f"k must be at most {MAX_DIMENSION} for non-reciprocal channels")
        grid = np.asarray(self.grid, dtype=np.float64).copy()
        if grid.ndim != 1 or grid.size == 0:
            raise DimensionMismatchError("grid must be a non-empty 1-D vector")
        if not np.all(np.isfinite(grid)) or np.any(grid < 0.0) or np.any(grid > 1.0):
            raise DomainError("grid values must lie in [0, 1]")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        realizations = int(self.realizations)
        if realizations < 1:
            raise DomainError("realizations must be at least 1")
        object.__setattr__(self, "realizations", realizations)
        seed = int(self.seed)
        if seed < 0:
            raise DomainError("seed must be nonnegative")
        object.__setattr__(self, "seed", seed)
        variance = _require_positive_scalar(self.channel_variance, "channel_variance")
        object.__setattr__(self, "channel_variance", variance)
        object.__setattr__(
            self, "epsilon_bits", _require_positive_scalar(self.epsilon_bits, "epsilon_bits")
        )
        rand_candidates = int(self.rand_candidates)
        if rand_candidates < 1:
            raise DomainError("rand_candidates must be at least 1")
        object.__setattr__(self, "rand_candidates", rand_candidates)
        object.__setattr__(self, "keep_samples", bool(self.keep_samples))


@dataclass(frozen=True)
class RegionResult:
    """Averaged boundary points and their hull for one scenario.

    ``grid``, ``means`` and ``n_success`` stay aligned; grid points whose
    samples all failed are absent. ``hull`` is the upper-right chain over the
    averaged points plus the two axis endpoints, ordered by increasing r1.
    ``samples`` keeps the raw per-realization pairs (NaN rows where a solve
    failed) when the scenario asked for them. A non-reciprocal
    individual-power run reports the relaxed bound as its primary points and
    carries the randomized achievable counterpart in ``randomized``.
    """

    solver: str
    grid: np.ndarray
    means: np.ndarray
    n_success: np.ndarray
    hull: np.ndarray
    samples: np.ndarray | None = None
    randomized: "RegionResult | None" = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        n_success = np.asarray(self.n_success, dtype=np.int64)
        hull = np.asarray(self.hull, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise DimensionMismatchError("grid must be a non-empty 1-D vector")
        if means.shape != (grid.size, 2):
            raise DimensionMismatchError("means must be (len(grid), 2)")
        if n_success.shape != (grid.size,):
            raise DimensionMismatchError("n_success must align with grid")
        if hull.ndim != 2 or hull.shape[1] != 2 or hull.shape[0] == 0:
            raise DimensionMismatchError("hull must be a non-empty (h, 2) array")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(hull))):
            raise DomainError("means and hull must be finite")
        if np.any(n_success < 1):
            raise DomainError("every kept grid point needs at least one success")
        # The chain must run strictly right and down with convex corners.
        if hull.shape[0] >= 2 and not (
            np.all(np.diff(hull[:, 0]) > 0.0) and np.all(np.diff(hull[:, 1]) < 0.0)
        ):
            raise DomainError("hull must decrease in r2 as r1 increases")
        for i in range(hull.shape[0] - 2):
            if _cross(hull[i], hull[i + 1], hull[i + 2]) >= 0.0:
                raise DomainError("hull corners must be strictly convex")
        for name, arr in (("grid", grid), ("means", means), ("n_success", n_success), ("hull", hull)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.samples is not None:
            samples = np.asarray(self.samples, dtype=np.float64).copy()
            if samples.shape[1:] != (grid.size, 2):
                raise DimensionMismatchError("samples must be (realizations, len(grid), 2)")
            samples.setflags(write=False)
            object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of a region containment test.

    ``max_violation`` is the smallest uniform slack, in bits on both axes,
    that would bring every inner hull vertex inside the outer region; zero
    when the inner region is already contained.
    """

    contains: bool
    max_violation: float


def draw_channels(
    rng: np.random.Generator, k: int, reciprocal: bool, variance: float = 1.0
) -> ChannelSet:
    """Draws K relays' channels from ``rng`` with iid CN(0, variance) entries.

    Reciprocal draws consume only the forward channels and mirror them
    backward; non-reciprocal draws take h1, h2, h1r, h2r in that order.
    """
    scale = math.sqrt(variance / 2.0)

    def draw() -> np.ndarray:
        return scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))

    h1 = draw()
    h2 = draw()
    if reciprocal:
        return ChannelSet.from_reciprocal(h1, h2)
    return ChannelSet(h1=h1, h2=h2, h1r=draw(), h2r=draw())


def sample_channels(sc: Scenario, seed) -> ChannelSet:
    """Draws one channel realization of the scenario.

    ``seed`` may be anything numpy's default_rng accepts, a SeedSequence
    child included; identical seeds reproduce identical draws.
    """
    rng = np.random.default_rng(seed)
    return draw_channels(rng, sc.k, sc.reciprocal, sc.channel_variance)


def _boundary_point(
    sc: Scenario, ch: ChannelSet, g: float, rand_seed
) -> tuple[tuple[float, float], tuple[float, float] | None]:
    sp = sc.params
    if sc.reciprocal:
        if isinstance(sc.budget, SumPower):
            sol = wsismin_sum_power(ch, sp, sc.budget.p_r, g)
            w = sum_power_beamformer(ch, sol)
        else:
            sol = wsismin_individual(ch, sp, sc.budget.p, g)
            w = individual_power_beamformer(ch, sp, sc.budget.p, sol)
        r = rate_pair(ch, sp, w)
        return (r.r1, r.r2), None
    cfg = BisectionConfig(epsilon=sc.epsilon_bits)
    if isinstance(sc.budget, SumPower):
        r_sum, _ = algorithm1_sum_power(ch, sp, sc.budget.p_r, g, cfg)
        return (g * r_sum, (1.0 - g) * r_sum), None
    r_sum, x_best = algorithm2_individual(ch, sp, sc.budget.p, g, cfg)
    gamma1, gamma2 = snr_targets(g, r_sum)
    rnd = randomize_rank_one(
        x_best, ch, sp, gamma1, gamma2, num_candidates=sc.rand_candidates, seed=rand_seed
    )
    return (g * r_sum, (1.0 - g) * r_sum), (rnd.rates.r1, rnd.rates.r2)


def closed_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of rate pairs, closed at both axes by time sharing with silence."""
    anchors = np.array([[0.0, points[:, 1].max()], [points[:, 0].max(), 0.0]])
    return convex_hull(np.vstack([points, anchors]))


def build_region(sc: Scenario) -> RegionResult:
    """Averages boundary points over channel realizations and hulls them.

    Solver failures are tolerated per sample: a grid point keeps the mean of
    its successful samples, is dropped with a warning when nothing succeeded
    for it, and the run aborts only when no grid point succeeded at all.
    """
    root = np.random.SeedSequence(sc.seed)
    children = root.spawn(sc.realizations)
    m = sc.grid.size
    wants_randomized = not sc.reciprocal and isinstance(sc.budget, IndividualPower)
    primary = np.full((sc.realizations, m, 2), np.nan)
    secondary = np.full((sc.realizations, m, 2), np.nan) if wants_randomized else None
    for i, child in enumerate(children):
        chan_ss, rand_ss = child.spawn(2)
        ch = sample_channels(sc, chan_ss)
        rand_children = rand_ss.spawn(m)
        for j, g in enumerate(sc.grid):
            try:
                point, extra = _boundary_point(sc, ch, float(g), rand_children[j])
            except SolverError:
                continue
            primary[i, j] = point
            if extra is not None:
                secondary[i, j] = extra
    n_success = np.isfinite(primary[:, :, 0]).sum(axis=0)
    if not np.any(n_success):
        raise SolverError("every grid point failed across all realizations")
    keep = n_success > 0
    if not np.all(keep):
        warnings.warn(
            f"dropping grid points with no successful solve: {sc.grid[~keep].tolist()}",
            RuntimeWarning,
            stacklevel=2,
        )
    kept_grid = sc.grid[keep]
    kept_success = n_success[keep]
    means = np.nanmean(primary[:, keep, :], axis=0)
    companion = None
    if wants_randomized:
        rand_means = np.nanmean(secondary[:, keep, :], axis=0)
        companion = RegionResult(
            solver="nonrecip-sdr-randomized",
            grid=kept_grid,
            means=rand_means,
            n_success=kept_success,
            hull=closed_hull(rand_means),
            samples=secondary[:, keep, :] if sc.keep_samples else None,
        )
    if sc.reciprocal:
        tag = "recip-closed-form"
    elif isinstance(sc.budget, SumPower):
        tag = "nonrecip-sdr-bisection"
    else:
        tag = "nonrecip-sdr-relaxed"
    return RegionResult(
        solver=tag,
        grid=kept_grid,
        means=means,
        n_success=kept_success,
        hull=closed_hull(means),
        samples=primary[:, keep, :] if sc.keep_samples else None,
        randomized=companion,
    )


def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Upper-right Pareto hull of 2-D points as an ordered chain.

    Returns the maximal points that survive both weak-domination elimination
    and chord elimination (collinear interior points removed), sorted by
    increasing first coordinate. A single distinct point passes through.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise DimensionMismatchError("points must be a non-empty (n, 2) array")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    pts = np.unique(pts, axis=0)
    # Right-to-left scan keeps exactly the weakly undominated points: the
    # lexicographic sort puts ties in x before the scan reaches them.
    keep = np.zeros(pts.shape[0], dtype=bool)
    best = -np.inf
    for i in range(pts.shape[0] - 1, -1, -1):
        if pts[i, 1] > best:
            keep[i] = True
            best = pts[i, 1]
    maximal = pts[keep]
    chain: list[np.ndarray] = []
    for p in maximal:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) >= 0.0:
            chain.pop()
        chain.append(p)
    return np.array(chain)


def points_expansion(hull: np.ndarray, points: np.ndarray) -> float:
    """Smallest uniform slack putting every point inside the hulled region.

    The region is the lower-left closure of the chain; point (r1, r2) needs
    slack t when (r1 - t, r2 - t) is the nearest member under equal per-axis
    expansion. Zero means all points already lie inside or on the chain.
    """
    hull = np.asarray(hull, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise DimensionMismatchError("points must be a non-empty (n, 2) array")
    t = np.maximum(pts[:, 0] - hull[-1, 0], pts[:, 1] - hull[0, 1])
    if hull.shape[0] >= 2:
        a, b = hull[:-1], hull[1:]
        nx, ny = a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]
        need = (
            nx[None, :] * (pts[:, 0, None] - a[None, :, 0])
            + ny[None, :] * (pts[:, 1, None] - a[None, :, 1])
        ) / (nx + ny)[None, :]
        t = np.maximum(t, need.max(axis=1))
    return max(0.0, float(t.max()))


def region_contains(
    outer: RegionResult, inner: RegionResult, tol: float = 0.0
) -> ContainmentReport:
    """Tests whether ``inner`` fits inside ``outer`` expanded by ``tol``.

    Expansion is uniform per axis: vertex (r1, r2) is admitted when
    (r1 - t, r2 - t) lies in the outer region for some t <= tol. Convexity
    makes checking the inner hull vertices sufficient.
    """
    tol = float(tol)
    if not math.isfinite(tol) or tol < 0.0:
        raise DomainError("tol must be finite and nonnegative")
    viol = points_expansion(outer.hull, inner.hull)
    return ContainmentReport(contains=viol <= tol, max_violation=viol)


def scenario_to_dict(sc: Scenario) -> dict:
    """Plain-JSON form of a scenario, matching the documented schema."""
    if isinstance(sc.budget, SumPower):
        budget = {"kind": "sum", "p_r_watts": float(sc.budget.p_r)}
    else:
        budget = {"kind": "individual", "p_watts": [float(v) for v in sc.budget.p]}
    return {
        "schema_version": 1,
        "k": sc.k,
        "reciprocal": sc.reciprocal,
        "p_s1_watts": float(sc.params.p_s1),
        "p_s2_watts": float(sc.params.p_s2),
        "sigma_s1_sq_watts": float(sc.params.sigma_s1_sq),
        "sigma_s2_sq_watts": float(sc.params.sigma_s2_sq),
        "sigma_relay_watts": [float(v) for v in sc.params.sigma_relay],
        "budget": budget,
        "channel_variance": float(sc.channel_variance),
        "grid": {"values": [float(v) for v in sc.grid]},
        "realizations": sc.realizations,
        "seed": sc.seed,
        "epsilon_bits": float(sc.epsilon_bits),
        "rand_candidates": sc.rand_candidates,
    }


def _region_dict(res: RegionResult) -> dict:
    doc: dict = {
        "solver": res.solver,
        "grid": [float(g) for g in res.grid],
        "r1_mean": [float(v) for v in res.means[:, 0]],
        "r2_mean": [float(v) for v in res.means[:, 1]],
        "n_success": [int(n) for n in res.n_success],
        "hull": [[float(x), float(y)] for x, y in res.hull],
    }
    if res.randomized is not None:
        doc["randomized"] = _region_dict(res.randomized)
    return doc


def region_csv_text(res: RegionResult) -> str:
    """One CSV row per kept grid point: grid_value,r1_mean,r2_mean,n_success.

    Floats are written with repr so identical runs emit identical bytes.
    """
    lines = ["grid_value,r1_mean,r2_mean,n_success"]
    for g, (r1, r2), n in zip(res.grid, res.means, res.n_success):
        lines.append(f"{float(g)!r},{float(r1)!r},{float(r2)!r},{int(n)}")
    return "\n".join(lines) + "\n"


def region_json_text(sc: Scenario, res: RegionResult) -> str:
    """Scenario provenance plus averaged points and hulls, as stable JSON."""
    doc = {
        "schema_version": 1,
        "scenario": scenario_to_dict(sc),
        "region": _region_dict(res),
    }
    return json.dumps(doc, indent=2) + "\n"
