"""Command-line front end: scenario files in, region data and reports out.

Three subcommands: ``region`` runs a Monte Carlo region build and writes the
CSV/JSON outputs, ``solve`` reports one boundary beamformer for a fixed
channel realization, ``validate`` replays the oracle suites and writes a
machine-readable report; its checks import the scipy-backed oracles when they
run, so the other commands never load scipy. Exit codes: 0 success, 1
validation violation, 2 malformed scenario or flags, 3 solver failure beyond
the 1% sample budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    ScenarioError,
    SolverError,
    TwobeamError,
)
from .heuristics import greedy_phase_bf
from .model import (
    ChannelSet,
    IndividualPower,
    SumPower,
    SystemParams,
    rate_pair,
    relay_powers,
)
from .nonrecip import (
    algorithm1_sum_power,
    algorithm2_individual,
    profile_rate,
    rank_one_reduce,
    randomize_rank_one,
    snr_targets,
)
from .recip import (
    broadcast_params_indiv,
    broadcast_params_sum,
    individual_power_beamformer,
    local_weight_indiv,
    local_weight_sum,
    sum_power_beamformer,
    wsismin_individual,
    wsismin_sum_power,
)
from .region import (
    Scenario,
    build_region,
    closed_hull,
    convex_hull,
    default_grid,
    draw_channels,
    points_expansion,
    region_contains,
    region_csv_text,
    region_json_text,
    sample_channels,
)
from .sdp import SdpProblem, SdpStatus, solve_feasibility, solve_min_trace

__all__ = ["main", "build_parser", "scenario_from_dict", "load_scenario"]

_FAILURE_BUDGET = 0.01


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(name, "must be an integer")
    return value


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(name, "must be a number")
    return float(value)


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(name, "must be true or false")
    return value


def _as_number_list(value, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(name, "must be a non-empty list of numbers")
    return [_as_number(v, name) for v in value]


def _get(doc: dict, name: str, parse=None):
    """Required field ``name``, looked up in ``doc`` by its last dotted part and
    checked by ``parse(value, name)`` when given."""
    key = name.rpartition(".")[2]
    if key not in doc:
        raise ScenarioError(name, "missing required field")
    return doc[key] if parse is None else parse(doc[key], name)


# Optional scenario fields and their parsers; an absent one keeps Scenario's default.
_OPTIONAL = (
    ("channel_variance", _as_number),
    ("epsilon_bits", _as_number),
    ("rand_candidates", _as_int),
)

# Each override flag of ``region`` and the scenario field it replaces.
_OVERRIDES = (
    ("seed", "seed"), ("realizations", "realizations"), ("epsilon", "epsilon_bits"),
    ("rand_candidates", "rand_candidates"), ("grid_step", "grid"),
)


def scenario_from_dict(doc) -> Scenario:
    """Builds a Scenario from a parsed scenario document.

    Raises ScenarioError naming the offending field on any shape or value
    problem, so the CLI can report it and exit with code 2.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("document", "must be a JSON object")
    version = _get(doc, "schema_version", _as_int)
    if version != 1:
        raise ScenarioError("schema_version", f"unsupported version {version}")
    k = _get(doc, "k", _as_int)
    reciprocal = _get(doc, "reciprocal", _as_bool)
    sigma_raw = _get(doc, "sigma_relay_watts")
    if isinstance(sigma_raw, list):
        sigma_relay = np.array(_as_number_list(sigma_raw, "sigma_relay_watts"))
    else:
        sigma_relay = np.full(max(k, 1), _as_number(sigma_raw, "sigma_relay_watts"))
    budget_doc = _get(doc, "budget")
    if not isinstance(budget_doc, dict):
        raise ScenarioError("budget", "must be an object with a 'kind'")
    kind = budget_doc.get("kind")
    try:
        if kind == "sum":
            budget = SumPower(p_r=_get(budget_doc, "budget.p_r_watts", _as_number))
        elif kind == "individual":
            budget = IndividualPower(p=_get(budget_doc, "budget.p_watts", _as_number_list))
        else:
            raise ScenarioError("budget.kind", "must be 'sum' or 'individual'")
    except (DomainError, DimensionMismatchError) as exc:
        raise ScenarioError("budget", str(exc)) from exc
    grid_doc = doc.get("grid", {"step": 0.05})
    if not isinstance(grid_doc, dict) or ("step" in grid_doc) == ("values" in grid_doc):
        raise ScenarioError("grid", "must contain exactly one of 'step' or 'values'")
    try:
        if "step" in grid_doc:
            grid = default_grid(_as_number(grid_doc["step"], "grid.step"))
        else:
            grid = np.array(_as_number_list(grid_doc["values"], "grid.values"))
    except DomainError as exc:
        raise ScenarioError("grid.step", str(exc)) from exc
    try:
        params = SystemParams(
            p_s1=_get(doc, "p_s1_watts", _as_number),
            p_s2=_get(doc, "p_s2_watts", _as_number),
            sigma_relay=sigma_relay,
            sigma_s1_sq=_get(doc, "sigma_s1_sq_watts", _as_number),
            sigma_s2_sq=_get(doc, "sigma_s2_sq_watts", _as_number),
        )
        return Scenario(
            k=k,
            params=params,
            budget=budget,
            reciprocal=reciprocal,
            grid=grid,
            realizations=_get(doc, "realizations", _as_int),
            seed=_get(doc, "seed", _as_int),
            **{name: parse(doc[name], name) for name, parse in _OPTIONAL if name in doc},
        )
    except (DomainError, DimensionMismatchError) as exc:
        raise ScenarioError("scenario", str(exc)) from exc


def load_scenario(path: str) -> Scenario:
    """Reads and validates a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError("file", str(exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("file", f"not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def _apply_overrides(sc: Scenario, args: argparse.Namespace) -> Scenario:
    given = ((name, getattr(args, flag, None)) for flag, name in _OVERRIDES)
    updates = {name: value for name, value in given if value is not None}
    try:
        if "grid" in updates:
            updates["grid"] = default_grid(updates["grid"])
        return replace(sc, **updates) if updates else sc
    except (DomainError, DimensionMismatchError) as exc:
        raise ScenarioError("flags", str(exc)) from exc


def _out_dir(value: str) -> Path:
    """The ``--out`` directory, rejected before any work when it is, or lies
    under, an existing non-directory."""
    out = Path(value)
    for part in (out, *out.parents):
        if part.exists() and not part.is_dir():
            raise ScenarioError("flags", f"--out: {part} exists and is not a directory")
    return out


def cmd_region(args: argparse.Namespace) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    out = _out_dir(args.out)
    try:
        res = build_region(sc)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    attempted = sc.realizations * sc.grid.size
    failures = attempted - int(res.n_success.sum())
    if failures > _FAILURE_BUDGET * attempted:
        print(
            f"error: {failures} of {attempted} samples failed,"
            f" exceeding the {_FAILURE_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        return 3
    out.mkdir(parents=True, exist_ok=True)
    wrote = [out / "region.csv", out / "region.json"]
    wrote[0].write_text(region_csv_text(res))
    wrote[1].write_text(region_json_text(sc, res))
    if res.randomized is not None:
        path = out / "region_randomized.csv"
        path.write_text(region_csv_text(res.randomized))
        wrote.append(path)
    best = int(np.argmax(res.means.sum(axis=1)))
    print(f"solver: {res.solver}")
    print(f"boundary points: {res.grid.size} of {sc.grid.size} grid values")
    print(f"hull vertices: {res.hull.shape[0]}")
    print(
        f"max sum-rate point: r1={float(res.means[best, 0])!r}"
        f" r2={float(res.means[best, 1])!r} at grid value {float(res.grid[best])!r}"
    )
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _solve_reciprocal(sc: Scenario, ch, mu: float):
    if isinstance(sc.budget, SumPower):
        sol = wsismin_sum_power(ch, sc.params, sc.budget.p_r, mu)
        w = sum_power_beamformer(ch, sol)
        scalars, label = broadcast_params_sum(sol), "xi over weighted norm"
    else:
        sol = wsismin_individual(ch, sc.params, sc.budget.p, mu)
        w = individual_power_beamformer(ch, sc.params, sc.budget.p, sol)
        scalars, label = broadcast_params_indiv(sol), "water level"
    return w, [f"broadcast mu: {float(scalars[0])!r}", f"broadcast {label}: {float(scalars[1])!r}"]


def _solve_nonreciprocal(sc: Scenario, ch, kappa: float):
    if isinstance(sc.budget, SumPower):
        r_sum, x_best = algorithm1_sum_power(ch, sc.params, sc.budget.p_r, kappa, sc.epsilon_bits)
        gamma1, gamma2 = snr_targets(kappa, r_sum)
        result = rank_one_reduce(x_best, ch, sc.params, gamma1, gamma2)
        how = "exact rank-one reduction"
        if result.source.fallback:
            how += " (dominant-eigenvector fallback)"
    else:
        r_sum, x_best = algorithm2_individual(ch, sc.params, sc.budget.p, kappa, sc.epsilon_bits)
        gamma1, gamma2 = snr_targets(kappa, r_sum)
        result = randomize_rank_one(
            x_best,
            ch,
            sc.params,
            gamma1,
            gamma2,
            num_candidates=sc.rand_candidates,
            seed=np.random.SeedSequence(sc.seed).spawn(1)[0],
        )
        how = (
            f"randomized extraction over {result.source.num_candidates} candidates,"
            f" selected violation {float(result.source.best_violation)!r}"
        )
    lines = [
        f"profile kappa: {float(kappa)!r}",
        f"relaxed sum rate: {float(r_sum)!r} bits",
        f"achieved profile rate: {float(profile_rate(result.rates, kappa))!r} bits",
        f"extraction: {how}",
    ]
    return result.w, lines


def cmd_solve(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    kind = "reciprocal" if sc.reciprocal else "non-reciprocal"
    flag, other = ("mu", "kappa") if sc.reciprocal else ("kappa", "mu")
    weight = getattr(args, flag)
    if weight is None or getattr(args, other) is not None:
        print(f"error: {kind} scenarios take --{flag}, not --{other}", file=sys.stderr)
        return 2
    if not 0.0 <= weight <= 1.0:
        print("error: the sweep weight must lie in [0, 1]", file=sys.stderr)
        return 2
    seed = args.realization_seed if args.realization_seed is not None else sc.seed
    if seed < 0:
        raise ScenarioError("flags", "realization seed must be nonnegative")
    ch = sample_channels(sc, seed)
    solve = _solve_reciprocal if sc.reciprocal else _solve_nonreciprocal
    w, extra = solve(sc, ch, weight)
    rates = rate_pair(ch, sc.params, w)
    powers = relay_powers(ch, sc.params, w)
    print(f"channel realization seed: {seed}")
    for i in range(sc.k):
        print(f"w[{i}] = {complex(w.w[i])!r}  power {float(powers[i])!r} W")
    print(f"total relay power: {float(powers.sum())!r} W")
    if isinstance(sc.budget, SumPower):
        ok = float(powers.sum()) <= sc.budget.p_r * (1.0 + 1e-9)
        print(f"budget check (sum <= {sc.budget.p_r!r} W): {'ok' if ok else 'VIOLATED'}")
    else:
        ok = bool(np.all(powers <= sc.budget.p * (1.0 + 1e-9)))
        print(f"budget check (per-relay caps): {'ok' if ok else 'VIOLATED'}")
    print(f"rates: r1={rates.r1!r} r2={rates.r2!r} bits/channel use")
    for line in extra:
        print(line)
    return 0 if ok else 1


def _spawned_rng(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(label + 1)[label])


def _unit_params(k: int) -> SystemParams:
    return SystemParams(
        p_s1=1.0, p_s2=1.0, sigma_relay=np.ones(k), sigma_s1_sq=1.0, sigma_s2_sq=1.0
    )


def _sum_power_sweep_hull(ch: ChannelSet, sp: SystemParams) -> np.ndarray:
    """Closed hull of the 10 W closed-form sweep of a reciprocal channel."""
    pts = []
    for mu in default_grid(0.02):
        sol = wsismin_sum_power(ch, sp, 10.0, float(mu))
        r = rate_pair(ch, sp, sum_power_beamformer(ch, sol))
        pts.append([r.r1, r.r2])
    return closed_hull(np.array(pts))


def _check_recip_grid_optimality(seed: int) -> tuple[bool, dict]:
    from .oracle import best_wsis_grid, wsis_objective

    rng = _spawned_rng(seed, 0)
    worst = -np.inf
    counterexample = None
    for trial in range(3):
        ch = draw_channels(rng, 2, True)
        sp = _unit_params(2)
        mu = float(rng.uniform(0.1, 0.9))
        sol = wsismin_sum_power(ch, sp, 10.0, mu)
        closed = wsis_objective(ch, sp, mu, sol.x)
        grid_obj, _ = best_wsis_grid(ch, sp, SumPower(10.0), mu, 200)
        gap = closed - grid_obj
        if gap > worst:
            worst = gap
            counterexample = {"trial": trial, "mu": mu, "closed": closed, "grid": grid_obj}
    return bool(worst <= 1e-9), {"worst_gap": worst, "at": counterexample}


def _check_recip_hull_containment(seed: int) -> tuple[bool, dict]:
    from .oracle import random_beamformer_cloud

    rng = _spawned_rng(seed, 1)
    ch = draw_channels(rng, 3, True)
    sp = _unit_params(3)
    hull = _sum_power_sweep_hull(ch, sp)
    cloud = random_beamformer_cloud(ch, sp, SumPower(10.0), 2000, seed=seed, matched_phases=True)
    cloud_pts = np.array([[r.r1, r.r2] for _, r in cloud])
    expansion = points_expansion(hull, cloud_pts)
    return bool(expansion <= 1e-6), {"expansion_bits": expansion, "samples": 2000}


def _check_recip_local_reassembly(seed: int) -> tuple[bool, dict]:
    rng = _spawned_rng(seed, 2)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 6))
        ch = draw_channels(rng, k, True)
        sp = _unit_params(k)
        mu = float(rng.uniform(0.0, 1.0))
        sol = wsismin_sum_power(ch, sp, 10.0, mu)
        w = sum_power_beamformer(ch, sol)
        local = np.array(
            [
                local_weight_sum(ch.h1[i], ch.h2[i], sp, 10.0, *broadcast_params_sum(sol))
                for i in range(k)
            ]
        )
        worst = max(worst, float(np.max(np.abs(local - w.w))))
        p = rng.uniform(0.5, 3.0, k)
        sol_i = wsismin_individual(ch, sp, p, mu)
        w_i = individual_power_beamformer(ch, sp, p, sol_i)
        local_i = np.array(
            [
                local_weight_indiv(
                    ch.h1[i], ch.h2[i], sp, float(p[i]), *broadcast_params_indiv(sol_i)
                )
                for i in range(k)
            ]
        )
        worst = max(worst, float(np.max(np.abs(local_i - w_i.w))))
    return bool(worst <= 1e-12), {"worst_abs_error": worst, "instances": 20}


def _check_nonrecip_sdr_exactness(seed: int) -> tuple[bool, dict]:
    rng = _spawned_rng(seed, 3)
    worst = -np.inf
    counterexample = None
    for trial in range(3):
        ch = draw_channels(rng, 3, False)
        sp = _unit_params(3)
        kappa = float(rng.choice([0.25, 0.5, 0.75]))
        r_sum, x_best = algorithm1_sum_power(ch, sp, 10.0, kappa)
        gamma1, gamma2 = snr_targets(kappa, r_sum)
        result = rank_one_reduce(x_best, ch, sp, gamma1, gamma2)
        gap = abs(profile_rate(result.rates, kappa) - r_sum)
        if gap > worst:
            worst = gap
            counterexample = {"trial": trial, "kappa": kappa, "relaxed": r_sum}
    return bool(worst <= 2e-4), {"worst_gap_bits": worst, "at": counterexample}


def _check_nonrecip_budget_ordering(seed: int) -> tuple[bool, dict]:
    rng = _spawned_rng(seed, 4)
    ch = draw_channels(rng, 3, False)
    sp = _unit_params(3)
    caps = np.array([4.0, 2.0, 4.0])
    r_ind, _ = algorithm2_individual(ch, sp, caps, 0.5)
    r_sum, _ = algorithm1_sum_power(ch, sp, float(caps.sum()), 0.5)
    return bool(r_ind <= r_sum + 2e-4), {"individual": r_ind, "sum": r_sum}


def _check_nonrecip_endpoint_consistency(seed: int) -> tuple[bool, dict]:
    rng = _spawned_rng(seed, 5)
    ch = draw_channels(rng, 3, True)
    sp = _unit_params(3)
    sol = wsismin_sum_power(ch, sp, 10.0, 1.0)
    r_closed = rate_pair(ch, sp, sum_power_beamformer(ch, sol)).r1
    r_sdp, _ = algorithm1_sum_power(ch, sp, 10.0, 1.0)
    gap = abs(r_closed - r_sdp)
    return bool(gap <= 1e-3), {"closed_form": r_closed, "bisection": r_sdp, "gap_bits": gap}


def _random_sdr_problem(rng: np.random.Generator, k: int, with_caps: bool) -> SdpProblem:
    cons = []
    for _ in range(int(rng.integers(1, 4))):
        f = rng.normal(size=k) + 1j * rng.normal(size=k)
        a = np.outer(f.conj(), f) + rng.uniform(0.3, 2.0) * np.eye(k)
        cons.append((0.5 * (a + a.conj().T), float(rng.uniform(0.3, 2.0))))
    c = np.diag(rng.uniform(0.5, 3.0, size=k)).astype(np.complex128)
    caps = rng.uniform(0.4, 3.0, size=k) if with_caps else None
    return SdpProblem(dimension=k, objective=c, constraints=tuple(cons), caps=caps)


def _check_sdp_certificates(seed: int) -> tuple[bool, dict]:
    from .oracle import min_trace_descent

    rng = _spawned_rng(seed, 6)
    failures = []
    for trial in range(20):
        prob = _random_sdr_problem(rng, 3, with_caps=(trial % 2 == 1))
        sol = solve_min_trace(prob)
        ok = (
            sol.status is SdpStatus.OPTIMAL
            and sol.duality_gap <= 1e-7
            and sol.max_violation <= 1e-8
        )
        if ok:
            oracle_obj, _ = min_trace_descent(
                prob.objective, prob.constraints, prob.caps, restarts=4, seed=trial
            )
            ok = abs(sol.objective - oracle_obj) <= 1e-4 * max(1.0, abs(oracle_obj))
        if not ok:
            failures.append(
                {
                    "trial": trial,
                    "status": sol.status.name,
                    "duality_gap": sol.duality_gap,
                    "max_violation": sol.max_violation,
                }
            )
    return not failures, {"instances": 20, "failures": failures}


def _check_sdp_feasibility_verdicts(seed: int) -> tuple[bool, dict]:
    from .oracle import feasibility_descent

    rng = _spawned_rng(seed, 7)
    disagreements = []
    checked = 0
    for trial in range(10):
        prob = _random_sdr_problem(rng, 3, with_caps=True)
        sol = solve_feasibility(replace(prob, objective=None))
        verdict = sol.status is SdpStatus.OPTIMAL
        oracle_verdict, _ = feasibility_descent(prob.constraints, prob.caps, restarts=6, seed=trial)
        # Skip razor-edge margins where both sides sit at their tolerance.
        if abs(sol.objective) < 1e-4:
            continue
        checked += 1
        if verdict != oracle_verdict:
            disagreements.append({"trial": trial, "solver": verdict, "oracle": oracle_verdict})
    return not disagreements and checked >= 5, {"checked": checked, "disagreements": disagreements}


def _check_region_hull_oracle(seed: int) -> tuple[bool, dict]:
    from .oracle import hull_bruteforce

    rng = _spawned_rng(seed, 8)
    mismatches = 0
    for _ in range(5):
        pts = rng.uniform(0.0, 1.0, size=(200, 2))
        fast = convex_hull(pts)
        slow = hull_bruteforce(pts)
        if fast.shape != slow.shape or not np.array_equal(fast, slow):
            mismatches += 1
    return mismatches == 0, {"clouds": 5, "mismatches": mismatches}


def _check_region_build_reproducible(seed: int) -> tuple[bool, dict]:
    sc = Scenario(
        k=2,
        params=_unit_params(2),
        budget=SumPower(10.0),
        reciprocal=True,
        grid=default_grid(0.1),
        realizations=3,
        seed=seed,
    )
    first = build_region(sc)
    second = build_region(sc)
    identical = region_csv_text(first) == region_csv_text(second)
    self_contained = region_contains(first, first, 0.0).contains
    details = {"identical": identical, "self_contained": self_contained}
    return bool(identical and self_contained), details


def _check_region_heuristics_inside(seed: int) -> tuple[bool, dict]:
    rng = _spawned_rng(seed, 9)
    ch = draw_channels(rng, 3, True)
    sp = _unit_params(3)
    hull = _sum_power_sweep_hull(ch, sp)
    r = rate_pair(ch, sp, greedy_phase_bf(ch, sp, SumPower(10.0)))
    expansion = points_expansion(hull, np.array([[r.r1, r.r2]]))
    return bool(expansion <= 1e-6), {"expansion_bits": expansion}


_SUITES: dict[str, list] = {
    "recip": [
        ("recip-closed-form-beats-grid", _check_recip_grid_optimality),
        ("recip-sweep-hull-contains-cloud", _check_recip_hull_containment),
        ("recip-local-rules-rebuild-beamformers", _check_recip_local_reassembly),
    ],
    "nonrecip": [
        ("nonrecip-rank-one-matches-relaxation", _check_nonrecip_sdr_exactness),
        ("nonrecip-caps-never-beat-pooled-budget", _check_nonrecip_budget_ordering),
        ("nonrecip-one-way-endpoint-matches-closed-form", _check_nonrecip_endpoint_consistency),
    ],
    "sdp": [
        ("sdp-certified-optima-match-descent-oracle", _check_sdp_certificates),
        ("sdp-feasibility-agrees-with-descent-oracle", _check_sdp_feasibility_verdicts),
    ],
    "region": [
        ("region-hull-matches-bruteforce", _check_region_hull_oracle),
        ("region-build-deterministic-and-self-contained", _check_region_build_reproducible),
        ("region-heuristic-point-inside-optimal-region", _check_region_heuristics_inside),
    ],
}
_SUITES["all"] = [pair for name in ("recip", "nonrecip", "sdp", "region") for pair in _SUITES[name]]


def cmd_validate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ScenarioError("flags", "seed must be nonnegative")
    out = _out_dir(args.out)
    checks = []
    for name, check in _SUITES[args.suite]:
        passed, details = check(args.seed)
        checks.append({"name": name, "passed": passed, "details": {**details, "seed": args.seed}})
    passed = all(c["passed"] for c in checks)
    report = {
        "schema_version": 1,
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "checks": checks,
    }
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"validation_{args.suite}.json"
    path.write_text(json.dumps(report, indent=2, default=float) + "\n")
    for check in checks:
        print(f"{'pass' if check['passed'] else 'FAIL'}  {check['name']}")
        if not check["passed"]:
            print(f"      counterexample: {json.dumps(check['details'], default=float)}")
    print(f"wrote {path}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobeam",
        description="Collaborative beamforming rate regions for two-way relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="build a Monte Carlo rate region from a scenario")
    p_region.add_argument("scenario", help="path to a scenario JSON file")
    p_region.add_argument("--out", default=".", help="output directory (default: current)")
    p_region.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_region.add_argument(
        "--grid-step", type=float, default=None, help="override the sweep grid with this step"
    )
    p_region.add_argument(
        "--realizations", type=int, default=None, help="override the realization count"
    )
    p_region.add_argument(
        "--epsilon", type=float, default=None, help="override the bisection gap in bits"
    )
    p_region.add_argument(
        "--rand-candidates", type=int, default=None, help="override the randomization count"
    )
    p_region.set_defaults(func=cmd_region)

    p_solve = sub.add_parser("solve", help="solve one boundary point for a fixed realization")
    p_solve.add_argument("scenario", help="path to a scenario JSON file")
    p_solve.add_argument("--mu", type=float, default=None, help="WSISMin weight (reciprocal)")
    p_solve.add_argument(
        "--kappa", type=float, default=None, help="rate-profile fraction (non-reciprocal)"
    )
    p_solve.add_argument(
        "--realization-seed",
        type=int,
        default=None,
        help="channel draw seed (default: scenario seed)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate", help="run an oracle suite and write a report")
    p_val.add_argument("suite", choices=sorted(_SUITES))
    p_val.add_argument("--seed", type=int, default=0, help="seed for the generated instances")
    p_val.add_argument("--out", default=".", help="report directory (default: current)")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwobeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
