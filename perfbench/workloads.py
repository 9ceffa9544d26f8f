"""Workloads of the twobeam benchmark: request schedules and output checks.

A workload is an endless, seeded schedule of CLI requests. Request ``i`` is
a fixed function of the workload seed and ``i``, so a run that completes
more requests sees a longer prefix of the same schedule. Every request is
one ``twobeam region`` or ``twobeam solve`` invocation, run in-process
through ``twobeam.cli.main``; its outputs are checked here before they
count as completed work.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHIPPED = ROOT / "scenarios"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The seed whose first requests reproduce the shipped scenarios, and the
# only seed the stored reference rates cover.
DEFAULT_SEED = 1
# Relative slack on power budgets, matching the CLI's own budget check.
POWER_RTOL = 1e-9
# Float noise allowed on top of epsilon_bits when comparing rates.
RATE_SLACK = 1e-12


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its outputs must satisfy."""

    index: int
    argv: tuple[str, ...]
    label: str
    points: int
    scenario: dict
    kappa: float | None = None
    realizations: int = 1


@dataclass
class Outcome:
    """Checked result of one request: points attempted and failed, and why."""

    attempted: int
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    # True when an output contradicted a check, as opposed to a failure the
    # program itself reported (an exit code or a dropped sample).
    check_failed: bool = False

    def fail(self, points: int, reason: str, *, check: bool) -> None:
        self.failed = min(self.attempted, self.failed + points)
        self.reasons[reason] += points
        self.check_failed = self.check_failed or check


def _round_seed(seed: int, r: int) -> int:
    """Scenario seed of schedule round ``r``: the workload seed itself first,
    so the default seed replays the shipped scenarios, then fresh draws."""
    if r == 0:
        return seed
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _load_doc(name: str) -> dict:
    return json.loads((SHIPPED / f"{name}.json").read_text())


class RegionWorkload:
    """``twobeam region`` on shipped scenarios, cycled in equal share.

    Each request builds one region at ``realizations`` channel draws and
    writes ``region.csv``, ``region.json`` and, for per-relay caps,
    ``region_randomized.csv``.
    """

    kind = "region"

    def __init__(self, name: str, scenarios: tuple[str, ...], realizations: int,
                 tiny_realizations: int):
        self.name = name
        self.scenarios = scenarios
        self.realizations = realizations
        self.tiny_realizations = tiny_realizations

    @property
    def cycle(self) -> int:
        return len(self.scenarios)

    def scenario_paths(self, work: Path) -> list[Path]:
        return [SHIPPED / f"{s}.json" for s in self.scenarios]

    def prepare(self, work: Path) -> None:
        (work / self.name).mkdir(parents=True, exist_ok=True)

    def request(self, i: int, seed: int, work: Path, tiny: bool) -> Request:
        name = self.scenarios[i % self.cycle]
        doc = _load_doc(name)
        n = self.tiny_realizations if tiny else self.realizations
        doc["seed"] = _round_seed(seed, i // self.cycle)
        doc["realizations"] = n
        if tiny:
            doc["grid"] = {"step": 0.5}
        argv = ["region", str(SHIPPED / f"{name}.json"), "--out", str(work / self.name),
                "--seed", str(doc["seed"]), "--realizations", str(n)]
        if tiny:
            argv += ["--grid-step", "0.5"]
        grid_size = int(round(1.0 / doc["grid"]["step"])) + 1
        return Request(i, tuple(argv), name, n * grid_size, doc, realizations=n)

    def check(self, req: Request, code, stdout: str, work: Path, reference) -> tuple[Outcome, dict]:
        out = Outcome(attempted=req.points)
        if code != 0:
            out.fail(req.points, f"exit {code}", check=False)
            return out, {}
        outdir = work / self.name
        grid_size = req.points // req.realizations
        want_grid = np.linspace(0.0, 1.0, grid_size)
        paths = [outdir / "region.csv", outdir / "region.json"]
        if req.scenario["budget"]["kind"] == "individual" and not req.scenario["reciprocal"]:
            paths.append(outdir / "region_randomized.csv")
        try:
            rows = parse_region_csv(paths[0].read_text())
            json_n_success = json.loads(paths[1].read_text())["region"]["n_success"]
            randomized = parse_region_csv(paths[2].read_text()) if len(paths) > 2 else None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.fail(req.points, f"unreadable output: {type(exc).__name__}", check=True)
            return out, {}
        finally:
            # The next request must write its own outputs, not pass on these.
            for path in paths:
                path.unlink(missing_ok=True)
        by_grid = {round(g, 12): (r1, r2, n) for g, r1, r2, n in rows}
        if json_n_success != [n for *_, n in rows]:
            out.fail(req.points, "region.json disagrees with region.csv", check=True)
            return out, {}
        eps = float(req.scenario.get("epsilon_bits", 1e-4)) + RATE_SLACK
        ref_rows = reference.get(req.index) if reference is not None else None
        rates = []
        for j, g in enumerate(want_grid):
            row = by_grid.get(round(float(g), 12))
            if row is None:
                out.fail(req.realizations, "missing n_success", check=False)
                rates.append(None)
                continue
            r1, r2, n = row
            rates.append([r1, r2])
            if n < req.realizations:
                out.fail(req.realizations - n, "missing n_success", check=False)
            if not (math.isfinite(r1) and math.isfinite(r2) and r1 >= 0.0 and r2 >= 0.0):
                out.fail(n, "non-finite or negative rate", check=True)
            elif ref_rows is not None and (
                abs(r1 - ref_rows[j][0]) > eps or abs(r2 - ref_rows[j][1]) > eps
            ):
                out.fail(n, "rate differs from reference", check=True)
        if randomized is not None and [round(r[0], 12) for r in randomized] != [
            round(r[0], 12) for r in rows
        ]:
            out.fail(req.points, "randomized grid disagrees with region.csv", check=True)
        return out, {"rates": rates}


class SolveWorkload:
    """Single-point ``twobeam solve`` requests on non-reciprocal channels.

    Request ``i`` uses K = 10 on even and K = 20 on odd requests, a pooled
    budget on requests 0 and 1 of every four and per-relay caps on the other
    two, a kappa drawn from the 0.1 grid and a fresh channel realization.
    """

    kind = "solve"
    name = "nonrecip-solve"
    sizes = (10, 20)
    budgets = ("nonreciprocal-sum", "nonreciprocal-individual")
    cycle = 4

    def _scenario_path(self, work: Path, base: str, k: int) -> Path:
        return work / self.name / f"{base}-k{k}.json"

    def scenario_doc(self, base: str, k: int) -> dict:
        doc = _load_doc(base)
        doc["k"] = k
        if doc["budget"]["kind"] == "individual":
            caps = doc["budget"]["p_watts"]
            doc["budget"]["p_watts"] = [caps[i % len(caps)] for i in range(k)]
        return doc

    def scenario_paths(self, work: Path) -> list[Path]:
        return [self._scenario_path(work, b, k) for b in self.budgets for k in self.sizes]

    def prepare(self, work: Path) -> None:
        (work / self.name).mkdir(parents=True, exist_ok=True)
        for base in self.budgets:
            for k in self.sizes:
                self._scenario_path(work, base, k).write_text(
                    json.dumps(self.scenario_doc(base, k), indent=2) + "\n")

    def request(self, i: int, seed: int, work: Path, tiny: bool) -> Request:
        k = self.sizes[i % 2]
        base = self.budgets[(i // 2) % 2]
        rng = np.random.default_rng([seed, i])
        kappa = float(np.linspace(0.0, 1.0, 11)[rng.integers(11)])
        realization = int(rng.integers(2**31))
        argv = ("solve", str(self._scenario_path(work, base, k)), "--kappa", repr(kappa),
                "--realization-seed", str(realization))
        label = f"k{k}-{'sum' if base.endswith('sum') else 'caps'}"
        return Request(i, argv, label, 1, self.scenario_doc(base, k), kappa=kappa)

    def check(self, req: Request, code, stdout: str, work: Path, reference) -> tuple[Outcome, dict]:
        out = Outcome(attempted=1)
        if code != 0:
            out.fail(1, f"exit {code}", check=False)
            return out, {}
        try:
            got = parse_solve_output(stdout)
        except ValueError as exc:
            out.fail(1, f"unreadable output: {exc}", check=True)
            return out, {}
        for reason in solve_violations(req, got, reference.get(req.index) if reference else None):
            out.fail(1, reason, check=True)
        return out, {"relaxed": got["relaxed"], "profile": got["profile"]}


def solve_violations(req: Request, got: dict, ref: dict | None) -> list[str]:
    """Invariants one non-reciprocal solve promises, plus the reference match."""
    sc = req.scenario
    eps = float(sc.get("epsilon_bits", 1e-4)) + RATE_SLACK
    kappa = req.kappa
    powers = np.array(got["powers"])
    values = [got["relaxed"], got["profile"], *got["rates"], *powers]
    if len(powers) != sc["k"] or not all(math.isfinite(v) for v in values):
        return ["non-finite or missing output"]
    bad = []
    if sc["budget"]["kind"] == "sum":
        if powers.sum() > sc["budget"]["p_r_watts"] * (1.0 + POWER_RTOL):
            bad.append("pooled budget exceeded")
        if got["profile"] < got["relaxed"] - eps:
            bad.append("rank-one profile rate below relaxed rate")
    else:
        if np.any(powers > np.array(sc["budget"]["p_watts"]) * (1.0 + POWER_RTOL)):
            bad.append("per-relay cap exceeded")
        if got["profile"] > got["relaxed"] + eps:
            bad.append("randomized profile rate above relaxed rate")
    r1, r2 = got["rates"]
    supported = min(r1 / kappa if kappa > 0 else math.inf,
                    r2 / (1.0 - kappa) if kappa < 1 else math.inf)
    if abs(supported - got["profile"]) > 1e-9 * (1.0 + abs(supported)):
        bad.append("profile rate disagrees with printed rates")
    if ref is not None:
        if abs(got["relaxed"] - ref["relaxed"]) > eps:
            bad.append("rate differs from reference")
        elif sc["budget"]["kind"] == "sum" and abs(got["profile"] - ref["profile"]) > eps:
            bad.append("rate differs from reference")
    return bad


def parse_region_csv(text: str) -> list[tuple[float, float, float, int]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "grid_value,r1_mean,r2_mean,n_success":
        raise ValueError("bad region.csv header")
    rows = []
    for line in lines[1:]:
        g, r1, r2, n = line.split(",")
        rows.append((float(g), float(r1), float(r2), int(n)))
    return rows


_POWER = re.compile(r"^w\[\d+\] = .*  power (\S+) W$")
_FIELDS = {
    "rates": re.compile(r"^rates: r1=(\S+) r2=(\S+) bits/channel use$"),
    "relaxed": re.compile(r"^relaxed sum rate: (\S+) bits$"),
    "profile": re.compile(r"^achieved profile rate: (\S+) bits$"),
}


def parse_solve_output(text: str) -> dict:
    got: dict = {"powers": []}
    for line in text.splitlines():
        m = _POWER.match(line)
        if m:
            got["powers"].append(float(m.group(1)))
            continue
        for key, pat in _FIELDS.items():
            m = pat.match(line)
            if m:
                vals = [float(v) for v in m.groups()]
                got[key] = vals if len(vals) > 1 else vals[0]
    missing = [k for k in _FIELDS if k not in got]
    if missing or not got["powers"]:
        raise ValueError(f"missing {', '.join(missing) or 'powers'}")
    return got


WORKLOADS = {
    "recip-region": RegionWorkload(
        "recip-region", ("reciprocal-sum", "reciprocal-individual"), 100, 2),
    "nonrecip-sum-region": RegionWorkload(
        "nonrecip-sum-region", ("nonreciprocal-sum",), 1, 1),
    "nonrecip-caps-region": RegionWorkload(
        "nonrecip-caps-region", ("nonreciprocal-individual",), 1, 1),
    "nonrecip-solve": SolveWorkload(),
}


def load_reference(workload: str, seed: int, tiny: bool) -> dict | None:
    """Reference outputs by request index, or None when the run has none."""
    if tiny or seed != DEFAULT_SEED:
        return None
    doc = json.loads(REFERENCE_PATH.read_text())
    entries = doc["workloads"].get(workload)
    return None if entries is None else {int(i): v for i, v in entries.items()}
