"""twobeam benchmark: region throughput and single-solve latency.

Usage (from the repository root):

    python3 perfbench/run.py --workload recip-region --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Each run drives the public CLI entry point ``twobeam.cli.main`` in-process,
one request at a time (a closed loop with one client), for ``--seconds``
seconds, and checks every output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every request twice, untraced and traced, and
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads; child processes inherit it.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
SETUP_REPEATS = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_twobeam():
    """Imports twobeam from this checkout's src/ and nowhere else."""
    if not (SRC / "twobeam" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        _fail(f"no twobeam sources under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import twobeam.cli

    if Path(twobeam.cli.__file__).resolve().parent != (SRC / "twobeam").resolve():
        _fail(f"imported twobeam from {twobeam.cli.__file__}, not from {SRC}")
    return twobeam.cli


def invoke(cli, argv, root=None) -> tuple[float, object, str]:
    """Runs one CLI request; returns (seconds, exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = root(cli.main, list(argv)) if root else cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001 - any crash is a failed request
            code = f"crash {type(exc).__name__}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


def measure_setup(paths) -> list[float]:
    """Wall time of fresh interpreters that import twobeam and load the scenarios."""
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from twobeam.cli import load_scenario\n"
              "for p in sys.argv[2:]: load_scenario(p)\n")
    argv = [sys.executable, "-c", script, str(SRC), *map(str, paths)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, pct).

    Below 21 samples no percentile at or above the median qualifies, and the
    maximum is reported as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def provenance(workload, args, requests) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    scenarios = {}
    for req in requests[: workload.cycle]:
        scenarios[req.label] = {k: v for k, v in req.scenario.items() if k != "seed"}
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "scenarios": scenarios,
    }


def run(args) -> dict:
    cli = _import_twobeam()
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        return _measure(cli, workload, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(cli, workload, work: Path, args) -> dict:
    workload.prepare(work)
    reference = workloads.load_reference(workload.name, args.seed, args.tiny)
    setup = measure_setup(workload.scenario_paths(work))

    tracer = Tracer() if args.trace else None
    latencies, traced_s, untraced_s = [], 0.0, 0.0
    attempted = failed = points_done = points_traced = 0
    check_failed = False
    reasons: Counter = Counter()
    labels: Counter = Counter()
    requests = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < workload.cycle or time.perf_counter() < deadline:
        req = workload.request(i, args.seed, work, args.tiny)
        requests.append(req)
        labels[req.label] += 1
        # A traced run repeats each request under tracing, on the same inputs.
        for tr in (None, tracer) if tracer else (None,):
            if tr is None:
                elapsed, code, stdout = invoke(cli, req.argv)
            else:
                with tr.installed(i) as root:
                    elapsed, code, stdout = invoke(cli, req.argv, root)
            outcome, _ = workload.check(req, code, stdout, work, reference)
            attempted += outcome.attempted
            failed += outcome.failed
            reasons.update(outcome.reasons)
            check_failed = check_failed or outcome.check_failed
            if tr is None:
                latencies.append(elapsed)
                untraced_s += elapsed
                points_done += outcome.attempted - outcome.failed
            else:
                traced_s += elapsed
                points_traced += req.points
        i += 1

    if tracer is None:
        metrics: dict[str, tuple[float, str, int]] = {}
        tail_ms, tail_pct = tail(latencies)
        n = len(latencies)
        metrics["points_per_s"] = (points_done / untraced_s, "1/s", n)
        metrics["solve_ms_p50"] = (1e3 * statistics.median(latencies), "ms", n)
        metrics["solve_ms_tail"] = (1e3 * tail_ms, "ms", n)
        metrics["success_share"] = (1.0 - failed / attempted, "share", attempted)
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
        by_kind: dict[str, list[float]] = {}
        for req, t in zip(requests, latencies):
            by_kind.setdefault(req.label, []).append(t)
        extra = {
            "solve_ms_tail_percentile": tail_pct,
            "latency_ms_p50_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
            "latencies_ms": [round(1e3 * t, 3) for t in latencies],
        }
    else:
        metrics = layer_metrics(tracer, points_traced, traced_s, untraced_s)
        extra = {"spans": len(tracer.spans)}
        tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.json")
    return {
        "correct": not check_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "requests": len(requests),
        "requests_by_kind": dict(labels),
        "failure_reasons": dict(reasons),
        "failed_share": failed / attempted,
        "provenance": provenance(workload, args, requests),
        **extra,
    }


def report(result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}"
          f"  requests {result['requests']} {result['requests_by_kind']}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit:12s} n={n}")
    if "solve_ms_tail_percentile" in result:
        print(f"  solve_ms_tail is the p{result['solve_ms_tail_percentile']:.0f} latency")
    print(f"  failed_share {result['failed_share']:.6g} ({result['failed']} of"
          f" {result['attempted']} points)  reasons {result['failure_reasons']}")
    print(f"  output checks {'passed' if result['correct'] else 'FAILED'}")
    print("provenance: " + json.dumps(prov, sort_keys=True))


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Runs every workload in its own interpreter and prints one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            _fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="recip-region, nonrecip-sum-region, nonrecip-caps-region,"
                             " nonrecip-solve, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="coarse grid and few realizations, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run(args)
    report(result)
    path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "metrics": {
        k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in result["metrics"].items()
    }}, indent=2) + "\n")
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
