"""Tests of the benchmark itself: metric names and units, output checks, bare runs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    if not trace:
        for name in ("points_per_s", "solve_ms_p50", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0.0


@pytest.fixture(scope="module")
def cli():
    return run._import_twobeam()


def test_corrupted_region_rate_fails_the_reference_check(cli, tmp_path):
    wl = workloads.WORKLOADS["recip-region"]
    wl.prepare(tmp_path)
    reference = workloads.load_reference(wl.name, workloads.DEFAULT_SEED, tiny=False)
    req = wl.request(0, workloads.DEFAULT_SEED, tmp_path, tiny=False)
    _, code, stdout = run.invoke(cli, req.argv)
    csv = tmp_path / wl.name / "region.csv"
    outputs = {p: p.read_text() for p in csv.parent.iterdir()}
    outcome, _ = wl.check(req, code, stdout, tmp_path, reference)
    assert outcome.failed == 0 and not outcome.check_failed

    lines = outputs[csv].splitlines()
    g, r1, r2, n = lines[3].split(",")
    lines[3] = ",".join([g, repr(float(r1) + 2.0 * req.scenario.get("epsilon_bits", 1e-4)), r2, n])
    outputs[csv] = "\n".join(lines) + "\n"
    for path, text in outputs.items():
        path.write_text(text)
    outcome, _ = wl.check(req, code, stdout, tmp_path, reference)
    assert outcome.check_failed
    assert outcome.failed == int(n)
    assert outcome.reasons == {"rate differs from reference": int(n)}

    outcome, _ = wl.check(req, code, stdout, tmp_path, reference)
    assert outcome.check_failed and outcome.failed == req.points
    assert "unreadable output: FileNotFoundError" in outcome.reasons


def test_corrupted_solve_rate_fails_the_invariants(cli, tmp_path):
    wl = workloads.WORKLOADS["nonrecip-solve"]
    wl.prepare(tmp_path)
    req = wl.request(0, workloads.DEFAULT_SEED, tmp_path, tiny=False)
    assert req.scenario["budget"]["kind"] == "sum"
    _, code, stdout = run.invoke(cli, req.argv)
    outcome, detail = wl.check(req, code, stdout, tmp_path, None)
    assert outcome.failed == 0 and not outcome.check_failed

    relaxed = f"relaxed sum rate: {detail['relaxed']!r} bits"
    corrupted = stdout.replace(relaxed, f"relaxed sum rate: {detail['relaxed'] + 0.01!r} bits")
    assert corrupted != stdout
    outcome, _ = wl.check(req, code, corrupted, tmp_path, None)
    assert outcome.check_failed
    assert "rank-one profile rate below relaxed rate" in outcome.reasons


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "recip-region", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
