"""scripts/output-drift.py: verdicts and exit codes on two small output trees."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output-drift.py"


def drift(*args):
    argv = [sys.executable, str(SCRIPT), *map(str, args)]
    run = subprocess.run(argv, capture_output=True, text=True)
    return run.returncode, run.stdout.splitlines()


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_reports_each_verdict_and_exit_code(tmp_path):
    csv = "kappa,r1\n0.5,1.25e-3\n0.6,2\n"
    base_files = {
        "same.code": "0\n",
        "region/region.csv": csv,
        "gone.out": "x\n",
        "check.out": "PASS\n",
    }
    base = write_tree(tmp_path / "base", base_files)
    new = write_tree(
        tmp_path / "new",
        {
            "same.code": "0\n",
            "region/region.csv": "kappa,r1\n0.5,1.2500001e-3\n0.6,2.5\n",
            "check.out": "FAIL\n",
        },
    )
    code, lines = drift(base, new)
    assert code == 1
    assert lines == [
        "text       check.out",
        "missing    gone.out  only in BASE",
        "numbers    region/region.csv  changed=2  max_abs=0.5",
        "identical  same.code",
    ]

    nudged = csv.replace("0.6,2\n", "0.6,2.000000001\n")
    numbers_only = write_tree(tmp_path / "numbers", {**base_files, "region/region.csv": nudged})
    assert drift(base, numbers_only)[0] == 0
    assert drift(base)[0] == 2
    assert drift(base, tmp_path / "absent")[0] == 2


def test_closed_stdout_keeps_the_verdict_exit_code(tmp_path):
    # A reader that went away (`| head`) must not turn "identical" into a
    # traceback and exit 1.
    files = {f"run{i:03d}.out": f"line {i}\n" for i in range(200)}
    base = write_tree(tmp_path / "base", files)
    new = write_tree(tmp_path / "new", files)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, str(SCRIPT), str(base), str(new)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 0
    assert "Traceback" not in run.stderr
