"""Regenerates perfbench/reference.json: the outputs the benchmark compares to.

Runs the first requests of every workload's schedule at the default seed and
stores, per request, the averaged rate pair of every grid point (region
workloads) or the relaxed sum rate and achieved profile rate (single
solves). Generate it once, at the commit the benchmark was defined on:

    python3 perfbench/make_reference.py

A regenerated reference only checks a program against itself.
"""

from __future__ import annotations

import json
import sys
import time

import run  # first: pins BLAS threads before numpy loads
import workloads

# Requests covered per workload; later requests are checked by invariants only.
COVERED = {
    "recip-region": 160,
    "nonrecip-sum-region": 24,
    "nonrecip-caps-region": 16,
    "nonrecip-solve": 24,
}


def main() -> int:
    cli = run._import_twobeam()
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, count in COVERED.items():
        wl = workloads.WORKLOADS[name]
        wl.prepare(run.WORK)
        entries = {}
        t0 = time.perf_counter()
        for i in range(count):
            req = wl.request(i, workloads.DEFAULT_SEED, run.WORK, False)
            _, code, stdout = run.invoke(cli, req.argv)
            outcome, detail = wl.check(req, code, stdout, run.WORK, None)
            if outcome.failed:
                print(f"{name} request {i} failed: {dict(outcome.reasons)}", file=sys.stderr)
                return 1
            entries[str(i)] = detail["rates"] if wl.kind == "region" else detail
        doc["workloads"][name] = entries
        print(f"{name}: {count} requests in {time.perf_counter() - t0:.1f} s", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
