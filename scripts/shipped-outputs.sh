#!/usr/bin/env bash
# Writes every shipped output of the twobeam CLI into OUTDIR, so that
# `diff -r` of two runs (of one checkout twice, or of two checkouts) is the
# whole byte-identity check.
#
#   scripts/shipped-outputs.sh OUTDIR
#
# Each invocation NAME leaves NAME.out, NAME.err and NAME.code (stdout,
# stderr, exit code); `region` and `validate` also write their files under
# NAME/. Every captured stream has OUTDIR replaced by the literal word
# OUTDIR, so runs into different directories compare equal. The script
# exits non-zero only on its own errors, never because of a recorded exit
# code.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
for var in OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS BLIS_NUM_THREADS \
    VECLIB_MAXIMUM_THREADS NUMEXPR_NUM_THREADS; do
    export "$var=1"
done
scenarios=$repo/scenarios

# run NAME ARGS...: one CLI invocation, its streams and its exit code.
run() {
    local name=$1 code=0
    shift
    python3 -m twobeam.cli "$@" >"$out/$name.out" 2>"$out/$name.err" || code=$?
    echo "$code" >"$out/$name.code"
    sed -i "s|$out|OUTDIR|g" "$out/$name.out" "$out/$name.err"
}

for name in reciprocal-sum reciprocal-individual nonreciprocal-sum nonreciprocal-individual; do
    run "region-$name" region "$scenarios/$name.json" --out "$out/region-$name"
done
# The caps scenario with every power and noise variance scaled by 2^-20:
# each SNR is a ratio of such terms, so its region files must not change.
scaled=$out/nonreciprocal-individual-scaled.json
python3 - "$scenarios/nonreciprocal-individual.json" "$scaled" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    sc = json.load(f)
for key in ("p_s1_watts", "p_s2_watts", "sigma_s1_sq_watts", "sigma_s2_sq_watts",
            "sigma_relay_watts"):
    sc[key] *= 2.0**-20
sc["budget"]["p_watts"] = [p * 2.0**-20 for p in sc["budget"]["p_watts"]]
with open(sys.argv[2], "w") as f:
    json.dump(sc, f, indent=2)
PY
run region-nonreciprocal-individual-scaled region "$scaled" \
    --out "$out/region-nonreciprocal-individual-scaled"
for name in nonreciprocal-sum nonreciprocal-individual; do
    for kappa in 0 0.3 0.5 1; do
        run "solve-$name-kappa$kappa" solve "$scenarios/$name.json" --kappa "$kappa"
    done
done
for name in reciprocal-sum reciprocal-individual; do
    for mu in 0.3 0.5; do
        run "solve-$name-mu$mu" solve "$scenarios/$name.json" --mu "$mu"
    done
done
run validate-all validate all --seed 0 --out "$out/validate-all"

# Rejected flags: each must print one error line and exit 2.
recip=$scenarios/reciprocal-sum.json
nonrecip=$scenarios/nonreciprocal-sum.json
run flags-recip-none solve "$recip"
run flags-recip-kappa solve "$recip" --kappa 0.5
run flags-recip-both solve "$recip" --mu 0.5 --kappa 0.5
run flags-nonrecip-none solve "$nonrecip"
run flags-nonrecip-mu solve "$nonrecip" --mu 0.5
run flags-nonrecip-both solve "$nonrecip" --mu 0.5 --kappa 0.5
run flags-grid-step region "$recip" --grid-step 0.3 --out "$out/flags-grid-step"
run flags-realizations region "$recip" --realizations 0 --out "$out/flags-realizations"
run flags-seed region "$recip" --seed -1 --out "$out/flags-seed"
run flags-validate-seed validate all --seed -1 --out "$out/flags-validate-seed"
run flags-out-file region "$recip" --out "$out/flags-seed.code"
run flags-validate-out-file validate all --out "$out/flags-seed.code"
