#!/usr/bin/env bash
# Writes the byte-stable CLI output set under the absolute directory $1,
# using the pcdoa package that PYTHONPATH points to.
set -euo pipefail
out="$1"
python -m pcdoa.cli estimate --config experiment --out "$out/estimate"
python -m pcdoa.cli montecarlo --config fig6a --trials 2 --seed 7 --out "$out/montecarlo"
# fig6b's close pair is the only packaged run that reaches the shared-displacement fit.
python -m pcdoa.cli montecarlo --config fig6b --trials 1 --seed 7 --out "$out/montecarlo_b"
python -m pcdoa.cli synth --config fig5a --out "$out/synth"
# From inside the run directory, so the sidecar's `inputs` path is the same in every run.
(cd "$out" && python -m pcdoa.cli ingest --config fig5a --add synth/snapshot.csv --out ingest)
python -m pcdoa.cli orthogonality --config fig3 --trials 2 --out "$out/orthogonality"
python -m pcdoa.cli estimate --config experiment --estimator bss_mf --out "$out/estimate_mf"
