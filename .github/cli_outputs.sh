#!/usr/bin/env bash
# Writes the byte-stable CLI output set under the absolute directory $1,
# using the pcdoa package that PYTHONPATH points to.
set -euo pipefail
out="$1"
python -m pcdoa.cli estimate --config experiment --out "$out/estimate"
python -m pcdoa.cli montecarlo --config fig6a --trials 2 --seed 7 --out "$out/montecarlo"
# fig6b's and fig5b's close pairs reach the shared-displacement fit; the
# montecarlo sidecar holds no fit result, the estimate sidecar holds its
# amplitudes, final cost, iterations and stop reason.
python -m pcdoa.cli montecarlo --config fig6b --trials 1 --seed 7 --out "$out/montecarlo_b"
python -m pcdoa.cli estimate --config fig5b --out "$out/estimate_b"
python -m pcdoa.cli synth --config fig5a --out "$out/synth"
# From inside the run directory, so the sidecar's `inputs` path is the same in every run.
(cd "$out" && python -m pcdoa.cli ingest --config fig5a --add synth/snapshot.csv --out ingest)
python -m pcdoa.cli orthogonality --config fig3 --trials 2 --out "$out/orthogonality"
# fig4 is the random-layout sweep; with fig3 it covers both configs the
# separation_sweep benchmark workload times.
python -m pcdoa.cli orthogonality --config fig4 --trials 2 --out "$out/orthogonality_b"
python -m pcdoa.cli estimate --config experiment --estimator bss_mf --out "$out/estimate_mf"
python -m pcdoa.cli sweep --config fig6a --trials 1 --seed 7 --out "$out/sweep"
# An --snr-db override goes through `dataclasses.replace`, which checks and
# normalizes it like a value read from the config file.
python -m pcdoa.cli estimate --config fig5a --snr-db 25 --seed 3 --out "$out/estimate_override"
