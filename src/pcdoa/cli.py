"""Command-line front end.

`main` reads one config (a path, or the bare name of a packaged config
such as `fig6b`) and applies flag overrides. Each subcommand returns one
plot-ready table, its name and its sidecar entries, and `main` writes
every run the same way: `<name>.csv` and a JSON sidecar `<name>.json` in
`--out`, the sidecar adding `command` (the subcommand as typed), the
library version and the resolved config. Outputs are deterministic for a
given config and seed: re-running a command overwrites byte-identical
files. Floats are written as Python `repr`, so `-0.0`, `nan` and `inf`
appear as Python prints them.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__, harness
from .config import load_config, load_packaged_config
from .errors import NUMERICAL_ERRORS, ConfigError, InvalidParameterError, SnapshotFormatError
# Not called here: bench/pipeline.traced_cli swaps these four names in this module.
from .estimators import bss_mf, bss_nls, estimate_phase_offsets
from .jade import jade_separate
from .harness import TrialConfig, monte_carlo, orthogonality_experiment
from .snapshot_io import HEADER, snapshot_columns, superpose_snapshots, write_csv


def _resolve_config(ref: str) -> TrialConfig:
    if os.path.isfile(ref):
        return load_config(ref)
    base = os.path.basename(ref)
    if base == ref and not ref.endswith(".yaml"):
        return load_packaged_config(ref)
    raise ConfigError(f"config file not found: {ref}")


def _cmd_synth(config: TrialConfig, args):
    snapshot = harness.trial_snapshot(config, config.array_geometry, *config.scenario())
    return "snapshot", HEADER, snapshot_columns(snapshot), {}


def _cmd_ingest(config: TrialConfig, args):
    if not args.add:
        raise ConfigError("ingest needs at least one --add snapshot file")
    combined = superpose_snapshots(args.add, config.array_geometry)
    return "snapshot", HEADER, snapshot_columns(combined), {"inputs": list(args.add)}


def _cmd_estimate(config: TrialConfig, args):
    config.required_grid()
    geometry = config.array_geometry
    if args.add:
        snapshot = superpose_snapshots(args.add, geometry)
    else:
        snapshot = harness.trial_snapshot(config, geometry, *config.scenario())
    offsets, mf, result = harness.estimate(config, geometry, snapshot)
    sources = len(config.directions_deg)
    columns = [
        np.tile(mf.grid_deg, sources),
        np.repeat(np.arange(1, sources + 1), len(mf.grid_deg)),
        mf.spectra.ravel(),
    ]
    estimates = {
        "estimator": config.estimator,
        "directions_deg": [float(v) for v in result.directions_deg],
        "amplitudes": [
            {"real": float(a.real), "imag": float(a.imag)} for a in result.amplitudes
        ]
        if result.amplitudes is not None
        else None,
        "matched_filter_directions_deg": [float(v) for v in mf.directions_deg],
        "iterations": int(result.iterations),
        "stop_reason": result.stop_reason,
        "final_cost": float(result.final_cost),
        "degenerate_phase_cells": int(np.count_nonzero(offsets.degenerate_flags)),
    }
    extra = {"estimates": estimates, "inputs": list(args.add or [])}
    return "spectra", ["theta_deg", "source_index", "value"], columns, extra


def _cmd_orthogonality(config: TrialConfig, args):
    points = orthogonality_experiment(config)
    rows = np.array([(p.separation_over_delta, p.truth, p.estimate) for p in points], dtype=float)
    failed = sum(config.trials - p.trials_ok for p in points)
    extra = {
        "trials_failed_total": int(failed),
        "failures_by_type": [p.failures for p in points],
    }
    return "orthogonality", ["separation_over_delta", "truth", "estimate"], rows.T, extra


def _cmd_monte_carlo(config: TrialConfig, args):
    if args.command == "sweep" and config.sweep_axis == "none":
        raise ConfigError("sweep needs a config with run.sweep.axis set")
    points = monte_carlo(config).points
    rows = np.array([(p.sweep_value, p.rmse_deg, p.resolve_rate) for p in points], dtype=float)
    columns = [*rows.T, np.array([p.trials_ok for p in points], dtype=int)]
    extra = {
        "trials_failed": [int(p.trials_failed) for p in points],
        "failures_by_type": [p.failures for p in points],
    }
    return "rmse", ["sweep_value", "rmse_deg", "resolve_rate", "trials_ok"], columns, extra


# Each command function returns (name, header, columns, sidecar entries).
_COMMANDS = {
    "synth": (_cmd_synth, "synthesize one composite snapshot and write it as CSV"),
    "estimate": (_cmd_estimate, "estimate directions from a synthesized or ingested snapshot"),
    "orthogonality": (
        _cmd_orthogonality,
        "true versus recovered source correlation over a separation sweep",
    ),
    "montecarlo": (
        _cmd_monte_carlo,
        "seeded RMSE / resolve-rate statistics for the configured run",
    ),
    "sweep": (_cmd_monte_carlo, "like montecarlo but insists on a swept axis"),
    "ingest": (_cmd_ingest, "validate and superpose measured snapshot CSV files"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process. It binds no command function, and `--add`
    # defaults to None so that no list is shared between calls.
    parser = argparse.ArgumentParser(
        prog="pcdoa",
        description="Single-snapshot direction finding with partly calibrated arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config file path or packaged name")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--trials", type=int, default=None, help="override run.trials")
        p.add_argument("--snr-db", type=float, default=None, help="override noise.snr_db")
        p.add_argument(
            "--estimator",
            choices=("bss_mf", "bss_nls"),
            default=None,
            help="override run.estimator",
        )
        if name in ("estimate", "ingest"):
            p.add_argument(
                "--add",
                action="append",
                default=None,
                metavar="PATH",
                help="snapshot CSV to ingest; repeat to superpose several",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args.config).with_overrides(
            seed=args.seed, trials=args.trials, snr_db=args.snr_db, estimator=args.estimator
        )
        os.makedirs(args.out, exist_ok=True)
        name, header, columns, extra = _COMMANDS[args.command][0](config, args)
        write_csv(os.path.join(args.out, f"{name}.csv"), header, columns)
        sidecar = {"command": args.command, "version": __version__, "config": config.as_dict()}
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps({**sidecar, **extra}, indent=2, sort_keys=True) + "\n")
        return 0
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SnapshotFormatError as exc:
        where = f" (row {exc.row})" if exc.row is not None else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
