"""Command-line front end.

Each subcommand reads one config (a path, or the bare name of a packaged
config such as `fig6b`), applies flag overrides, runs the experiment and
writes plot-ready CSV files plus a JSON sidecar holding the resolved
config and library version. Outputs are deterministic for a given config
and seed: re-running a command overwrites byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .config import load_config, load_packaged_config
from .errors import NUMERICAL_ERRORS, ConfigError, InvalidParameterError, SnapshotFormatError
from .estimators import bss_mf, bss_nls, estimate_phase_offsets
from .harness import TrialConfig, monte_carlo, orthogonality_experiment, trial_snapshot
from .jade import jade_separate
from .snapshot_io import superpose_snapshots, write_snapshot_csv


def _fmt(value) -> str:
    return repr(float(value))


def _resolve_config(ref: str) -> TrialConfig:
    if os.path.exists(ref):
        return load_config(ref)
    base = os.path.basename(ref)
    if base == ref and not ref.endswith(".yaml"):
        return load_packaged_config(ref)
    raise ConfigError(f"config file not found: {ref}")


def _apply_overrides(config: TrialConfig, args) -> TrialConfig:
    return config.with_overrides(
        seed=args.seed,
        trials=args.trials,
        snr_db=args.snr_db,
        estimator=args.estimator,
    )


def _write_sidecar(out_dir: str, name: str, command: str, config: TrialConfig, extra=None):
    payload = {
        "command": command,
        "version": __version__,
        "config": config.as_dict(),
    }
    if extra:
        payload.update(extra)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(out_dir: str, name: str, header: List[str], rows) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
    return path


def _synthesize_snapshot(config: TrialConfig, geometry):
    noise_var = 10.0 ** (-config.snr_db / 10.0)
    return trial_snapshot(config, geometry, config.directions_deg, noise_var)


def _cmd_synth(args) -> int:
    config = _apply_overrides(_resolve_config(args.config), args)
    snapshot = _synthesize_snapshot(config, config.geometry.build())
    write_snapshot_csv(os.path.join(args.out, "snapshot.csv"), snapshot)
    _write_sidecar(args.out, "snapshot", "synth", config)
    return 0


def _cmd_ingest(args) -> int:
    config = _apply_overrides(_resolve_config(args.config), args)
    if not args.add:
        raise ConfigError("ingest needs at least one --add snapshot file")
    geometry = config.geometry.build()
    combined = superpose_snapshots(args.add, geometry)
    write_snapshot_csv(os.path.join(args.out, "snapshot.csv"), combined)
    _write_sidecar(
        args.out,
        "snapshot",
        "ingest",
        config,
        extra={"inputs": list(args.add)},
    )
    return 0


def _cmd_estimate(args) -> int:
    config = _apply_overrides(_resolve_config(args.config), args)
    if config.grid_deg is None:
        raise ConfigError("estimate needs run.grid in the config")
    geometry = config.geometry.build()
    if args.add:
        snapshot = superpose_snapshots(args.add, geometry)
    else:
        snapshot = _synthesize_snapshot(config, geometry)
    sources = len(config.directions_deg)
    separated = jade_separate(snapshot.data, sources)
    offsets = estimate_phase_offsets(separated)
    mf = bss_mf(snapshot.data, geometry, offsets, config.grid_deg)
    rows = []
    for l in range(sources):
        for g, value in zip(mf.grid_deg, mf.spectra[l]):
            rows.append([_fmt(g), str(l + 1), _fmt(value)])
    _write_csv(args.out, "spectra.csv", ["theta_deg", "source_index", "value"], rows)
    result = mf
    if config.estimator == "bss_nls":
        result = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
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
        "final_cost": float(result.final_cost),
        "degenerate_phase_cells": int(np.count_nonzero(offsets.degenerate_flags)),
    }
    _write_sidecar(
        args.out,
        "spectra",
        "estimate",
        config,
        extra={"estimates": estimates, "inputs": list(args.add or [])},
    )
    return 0


def _cmd_orthogonality(args) -> int:
    config = _apply_overrides(_resolve_config(args.config), args)
    points = orthogonality_experiment(config)
    rows = [
        [_fmt(p.separation_over_delta), _fmt(p.truth), _fmt(p.estimate)]
        for p in points
    ]
    _write_csv(
        args.out,
        "orthogonality.csv",
        ["separation_over_delta", "truth", "estimate"],
        rows,
    )
    failed = sum(config.trials - p.trials_ok for p in points)
    _write_sidecar(
        args.out,
        "orthogonality",
        "orthogonality",
        config,
        extra={"trials_failed_total": int(failed)},
    )
    return 0


def _run_monte_carlo(args, command: str) -> int:
    config = _apply_overrides(_resolve_config(args.config), args)
    if command == "sweep" and config.sweep_axis == "none":
        raise ConfigError("sweep needs a config with run.sweep.axis set")
    if config.grid_deg is None:
        raise ConfigError(f"{command} needs run.grid in the config")
    report = monte_carlo(config)
    rows = [
        [
            _fmt(p.sweep_value),
            _fmt(p.rmse_deg),
            _fmt(p.resolve_rate),
            str(p.trials_ok),
        ]
        for p in report.points
    ]
    _write_csv(
        args.out,
        "rmse.csv",
        ["sweep_value", "rmse_deg", "resolve_rate", "trials_ok"],
        rows,
    )
    _write_sidecar(
        args.out,
        "rmse",
        command,
        config,
        extra={
            "trials_failed": [int(p.trials_failed) for p in report.points],
        },
    )
    return 0


def _cmd_montecarlo(args) -> int:
    return _run_monte_carlo(args, "montecarlo")


def _cmd_sweep(args) -> int:
    return _run_monte_carlo(args, "sweep")


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "orthogonality": _cmd_orthogonality,
    "montecarlo": _cmd_montecarlo,
    "sweep": _cmd_sweep,
    "ingest": _cmd_ingest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcdoa",
        description="Single-snapshot direction finding with partly calibrated arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "synth": "synthesize one composite snapshot and write it as CSV",
        "estimate": "estimate directions from a synthesized or ingested snapshot",
        "orthogonality": "true versus recovered source correlation over a separation sweep",
        "montecarlo": "seeded RMSE / resolve-rate statistics for the configured run",
        "sweep": "like montecarlo but insists on a swept axis",
        "ingest": "validate and superpose measured snapshot CSV files",
    }
    for name, help_text in descriptions.items():
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
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args)
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
