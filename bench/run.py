"""pcdoa benchmark: throughput, latency and per-layer costs on four workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc_wide --seed 1 --seconds 36 --trace 0

`--trace 0` times the workload untraced and prints the end-to-end metrics;
`--trace 1` runs a fixed seed-derived set through the span-recording
pipeline and prints the per-layer metrics. `--workload all` runs every
workload both ways. Human-readable lines go first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Full results, the environment and the spans are written
under `.bench_out/` in the checkout. See bench/README.md for the metrics.

Exit codes: 0 all checks passed, 1 a correctness check failed or the
checkout holds no pcdoa sources, 2 a trial exposed a configuration bug.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__" and not (ROOT / "src" / "pcdoa" / "__init__.py").is_file():
    sys.exit(f"no pcdoa sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from pcdoa.errors import InvalidParameterError  # noqa: E402

import envinfo  # noqa: E402
import pipeline  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc_wide", "mc_close", "separation_sweep", "estimate_measured")

MIN_OPS = 200  # 10 beyond the 95th percentile of per-op latency
MAX_LOOP_SECONDS = 120.0
SETUP_REPEATS = 9

# Import, config load and geometry build, timed inside a fresh interpreter.
SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pcdoa
for name in sys.argv[2:]:
    pcdoa.load_packaged_config(name).geometry.build()
print(repr(time.perf_counter() - start))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p95": "ms",
}
# Recorded and printed, not gated: on a host whose speed drifts, a run's
# mean and median moved 2-3 times as much as its p95 (README.md).
RECORDED_UNITS = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}

# metric -> (span name, percentile, report self time instead of duration)
LAYER_TIMES = {
    "estimators.bss_nls_ms.p50": ("estimators.bss_nls", 50, False),
    "estimators.bss_nls_ms.p95": ("estimators.bss_nls", 95, False),
    "jade.estimate_whitener_ms.p50": ("jade.estimate_whitener", 50, False),
    "jade.cumulant_matrix_set_ms.p50": ("jade.cumulant_matrix_set", 50, False),
    "jade.joint_diagonalize_ms.p50": ("jade.joint_diagonalize", 50, False),
    "estimators.bss_mf_ms.p50": ("estimators.bss_mf", 50, False),
    "array_model.synthesize_ms.p50": ("array_model.synthesize", 50, False),
    "estimators.estimate_phase_offsets_ms.p50": ("estimators.estimate_phase_offsets", 50, False),
    "estimators.match_sources_ms.p50": ("estimators.match_sources", 50, False),
    "correlation.pair_correlation_ms.p50": ("correlation.pair_correlation", 50, False),
    "correlation.cross_covariance_ms.p50": ("correlation.cross_covariance", 50, False),
    "harness.trial_self_ms.p50": ("harness.trial", 50, True),
    "snapshot_io.superpose_snapshots_ms.p50": ("snapshot_io.superpose_snapshots", 50, False),
    "config.load_config_ms.p50": ("config.load_config", 50, False),
    "cli.estimate_self_ms.p50": ("cli.main", 50, True),
}
# metric -> (counter, unit)
LAYER_COUNTS = {
    "estimators.nls_iterations.sum": ("estimators.nls_iterations", "count"),
    "estimators.nls_capped": ("estimators.nls_capped", "count"),
    "jade.jd_sweeps.sum": ("jade.jd_sweeps", "count"),
    "estimators.degenerate_cells.sum": ("estimators.degenerate_cells", "count"),
    "snapshot_io.bytes_read": ("snapshot_io.bytes_read", "bytes"),
    "cli.bytes_written": ("cli.bytes_written", "bytes"),
}
ACCURACY_UNITS = {
    "harness.rmse_deg": "deg",
    "harness.resolve_rate": "ratio",
    "harness.within_005_rate": "ratio",
    "correlation.orth_abs_err.mean": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def setup_once(config_names) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM, str(ROOT / "src"), *config_names],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def timed_loop(workload, seconds: float):
    """Run ops back to back until `seconds`, MIN_OPS and SETUP_REPEATS are all reached, at a pass end.

    The first pass warms caches and lazy set-up: its outputs are checked
    like every other, but its times are dropped. Set-up is timed at pass
    ends spread over the window, so that it meets the same machine state
    as the ops; a CPU left idle before it made it up to twice as slow.
    Its time is kept out of the window. Returns the op samples, outputs,
    failures and the set-up times.
    """
    samples, outputs, errors, setup = [], [], collections.Counter(), []
    failed = 0
    index = 0
    while True:
        if index % workload.pass_length == 0 and index >= workload.pass_length:
            if index == workload.pass_length:
                samples.clear()
                setup_once(workload.config_names)  # warms the file cache; dropped
                start = time.perf_counter()
            elapsed = time.perf_counter() - start
            done = len(samples) >= MIN_OPS and len(setup) == SETUP_REPEATS
            if (elapsed >= seconds and done) or elapsed >= MAX_LOOP_SECONDS:
                return samples, outputs, errors, failed, setup
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                paused = time.perf_counter()
                setup.append(setup_once(workload.config_names))
                start += time.perf_counter() - paused
        op = workload.op(index)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = op.run()
        cpu1, wall1 = time.process_time(), time.perf_counter()
        outcome = op.check(result)
        if "InvalidParameterError" in outcome.errors:
            raise workloads.ConfigBug(f"op {index} failed with InvalidParameterError")
        samples.append((wall1 - wall0, cpu1 - cpu0))
        outputs.append(outcome.output)
        errors.update(outcome.errors)
        failed += outcome.failed
        index += 1


def end_to_end(samples, setup_s):
    """The gated metrics, and the record's counts with the ungated metrics."""
    latency = [1000.0 * wall for wall, _ in samples]
    recorded = {
        "ops_per_s": len(samples) / sum(wall for wall, _ in samples),
        "cpu_ms_per_op": 1000.0 * sum(cpu for _, cpu in samples) / len(samples),
        "op_ms.p50": spans.percentile(latency, 50),
        "op_ms.p90": spans.percentile(latency, 90),
    }
    return {
        "setup_s": setup_s,
        "op_ms.p95": spans.percentile(latency, 95),
    }, {"ops": len(samples), "samples": samples,
        "recorded": {m: {"value": v, "unit": RECORDED_UNITS[m]} for m, v in recorded.items()},
        "op_ms_by_percentile": {f"p{q:g}": spans.percentile(latency, q) for q in spans.PERCENTILES
                                if q <= spans.highest_percentile(len(latency))}}


def layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {metric: "ms" for metric in LAYER_TIMES}
    units.update({metric: unit for metric, (_, unit) in LAYER_COUNTS.items()})
    units["jade.signal_margin.min"] = "ratio"
    units.update({f"harness.failures.{name}": "count" for name in pipeline.FAILURE_TYPES})
    units["harness.fail_rate"] = "ratio"
    units.update(ACCURACY_UNITS)
    return units


def per_layer(tracer, traced):
    failures = collections.Counter(traced.errors)
    unknown = set(failures) - set(pipeline.FAILURE_TYPES)
    if unknown:
        raise workloads.GateError(f"unexpected trial failure types {sorted(unknown)}")
    values = {}
    for metric, (name, q, self_only) in LAYER_TIMES.items():
        samples = tracer.self_times_ms(name) if self_only else tracer.durations_ms(name)
        values[metric] = spans.percentile(samples, q)
    for metric, (counter, _) in LAYER_COUNTS.items():
        values[metric] = tracer.counters.get(counter, 0)
    values["jade.signal_margin.min"] = tracer.minima.get("jade.signal_margin", 0.0)
    for name in pipeline.FAILURE_TYPES:
        values[f"harness.failures.{name}"] = failures[name]
    values["harness.fail_rate"] = traced.failed / traced.attempted
    for metric in ACCURACY_UNITS:
        values[metric] = traced.accuracy.get(metric, 0.0)
    units = layer_units()
    return {metric: (value, units[metric]) for metric, value in values.items()}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def repeat_check(key: str, values: dict) -> list:
    """Compare deterministic outputs with an earlier run of the same source and seed.

    Returns the names that differ; the first run for a key records it.
    """
    path = OUT / "repeat" / f"{key}.json"
    source = source_digest()
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["source"] == source:
            return sorted(k for k in values if k in earlier["values"] and earlier["values"][k] != values[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "values": values}, sort_keys=True))
    return []


def run_workload(name: str, seed: int, seconds: float, trace: int, environment: dict):
    workload = workloads.WORKLOADS[name]()
    workload.prepare(seed, str(OUT / "work" / name))
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment}
    if trace:
        tracer = spans.Tracer()
        traced = workload.traced(tracer)
        values = per_layer(tracer, traced)
        attempted, failed = traced.attempted, traced.failed
        deterministic = {m: v for m, (v, u) in values.items() if u != "ms"}
        deterministic["outputs.sha256"] = hashlib.sha256(traced.output).hexdigest()
        report["tracing_overhead_ms_per_op"] = 1000.0 * (traced.traced_s - traced.untraced_s) / attempted
        report["untraced_ms_per_op"] = 1000.0 * traced.untraced_s / attempted
        spans_path = OUT / "results" / f"{name}-seed{seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.as_records()))
    else:
        samples, outputs, errors, failed, setup = timed_loop(workload, seconds)
        attempted = len(outputs)
        workload.gate(outputs[:workload.gate_ops])
        metrics, counts = end_to_end(samples, statistics.median(setup))
        report["setup_samples_s"] = setup
        values = {m: (v, END_TO_END_UNITS[m]) for m, v in metrics.items()}
        report.update(counts)
        report["failures"] = dict(errors)
        deterministic = {}
        if len(outputs) >= MIN_OPS:
            joined = b"".join(outputs[:MIN_OPS])
            deterministic[f"outputs[:{MIN_OPS}].sha256"] = hashlib.sha256(joined).hexdigest()
    mismatched = repeat_check(f"{name}-seed{seed}-trace{trace}", deterministic)
    if mismatched:
        raise workloads.GateError(f"outputs differ from an earlier run at seed {seed}: {mismatched}")
    report["deterministic"] = deterministic
    report["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in values.items()}
    report["attempted"], report["failed"] = attempted, failed
    path = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    for metric, (value, unit) in values.items():
        print(f"{name:18s} {metric:42s} {value:14.6g} {unit}")
    if trace:
        print(f"{name:18s} tracing overhead {report['tracing_overhead_ms_per_op']:.4f} ms/op "
              f"over {report['untraced_ms_per_op']:.4f} ms/op untraced")
    else:
        for metric, entry in counts["recorded"].items():
            print(f"{name:18s} {metric:42s} {entry['value']:14.6g} {entry['unit']}  (recorded, not gated)")
        print(f"{name:18s} {counts['ops']} ops timed; failures by type {dict(errors) or 'none'}")
        print(f"{name:18s} op_ms by percentile " + json.dumps(counts["op_ms_by_percentile"]))
    return attempted, failed, report["metrics"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    environment = envinfo.environment(ROOT)
    print("environment " + json.dumps(environment, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    attempted = failed = 0
    metrics = {}
    correct = True
    try:
        for name in names:
            for trace in modes:
                done, lost, values = run_workload(name, args.seed, args.seconds, trace, environment)
                attempted += done
                failed += lost
                prefix = f"{name}." if args.workload == "all" else ""
                metrics.update({prefix + m: v for m, v in values.items()})
    except workloads.GateError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        correct = False
    except (workloads.ConfigBug, InvalidParameterError) as exc:
        print(f"configuration bug, benchmark aborted: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
