"""Tests of the benchmark's own arithmetic and inputs.

Run from the repository root with `python -m pytest bench -q`.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pcdoa import jade, load_packaged_config, monte_carlo  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert spans.highest_percentile(count) == expected


def test_percentile_refuses_a_tail_the_samples_cannot_support():
    samples = list(range(199))
    assert spans.percentile(samples, 90) == pytest.approx(np.percentile(samples, 90))
    with pytest.raises(ValueError):
        spans.percentile(samples, 95)
    assert spans.percentile(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))
    assert spans.percentile([], 95) == 0.0


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # Overlapping children [1,3] and [2,5] cover 4; [7,8] covers 1; [9,12] is clipped to 1.
    assert spans.self_time(0.0, 10.0, [(9.0, 12.0), (1.0, 3.0), (7.0, 8.0), (2.0, 5.0)]) == 4.0
    assert spans.self_time(0.0, 10.0, []) == 10.0


def test_self_times_count_only_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("cli.main", 0.0, 1.0, None, 0),
        spans.Span("jade.jade_separate", 0.1, 0.5, 0, 0),
        spans.Span("jade.estimate_whitener", 0.2, 0.4, 1, 0),
        spans.Span("estimators.bss_nls", 0.6, 0.9, 0, 0),
    ]
    assert tracer.self_times_ms("cli.main") == [pytest.approx(300.0)]
    assert tracer.self_times_ms("jade.jade_separate") == [pytest.approx(200.0)]
    assert tracer.durations_ms("estimators.bss_nls") == [pytest.approx(300.0)]


def test_signal_margin_matches_eigvalsh():
    rng = np.random.default_rng(4)
    mixing = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    sources = np.exp(2j * np.pi * rng.uniform(size=(2, 10)))
    noise = 0.3 * (rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    measurements = mixing @ sources + noise
    eigenvalues = np.linalg.eigvalsh(measurements @ measurements.conj().T / 10)[::-1]
    noise_level = np.mean(eigenvalues[2:])
    expected = np.min(eigenvalues[:2] - noise_level) / noise_level
    margin = pipeline.signal_margin(jade.estimate_whitener(measurements, 2))
    assert margin == pytest.approx(expected, rel=1e-9)


def _read_all(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def test_measured_inputs_depend_only_on_the_seed(tmp_path):
    experiment = load_packaged_config("experiment")
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.write_measured_inputs(seed, tmp_path / name, experiment, 3)
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "c")


def test_operation_seeds_depend_only_on_the_seed(tmp_path):
    def base_seeds(seed):
        workload = workloads.MonteCarloWorkload("mc_close", "fig6b")
        workload.prepare(seed, str(tmp_path))
        return [workload._op_config(i).base_seed for i in range(20)]

    assert base_seeds(5) == base_seeds(5)
    assert base_seeds(5) != base_seeds(6)
    assert len(set(base_seeds(5))) == 20


def test_traced_composition_reproduces_monte_carlo():
    config = load_packaged_config("fig6b").trial_config()
    trial_config = dataclasses.replace(config, sweep_values=(20.0,), trials=3)
    point = monte_carlo(trial_config).points[0]
    tracer = spans.Tracer()
    stages = pipeline.Stages(tracer)
    geometry = trial_config.geometry.build()
    composed = [
        pipeline.monte_carlo_trial(stages, trial_config, geometry, t, 0, 20.0)[0] for t in range(3)
    ]
    assert np.array_equal(np.array(composed), point.estimates_deg)
    assert len(tracer.durations_ms("estimators.bss_nls")) == 3
    assert tracer.counters["jade.jd_sweeps"] >= 3
    assert math.isfinite(tracer.minima["jade.signal_margin"])


def test_traced_cli_restores_the_library():
    from pcdoa import cli

    originals = (cli.bss_nls, jade.estimate_whitener)
    with pipeline.traced_cli(pipeline.Stages(spans.Tracer())):
        assert cli.bss_nls is not originals[0]
    assert (cli.bss_nls, jade.estimate_whitener) == originals


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.layer_units()
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOAD_NAMES)
