"""The four benchmark workloads.

Each workload turns the seed into a sequence of operations. The untraced
run times them one by one in a closed loop (the next operation starts when
the previous one returns) and checks every output. The traced run pushes
a fixed, seed-derived set of trials through both the untraced library
call and the span-recording composition in `pipeline`, requires the two to
agree bit for bit, and keeps the per-layer spans and counts.

Why these four, and what each should show, is in README.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from pcdoa import cli, harness, load_packaged_config, monte_carlo, orthogonality_experiment
from pcdoa.estimators import match_sources

import pipeline
from pipeline import Stages
from spans import NullTracer


class GateError(Exception):
    """An output failed a correctness check."""


class ConfigBug(Exception):
    """A trial failed with InvalidParameterError: the set-up is wrong, not the trial."""


def derive(seed: int, *labels) -> int:
    """Seed for one named input of the benchmark, from the run's --seed only."""
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclasses.dataclass
class Op:
    """One trial or call: `run` is timed; `check` validates its result afterwards."""

    run: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclasses.dataclass
class Outcome:
    failed: int
    errors: List[str]
    output: bytes  # canonical bytes of the outputs, for the repeat check


@dataclasses.dataclass
class TracedResult:
    attempted: int
    failed: int
    errors: List[str]
    untraced_s: float
    traced_s: float
    accuracy: Dict[str, float]
    output: bytes


def interleave(tracer, count: int, run, first_op: int = 0):
    """Call run(stages, i) untraced then traced for each i; time each side.

    Alternating keeps drift in machine speed out of the tracing overhead.
    Returns (untraced seconds, traced seconds, results of the traced calls).
    """
    plain, stages = Stages(NullTracer()), Stages(tracer)
    untraced_s = traced_s = 0.0
    results = []
    for index in range(count):
        start = time.perf_counter()
        run(plain, index)
        untraced_s += time.perf_counter() - start
        tracer.op = first_op + index
        start = time.perf_counter()
        results.append(run(stages, index))
        traced_s += time.perf_counter() - start
    return untraced_s, traced_s, results


def _array_bytes(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _within_rate(estimates: np.ndarray, truth: Sequence[float], tolerance: float = 0.05) -> float:
    errors = np.abs(np.asarray(estimates, dtype=float) - np.asarray(truth, dtype=float))
    return float(np.mean(np.all(errors <= tolerance, axis=1)))


class MonteCarloWorkload:
    """`monte_carlo` over one packaged SNR sweep, one trial per call."""

    traced_trials = 200  # 10 beyond the 95th percentile of per-stage times
    traced_snr_db = 20.0

    def __init__(self, name: str, config_name: str):
        self.name = name
        self.config_names = (config_name,)
        self.config = load_packaged_config(config_name).trial_config()
        self.snr_values = tuple(self.config.sweep_values)
        self.pass_length = len(self.snr_values)
        self.gate_ops = self.pass_length

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.geometry = self.config.geometry.build()

    def _op_config(self, index: int):
        return dataclasses.replace(
            self.config,
            sweep_values=(self.snr_values[index % self.pass_length],),
            trials=1,
            base_seed=derive(self.seed, self.name, index),
        )

    def op(self, index: int) -> Op:
        trial_config = self._op_config(index)

        def check(report) -> Outcome:
            point = report.points[0]
            estimates = point.estimates_deg
            if estimates.shape != (point.trials_ok, len(trial_config.directions_deg)):
                raise GateError(f"op {index}: estimates have shape {estimates.shape}")
            if not np.all(np.isfinite(estimates)):
                raise GateError(f"op {index}: non-finite direction estimate")
            errors = []
            if point.trials_failed:
                result = harness.run_trial(
                    trial_config, 0, 0, trial_config.sweep_values[0], geometry=self.geometry
                )
                errors.append(result.error.split(":", 1)[0])
            return Outcome(point.trials_failed, errors, _array_bytes(estimates))

        return Op(lambda: monte_carlo(trial_config), check)

    def gate(self, outputs: Sequence[bytes]) -> None:
        """The composed pipeline reproduces the first timed ops bit for bit."""
        stages = Stages(NullTracer())
        for index, output in enumerate(outputs):
            trial_config = self._op_config(index)
            estimates, _ = pipeline.monte_carlo_trial(
                stages, trial_config, self.geometry, 0, 0, trial_config.sweep_values[0]
            )
            expected = b"" if estimates is None else _array_bytes(estimates)
            if expected != output:
                raise GateError(f"op {index}: composed pipeline differs from monte_carlo")

    def traced(self, tracer) -> TracedResult:
        trial_config = dataclasses.replace(
            self.config,
            sweep_values=(self.traced_snr_db,),
            trials=self.traced_trials,
            base_seed=derive(self.seed, self.name, "traced"),
        )
        point = monte_carlo(trial_config).points[0]
        untraced_s, traced_s, results = interleave(
            tracer, self.traced_trials,
            lambda stages, trial: pipeline.monte_carlo_trial(
                stages, trial_config, self.geometry, trial, 0, self.traced_snr_db
            ),
        )
        ok = [estimates for estimates, error in results if error is None]
        errors = [error for _, error in results if error is not None]
        composed = np.array(ok) if ok else np.empty_like(point.estimates_deg)
        if len(errors) != point.trials_failed or not np.array_equal(
            composed, point.estimates_deg
        ):
            raise GateError("traced pipeline differs from monte_carlo")
        if not ok:
            raise GateError("no traced trial succeeded")
        truth = trial_config.directions_deg
        accuracy = {
            "harness.rmse_deg": point.rmse_deg,
            "harness.resolve_rate": point.resolve_rate,
            "harness.within_005_rate": _within_rate(point.estimates_deg, truth),
        }
        return TracedResult(
            self.traced_trials, len(errors), errors, untraced_s, traced_s, accuracy,
            _array_bytes(point.estimates_deg),
        )


class SeparationSweepWorkload:
    """`orthogonality_experiment` on fig3 and fig4, one separation point per call."""

    traced_trials_per_point = 3
    gate_ops = 16

    def __init__(self, name: str = "separation_sweep"):
        self.name = name
        self.config_names = ("fig3", "fig4")
        self.configs = [load_packaged_config(n).trial_config() for n in self.config_names]
        self.values = tuple(self.configs[0].sweep_values)
        # fig3 and fig4 alternate, so one pass visits every point of both.
        self.pass_length = 2 * len(self.values)

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.geometries = [c.geometry.build() for c in self.configs]

    def _op_config(self, index: int):
        return dataclasses.replace(
            self.configs[index % 2],
            sweep_values=(self.values[(index // 2) % len(self.values)],),
            trials=1,
            base_seed=derive(self.seed, self.name, index),
        )

    def op(self, index: int) -> Op:
        trial_config = self._op_config(index)

        def check(points) -> Outcome:
            point = points[0]
            values = [point.truth] + ([point.estimate] if point.trials_ok else [])
            if not all(0.0 <= v <= 1.0 + 1e-9 for v in values):
                raise GateError(f"op {index}: correlation magnitude outside [0, 1]")
            errors = []
            if not point.trials_ok:
                _, _, _, errors = pipeline.orthogonality_point(
                    Stages(NullTracer()), trial_config,
                    self.geometries[index % 2], 0, trial_config.sweep_values[0],
                )
            return Outcome(1 - point.trials_ok, errors, _array_bytes(values))

        return Op(lambda: orthogonality_experiment(trial_config), check)

    def gate(self, outputs: Sequence[bytes]) -> None:
        stages = Stages(NullTracer())
        for index, output in enumerate(outputs):
            trial_config = self._op_config(index)
            truth, estimate, trials_ok, _ = pipeline.orthogonality_point(
                stages, trial_config, self.geometries[index % 2], 0,
                trial_config.sweep_values[0],
            )
            expected = _array_bytes([truth] + ([estimate] if trials_ok else []))
            if expected != output:
                raise GateError(f"op {index}: composed pipeline differs from orthogonality_experiment")

    def traced(self, tracer) -> TracedResult:
        untraced_s = traced_s = 0.0
        errors: List[str] = []
        abs_errors, outputs = [], []
        trials = self.traced_trials_per_point
        for name, base, geometry in zip(self.config_names, self.configs, self.geometries):
            trial_config = dataclasses.replace(
                base, trials=trials, base_seed=derive(self.seed, self.name, "traced", name)
            )
            points = orthogonality_experiment(trial_config)
            plain_s, span_s, composed = interleave(
                tracer, len(self.values),
                lambda stages, index: pipeline.orthogonality_point(
                    stages, trial_config, geometry, index, self.values[index]
                ),
                first_op=len(outputs),
            )
            untraced_s += plain_s
            traced_s += span_s
            for point, (truth, estimate, trials_ok, point_errors) in zip(points, composed):
                same = (
                    truth == point.truth
                    and trials_ok == point.trials_ok
                    and (estimate == point.estimate or (math.isnan(estimate) and math.isnan(point.estimate)))
                )
                if not same:
                    raise GateError(f"{name}: traced pipeline differs from orthogonality_experiment")
                errors.extend(point_errors)
                if trials_ok:
                    abs_errors.append(abs(point.estimate - point.truth))
                outputs.append((point.truth, point.estimate))
        if not abs_errors:
            raise GateError("no traced trial succeeded")
        accuracy = {"correlation.orth_abs_err.mean": float(np.mean(abs_errors))}
        return TracedResult(
            len(outputs) * trials, len(errors), errors, untraced_s, traced_s, accuracy,
            _array_bytes(outputs),
        )


def write_snapshot(path: str, data: np.ndarray) -> None:
    """One snapshot CSV in the layout `pcdoa ingest` reads."""
    lines = ["element_index,subarray_index,real,imag"]
    for m in range(data.shape[0]):
        for k in range(data.shape[1]):
            value = complex(data[m, k])
            lines.append(f"{m + 1},{k + 1},{value.real!r},{value.imag!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_measured_inputs(seed: int, directory: str, experiment, count: int) -> List[List[str]]:
    """Per-emitter snapshot files, one pair per composite capture.

    Emitter l of a pair is recorded alone: its configured direction and
    magnitude with a phase drawn from the seed, plus half the configured
    noise power, so the superposed pair has the configured SNR.
    """
    geometry = experiment.geometry.build()
    rng = np.random.default_rng(derive(seed, "estimate_measured", "inputs"))
    wavenumber = 2.0 * np.pi / geometry.wavelength
    positions = geometry.intra_displacements[:, None] + geometry.inter_displacements[None, :]
    noise_variance = 10.0 ** (-experiment.snr_db / 10.0) / len(experiment.directions_deg)
    shape = positions.shape
    os.makedirs(directory, exist_ok=True)
    pairs = []
    for capture in range(count):
        paths = []
        for emitter, (direction, amplitude) in enumerate(
            zip(experiment.directions_deg, experiment.amplitudes)
        ):
            phase = np.exp(2j * np.pi * rng.uniform())
            signal = abs(amplitude) * phase * np.exp(
                1j * wavenumber * positions * math.sin(math.radians(direction))
            )
            noise = math.sqrt(noise_variance / 2.0) * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            path = os.path.join(directory, f"capture{capture:03d}_emitter{emitter + 1}.csv")
            write_snapshot(path, signal + noise)
            paths.append(path)
        pairs.append(paths)
    return pairs


class EstimateMeasuredWorkload:
    """In-process `pcdoa estimate --config experiment --add ... --add ...` calls."""

    config_name = "experiment"
    captures = 32
    traced_calls = 200  # 10 beyond the 95th percentile

    def __init__(self, name: str = "estimate_measured"):
        self.name = name
        self.config_names = (self.config_name,)
        self.experiment = load_packaged_config(self.config_name)
        self.pass_length = self.captures
        self.gate_ops = 0  # every call is checked against the library as it runs

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        base = os.path.join(workdir, f"seed{seed}")
        self.pairs = write_measured_inputs(
            seed, os.path.join(base, "inputs"), self.experiment, self.captures
        )
        self.out_dir = os.path.join(base, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        geometry = self.experiment.geometry.build()
        stages = Stages(NullTracer())
        self.reference = [
            [float(v) for v in pipeline.estimate_directions(stages, pair, self.experiment, geometry)]
            for pair in self.pairs
        ]

    def _argv(self, index: int) -> List[str]:
        argv = ["estimate", "--config", self.config_name, "--out", self.out_dir]
        for path in self.pairs[index % self.captures]:
            argv += ["--add", path]
        return argv

    def _check(self, index: int, code) -> Outcome:
        if code != 0:
            raise GateError(f"call {index}: pcdoa estimate exited with {code}")
        with open(os.path.join(self.out_dir, "spectra.json"), encoding="utf-8") as handle:
            directions = json.load(handle)["estimates"]["directions_deg"]
        if directions != self.reference[index % self.captures]:
            raise GateError(f"call {index}: sidecar directions differ from the library result")
        return Outcome(0, [], _array_bytes(directions))

    def op(self, index: int) -> Op:
        argv = self._argv(index)
        return Op(lambda: cli.main(argv), lambda code: self._check(index, code))

    def gate(self, outputs: Sequence[bytes]) -> None:
        pass

    def _written_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.out_dir, name))
            for name in ("spectra.csv", "spectra.json")
        )

    def _call(self, stages, index: int) -> bytes:
        tracer = stages.tracer
        argv = self._argv(index)
        routed = pipeline.traced_cli(stages) if tracer.enabled else contextlib.nullcontext()
        with routed, tracer.span("cli.main"):
            code = cli.main(argv)
        outcome = self._check(index, code)
        tracer.count("cli.bytes_written", self._written_bytes())
        return outcome.output

    def traced(self, tracer) -> TracedResult:
        untraced_s, traced_s, outputs = interleave(tracer, self.traced_calls, self._call)
        truth = np.asarray(self.experiment.directions_deg, dtype=float)
        aligned = np.array([np.asarray(r)[list(match_sources(r, truth))] for r in self.reference])
        radius = self.experiment.geometry.wavelength / self.experiment.geometry.aperture / 2.0
        sin_error = np.abs(np.sin(np.radians(aligned)) - np.sin(np.radians(truth)))
        accuracy = {
            "harness.rmse_deg": float(np.sqrt(np.mean(np.sum((aligned - truth) ** 2, axis=1)))),
            "harness.resolve_rate": float(np.mean(np.all(sin_error <= radius, axis=1))),
            "harness.within_005_rate": _within_rate(aligned, truth),
        }
        return TracedResult(
            self.traced_calls, 0, [], untraced_s, traced_s, accuracy, b"".join(outputs)
        )


WORKLOADS = {
    "mc_wide": lambda: MonteCarloWorkload("mc_wide", "fig6a"),
    "mc_close": lambda: MonteCarloWorkload("mc_close", "fig6b"),
    "separation_sweep": SeparationSweepWorkload,
    "estimate_measured": EstimateMeasuredWorkload,
}
