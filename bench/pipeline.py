"""The pcdoa trial pipeline composed from public stage functions.

`Stages` holds pcdoa's stage functions. With a recording tracer each one
is wrapped in a span named `<module>.<function>` that also records the
stage's counts; with a `NullTracer` they are the plain functions. The
composed trials mirror `harness.run_trial` and the trial loop of
`harness.orthogonality_experiment` step for step, so at the same seed
they must give the same numbers bit for bit.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os

import numpy as np

from pcdoa import array_model, cli, config, correlation, estimators, harness, jade, snapshot_io
from pcdoa.array_model import SourceScenario
from pcdoa.errors import (
    DegenerateInputError,
    DomainError,
    IdentifiabilityError,
    RankDeficiencyError,
)

# Errors that end one trial without ending the experiment. A config bug
# (InvalidParameterError) is deliberately absent: it must stop the run.
TRIAL_ERRORS = (
    DegenerateInputError,
    DomainError,
    IdentifiabilityError,
    RankDeficiencyError,
    np.linalg.LinAlgError,
)
FAILURE_TYPES = tuple(error.__name__ for error in TRIAL_ERRORS)

NLS_MAX_ITERATIONS = inspect.signature(estimators.bss_nls).parameters["max_iterations"].default


def signal_margin(whitening) -> float:
    """Smallest debiased signal eigenvalue over the noise estimate.

    Row l of the whitener is the l-th signal eigenvector scaled by
    gap_l^(-1/2), where gap_l is the eigenvalue minus the noise estimate,
    so 1 / ||row_l||^2 recovers gap_l.
    """
    gaps = 1.0 / np.sum(np.abs(whitening.whitener) ** 2, axis=1)
    return float(np.min(gaps) / whitening.noise_estimate)


def _count_whitening(tracer, result, args):
    tracer.minimum("jade.signal_margin", signal_margin(result))


def _count_sweeps(tracer, result, args):
    tracer.count("jade.jd_sweeps", result.sweeps)


def _count_degenerate(tracer, result, args):
    tracer.count("estimators.degenerate_cells", int(np.count_nonzero(result.degenerate_flags)))


def _count_nls(tracer, result, args):
    tracer.count("estimators.nls_iterations", result.iterations)
    tracer.count("estimators.nls_capped", int(result.iterations >= NLS_MAX_ITERATIONS))


def _count_bytes_read(tracer, result, args):
    tracer.count("snapshot_io.bytes_read", sum(os.path.getsize(path) for path in args[0]))


class Stages:
    """pcdoa's public stage functions, traced when the tracer records."""

    def __init__(self, tracer):
        self.tracer = tracer
        wrap = self._wrap
        self.synthesize = wrap("array_model.synthesize", array_model.synthesize)
        self.estimate_whitener = wrap(
            "jade.estimate_whitener", jade.estimate_whitener, _count_whitening
        )
        self.cumulant_matrix_set = wrap("jade.cumulant_matrix_set", jade.cumulant_matrix_set)
        self.joint_diagonalize = wrap(
            "jade.joint_diagonalize", jade.joint_diagonalize, _count_sweeps
        )
        self.jade_separate = wrap("jade.jade_separate", jade.jade_separate)
        self.estimate_phase_offsets = wrap(
            "estimators.estimate_phase_offsets", estimators.estimate_phase_offsets, _count_degenerate
        )
        self.bss_mf = wrap("estimators.bss_mf", estimators.bss_mf)
        self.bss_nls = wrap("estimators.bss_nls", estimators.bss_nls, _count_nls)
        self.match_sources = wrap("estimators.match_sources", estimators.match_sources)
        self.pair_correlation = wrap("correlation.pair_correlation", correlation.pair_correlation)
        self.cross_covariance = wrap("correlation.cross_covariance", correlation.cross_covariance)
        self.superpose_snapshots = wrap(
            "snapshot_io.superpose_snapshots", snapshot_io.superpose_snapshots, _count_bytes_read
        )
        self.load_config = wrap("config.load_config", config.load_config)
        self.load_packaged_config = wrap("config.load_config", config.load_packaged_config)

    def _wrap(self, name, function, observe=None):
        tracer = self.tracer
        if not tracer.enabled:
            return function

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = function(*args, **kwargs)
            if observe is not None:
                observe(tracer, result, args)
            return result

        return traced


@contextlib.contextmanager
def traced_cli(stages):
    """Route the stage calls `cli.main` makes through `stages` while open.

    `cli` holds its own references to the functions it imported, and
    `jade_separate` looks its sub-stages up in the `jade` module, so the
    wrappers replace those names for the duration and are then removed.
    """
    targets = [
        (cli, "load_config", stages.load_config),
        (cli, "load_packaged_config", stages.load_packaged_config),
        (cli, "superpose_snapshots", stages.superpose_snapshots),
        (cli, "jade_separate", stages.jade_separate),
        (cli, "estimate_phase_offsets", stages.estimate_phase_offsets),
        (cli, "bss_mf", stages.bss_mf),
        (cli, "bss_nls", stages.bss_nls),
        (jade, "estimate_whitener", stages.estimate_whitener),
        (jade, "cumulant_matrix_set", stages.cumulant_matrix_set),
        (jade, "joint_diagonalize", stages.joint_diagonalize),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, replacement in targets:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _separate(stages, snapshot, n_sources):
    whitening = stages.estimate_whitener(snapshot.data, n_sources)
    cumulants = stages.cumulant_matrix_set(whitening.whitened)
    diagonalizer = stages.joint_diagonalize(cumulants)
    recovered = diagonalizer.rotation.conj().T @ whitening.whitened
    return stages.estimate_phase_offsets(recovered)


def monte_carlo_trial(stages, trial_config, geometry, trial_index, sweep_index, snr_db):
    """One `run_trial` at an SNR point: (aligned estimates, None) or (None, error type)."""
    directions = np.asarray(trial_config.directions_deg, dtype=float)
    noise_variance = 10.0 ** (-float(snr_db) / 10.0)
    with stages.tracer.span("harness.trial"):
        seed = harness.derive_seed(trial_config.base_seed, sweep_index, trial_index)
        scenario = SourceScenario(directions, trial_config.amplitudes, noise_variance, seed=seed)
        try:
            snapshot, _ = stages.synthesize(geometry, scenario)
            offsets = _separate(stages, snapshot, directions.size)
            matched = stages.bss_mf(snapshot.data, geometry, offsets, trial_config.grid_deg)
            estimates = matched.directions_deg
            if trial_config.estimator == "bss_nls":
                refined = stages.bss_nls(snapshot.data, geometry, offsets, matched.directions_deg)
                estimates = refined.directions_deg
        except TRIAL_ERRORS as exc:
            return None, type(exc).__name__
        order = stages.match_sources(estimates, directions)
        return estimates[list(order)], None


def orthogonality_point(stages, trial_config, geometry, sweep_index, separation):
    """One separation point of `orthogonality_experiment`.

    Returns (truth, mean estimate or NaN, trials ok, error type names).
    """
    directions = np.asarray(trial_config.directions_deg, dtype=float).copy()
    noise_variance = 10.0 ** (-trial_config.snr_db / 10.0)
    delta_sin = trial_config.geometry.wavelength / trial_config.geometry.aperture
    target = math.sin(math.radians(directions[0])) + float(separation) * delta_sin
    directions[1] = math.degrees(math.asin(target))
    truth = abs(
        stages.pair_correlation(
            geometry.inter_displacements, directions[0], directions[1], geometry.wavelength
        )
    )
    estimates = []
    errors = []
    for trial in range(trial_config.trials):
        with stages.tracer.span("harness.trial"):
            seed = harness.derive_seed(trial_config.base_seed, sweep_index, trial)
            scenario = SourceScenario(
                directions, trial_config.amplitudes, noise_variance, seed=seed
            )
            try:
                snapshot, _ = stages.synthesize(geometry, scenario)
                offsets = _separate(stages, snapshot, 2)
            except TRIAL_ERRORS as exc:
                errors.append(type(exc).__name__)
                continue
            sample = stages.cross_covariance(offsets.offsets).matrix
            estimates.append(abs(sample[1, 0]))
    mean = float(np.mean(estimates)) if estimates else float("nan")
    return float(truth), mean, len(estimates), errors


def estimate_directions(stages, paths, experiment, geometry):
    """What `pcdoa estimate --add ...` computes for the superposed snapshot."""
    snapshot = stages.superpose_snapshots(paths, geometry)
    separated = stages.jade_separate(snapshot.data, len(experiment.directions_deg))
    offsets = stages.estimate_phase_offsets(separated)
    matched = stages.bss_mf(snapshot.data, geometry, offsets, experiment.grid_deg)
    if experiment.estimator != "bss_nls":
        return matched.directions_deg
    return stages.bss_nls(snapshot.data, geometry, offsets, matched.directions_deg).directions_deg
