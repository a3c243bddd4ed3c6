"""Seeded Monte-Carlo experiment runner.

Runs repeated synthesize / separate / estimate trials and aggregates them
into RMSE and resolve-rate curves against SNR or source separation, plus
the orthogonality-curve experiment comparing the true source cross
correlation with the one recovered from blind phase estimates.

Every trial seed is derived from (base seed, sweep index, trial index)
with a fixed 64-bit mix, so any single trial can be reproduced in
isolation and the aggregate report does not depend on execution order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .array_model import (
    ArrayGeometry,
    MeasurementMatrix,
    SourceScenario,
    build_geometry,
    synthesize,
)
from .correlation import cross_covariance, pair_correlation
from .errors import NUMERICAL_ERRORS, ConfigError, DomainError, InvalidParameterError
from .estimators import bss_mf, bss_nls, estimate_phase_offsets, match_sources
from .jade import jade_separate

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    """One output of the splitmix64 finalizer for the given state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, sweep_index: int, trial_index: int) -> int:
    """Mix (base seed, sweep index, trial index) into one 64-bit trial seed.

    The mix chains the splitmix64 finalizer:

        s0 = splitmix64(base_seed)
        s1 = splitmix64(s0 xor (sweep_index + 1))
        s2 = splitmix64(s1 xor (trial_index + 1))

    The +1 offsets keep index zero from collapsing into the xor identity.
    """
    state = _splitmix64(int(base_seed) & _MASK64)
    state = _splitmix64(state ^ ((int(sweep_index) + 1) & _MASK64))
    return _splitmix64(state ^ ((int(trial_index) + 1) & _MASK64))


@dataclass(frozen=True)
class GeometrySpec:
    """Recipe for building an :class:`ArrayGeometry` inside the harness."""

    layout: str
    subarrays: int
    elements: int
    spacing: float
    aperture: float
    wavelength: float
    seed: int = 0

    def build(self) -> ArrayGeometry:
        return build_geometry(
            self.layout,
            self.subarrays,
            self.elements,
            self.spacing,
            self.aperture,
            self.wavelength,
            seed=self.seed,
        )


@dataclass(frozen=True)
class TrialConfig:
    """Full description of one Monte-Carlo experiment.

    `sweep_axis` selects what `sweep_values` mean: "snr" values are SNR in
    dB, "separation" values place the second source at
    sin(theta_2) = sin(theta_1) + value * (wavelength / aperture), and
    "none" runs a single point at the configured scenario.

    Every instance is validated on construction, whether it comes from a
    config file, from `with_overrides` or from `dataclasses.replace`; a
    bad value raises `ConfigError`.
    """

    geometry: GeometrySpec
    directions_deg: Sequence[float]
    amplitudes: Sequence[complex]
    snr_db: float
    estimator: str
    grid_deg: Optional[Tuple[float, float, float]]
    sweep_axis: str = "none"
    sweep_values: Sequence[float] = ()
    trials: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.estimator not in ("bss_mf", "bss_nls"):
            raise ConfigError(
                f"estimator must be 'bss_mf' or 'bss_nls', got {self.estimator!r}"
            )
        if self.sweep_axis not in ("none", "snr", "separation"):
            raise ConfigError(
                f"sweep_axis must be 'none', 'snr' or 'separation', got {self.sweep_axis!r}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        values = np.asarray(self.sweep_values, dtype=float)
        if self.sweep_axis == "none":
            if values.size:
                raise ConfigError("sweep_values must be empty when sweep_axis is 'none'")
        else:
            if not values.size:
                raise ConfigError(f"sweep_axis {self.sweep_axis!r} needs sweep_values")
            if not np.all(np.isfinite(values)):
                raise ConfigError("sweep_values must be finite")
            if np.any(np.diff(values) < 0):
                raise ConfigError("sweep_values must be sorted ascending")
        if len(self.directions_deg) != len(self.amplitudes):
            raise ConfigError("directions_deg and amplitudes must have equal length")

    def with_overrides(
        self,
        seed: Optional[int] = None,
        trials: Optional[int] = None,
        snr_db: Optional[float] = None,
        estimator: Optional[str] = None,
    ) -> "TrialConfig":
        """A validated copy with every given (not None) value replaced."""
        if snr_db is not None and self.sweep_axis == "snr":
            raise ConfigError(
                "snr_db cannot be overridden on an SNR sweep: the sweep sets each point's SNR"
            )
        changes = {}
        if seed is not None:
            changes["base_seed"] = int(seed)
        if trials is not None:
            changes["trials"] = int(trials)
        if snr_db is not None:
            changes["snr_db"] = float(snr_db)
        if estimator is not None:
            changes["estimator"] = estimator
        return replace(self, **changes)

    def trial_config(self) -> "TrialConfig":
        """This config itself.

        Kept only because the benchmark scripts still call
        `load_packaged_config(name).trial_config()`.
        """
        return self

    def as_dict(self) -> dict:
        """Resolved config as plain data for the provenance sidecar."""
        return {
            "geometry": {
                "layout": self.geometry.layout,
                "subarrays": self.geometry.subarrays,
                "elements": self.geometry.elements,
                "spacing": self.geometry.spacing,
                "aperture": self.geometry.aperture,
                "wavelength": self.geometry.wavelength,
                "seed": self.geometry.seed,
            },
            "sources": {
                "directions_deg": list(self.directions_deg),
                "amplitudes": [
                    {
                        "magnitude": abs(a),
                        "phase_deg": math.degrees(math.atan2(a.imag, a.real)),
                    }
                    for a in self.amplitudes
                ],
            },
            "noise": {"snr_db": self.snr_db},
            "run": {
                "estimator": self.estimator,
                "grid": (
                    None
                    if self.grid_deg is None
                    else {
                        "start_deg": self.grid_deg[0],
                        "stop_deg": self.grid_deg[1],
                        "step_deg": self.grid_deg[2],
                    }
                ),
                "seed": self.base_seed,
                "trials": self.trials,
                "sweep": {
                    "axis": self.sweep_axis,
                    "values": list(self.sweep_values),
                },
            },
        }


@dataclass(frozen=True)
class TrialResult:
    """Aligned estimates from one trial, or the failure that ended it."""

    directions_deg: Optional[np.ndarray]
    truth_deg: np.ndarray
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.directions_deg is None


@dataclass(frozen=True)
class SweepPointReport:
    sweep_value: float
    rmse_deg: float
    resolve_rate: float
    trials_ok: int
    trials_failed: int
    estimates_deg: np.ndarray
    elapsed_s: float


@dataclass(frozen=True)
class MonteCarloReport:
    config: TrialConfig
    points: Tuple[SweepPointReport, ...] = field(default_factory=tuple)


def _point_scenario(config: TrialConfig, sweep_value: Optional[float]) -> Tuple[np.ndarray, float]:
    """Resolve (directions, noise variance) for one sweep point."""
    directions = np.asarray(config.directions_deg, dtype=float)
    snr_db = config.snr_db
    if config.sweep_axis == "snr" and sweep_value is not None:
        snr_db = float(sweep_value)
    elif config.sweep_axis == "separation" and sweep_value is not None:
        if directions.size != 2:
            raise InvalidParameterError("separation sweep needs exactly two sources")
        delta_sin = config.geometry.wavelength / config.geometry.aperture
        target = math.sin(math.radians(directions[0])) + float(sweep_value) * delta_sin
        if not -1.0 < target < 1.0:
            raise DomainError(f"swept separation pushes sin(theta) to {target}")
        directions = directions.copy()
        directions[1] = math.degrees(math.asin(target))
    return directions, 10.0 ** (-snr_db / 10.0)


def trial_snapshot(
    config: TrialConfig,
    geometry: ArrayGeometry,
    directions: Sequence[float],
    noise_var: float,
    sweep_index: int = 0,
    trial_index: int = 0,
) -> MeasurementMatrix:
    """Synthesize the seeded snapshot of one trial.

    The noise seed is `derive_seed(config.base_seed, sweep_index,
    trial_index)`, so the same trial always sees the same snapshot.
    """
    seed = derive_seed(config.base_seed, sweep_index, trial_index)
    scenario = SourceScenario(directions, config.amplitudes, noise_var, seed=seed)
    snapshot, _ = synthesize(geometry, scenario)
    return snapshot


def run_trial(
    config: TrialConfig,
    trial_index: int,
    sweep_index: int = 0,
    sweep_value: Optional[float] = None,
    geometry: Optional[ArrayGeometry] = None,
) -> TrialResult:
    """Run one synthesize / separate / estimate pass and align the result.

    Deterministic given (config.base_seed, sweep_index, trial_index); the
    noise seed is `derive_seed` of those three. Numerical failures
    (`errors.NUMERICAL_ERRORS`) are caught and reported as a failed trial;
    a configuration error raises.
    """
    if config.grid_deg is None:
        raise InvalidParameterError("estimation requires a search grid")
    if geometry is None:
        geometry = config.geometry.build()
    directions, noise_var = _point_scenario(config, sweep_value)
    try:
        snapshot = trial_snapshot(
            config, geometry, directions, noise_var, sweep_index, trial_index
        )
        separation = jade_separate(snapshot.data, directions.size)
        offsets = estimate_phase_offsets(separation)
        mf = bss_mf(snapshot.data, geometry, offsets, config.grid_deg)
        if config.estimator == "bss_nls":
            refined = bss_nls(snapshot.data, geometry, offsets, mf.directions_deg)
            estimates = refined.directions_deg
        else:
            estimates = mf.directions_deg
    except NUMERICAL_ERRORS as exc:
        return TrialResult(None, directions, error=f"{type(exc).__name__}: {exc}")
    order = match_sources(estimates, directions)
    return TrialResult(estimates[list(order)], directions)


def rmse_deg(results: Sequence[TrialResult]) -> float:
    """RMSE over successful trials: sqrt(mean of squared direction-vector errors)."""
    squares = [
        float(np.sum((r.directions_deg - r.truth_deg) ** 2))
        for r in results
        if not r.failed
    ]
    if not squares:
        return float("nan")
    return math.sqrt(sum(squares) / len(squares))


def _resolve_radius_sin(geometry: ArrayGeometry) -> float:
    # Half a resolution cell, applied in sin space where the cell is uniform.
    return geometry.resolution / 2.0


def _resolved(result: TrialResult, geometry: ArrayGeometry) -> bool:
    if result.failed:
        return False
    est = np.sin(np.radians(result.directions_deg))
    ref = np.sin(np.radians(result.truth_deg))
    return bool(np.all(np.abs(est - ref) <= _resolve_radius_sin(geometry)))


def monte_carlo(config: TrialConfig) -> MonteCarloReport:
    """Run the configured trials at every sweep point and aggregate.

    Each point reports RMSE over its successful trials, the fraction of
    trials with every source within half a resolution cell (in sin space)
    of its truth, and the failure count. A point where every trial failed
    carries NaN statistics and trials_ok = 0.
    """
    geometry = config.geometry.build()
    if config.sweep_axis == "none":
        sweep = [(0, None)]
    else:
        sweep = list(enumerate(float(v) for v in config.sweep_values))
    points = []
    for sweep_index, sweep_value in sweep:
        start = time.perf_counter()
        results = [
            run_trial(config, t, sweep_index, sweep_value, geometry=geometry)
            for t in range(config.trials)
        ]
        elapsed = time.perf_counter() - start
        ok = [r for r in results if not r.failed]
        resolve = (
            sum(_resolved(r, geometry) for r in ok) / len(ok) if ok else float("nan")
        )
        estimates = (
            np.array([r.directions_deg for r in ok])
            if ok
            else np.empty((0, len(config.directions_deg)))
        )
        if sweep_value is None:
            reported_value = config.snr_db
        else:
            reported_value = sweep_value
        points.append(
            SweepPointReport(
                sweep_value=reported_value,
                rmse_deg=rmse_deg(results),
                resolve_rate=resolve,
                trials_ok=len(ok),
                trials_failed=len(results) - len(ok),
                estimates_deg=estimates,
                elapsed_s=elapsed,
            )
        )
    return MonteCarloReport(config=config, points=tuple(points))


@dataclass(frozen=True)
class OrthogonalityPoint:
    separation_over_delta: float
    truth: float
    estimate: float
    trials_ok: int


def orthogonality_experiment(config: TrialConfig) -> Tuple[OrthogonalityPoint, ...]:
    """Compare true and blindly recovered source cross correlation.

    For each swept separation, the truth is |(1/K) sum_k phi_2k conj(phi_1k)|
    from the realized geometry, and the estimate is the matching statistic
    computed from the phase estimates of a separated noisy snapshot,
    averaged over the configured trials. Needs exactly two sources.
    """
    if len(config.directions_deg) != 2:
        raise InvalidParameterError("orthogonality experiment needs exactly two sources")
    if config.sweep_axis != "separation":
        raise InvalidParameterError("orthogonality experiment sweeps separation")
    geometry = config.geometry.build()
    points = []
    for sweep_index, value in enumerate(float(v) for v in config.sweep_values):
        directions, noise_var = _point_scenario(config, value)
        truth = abs(
            pair_correlation(
                geometry.inter_displacements,
                directions[0],
                directions[1],
                geometry.wavelength,
            )
        )
        estimates = []
        for trial in range(config.trials):
            try:
                snapshot = trial_snapshot(
                    config, geometry, directions, noise_var, sweep_index, trial
                )
                separated = jade_separate(snapshot.data, 2)
                offsets = estimate_phase_offsets(separated)
            except NUMERICAL_ERRORS:
                continue
            # |R_{2,1}| is permutation-proof: swapping the two recovered
            # rows only conjugates the off-diagonal entry.
            sample = cross_covariance(offsets.offsets).matrix
            estimates.append(abs(sample[1, 0]))
        points.append(
            OrthogonalityPoint(
                separation_over_delta=value,
                truth=float(truth),
                estimate=float(np.mean(estimates)) if estimates else float("nan"),
                trials_ok=len(estimates),
            )
        )
    return tuple(points)
