"""The estimation pipeline and the seeded Monte-Carlo experiment runner.

`estimate` runs the paper's estimator on one snapshot for `run_trial` and
the CLI; trials aggregate into RMSE and resolve-rate curves against SNR or
source separation. The orthogonality-curve experiment compares the true
source cross correlation with the one recovered from blind phase estimates.

Every trial seed is derived from (base seed, sweep index, trial index)
with a fixed 64-bit mix, so any single trial can be reproduced in
isolation and the aggregate report does not depend on execution order.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter, abc
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Optional, Sequence, Tuple

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
from .estimators import angle_grid, bss_mf, bss_nls, estimate_phase_offsets, match_sources
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


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _number_tuple(values, name, count=None, kind=float) -> tuple:
    """``values`` as a tuple of ``kind``, float or complex (``count`` of them
    if given); ConfigError for a bool, text, a mapping or a set."""
    ordered = np.iterable(values) and not isinstance(values, (abc.Mapping, abc.Set))
    entries = tuple(values) if ordered else None
    number = numbers.Real if kind is float else numbers.Complex
    all_numbers = entries is not None and all(_is_number(v, number) for v in entries)
    if not all_numbers or count not in (None, len(entries)):
        what = "numbers" if count is None else f"{count} numbers"
        raise ConfigError(f"{name} must be {what}, got {values!r}")
    return tuple(map(kind, entries))


@dataclass(frozen=True)
class GeometrySpec:
    """Recipe for building an :class:`ArrayGeometry` inside the harness.

    Construction refuses a value that is not a number (a bool, text or
    None) or a fractional `seed` with `ConfigError("geometry: ...")`, and
    stores lengths as floats and whole counts as ints; `build_geometry`
    refuses a fractional count."""

    layout: str
    subarrays: int
    elements: int
    spacing: float
    aperture: float
    wavelength: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("spacing", "aperture", "wavelength", "subarrays", "elements", "seed"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"geometry: {name} must be a number, got {value!r}")
            if name in ("spacing", "aperture", "wavelength"):
                value = float(value)
            # build_geometry's whole-number rule; an int skips float, which 10**400 overflows.
            elif isinstance(value, numbers.Integral) or float(value).is_integer():
                value = int(value)
            elif name == "seed":
                raise ConfigError(f"geometry: seed must be a whole number, got {value!r}")
            object.__setattr__(self, name, value)

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
    dB, "separation" values place the second of exactly two sources at
    sin(theta_2) = sin(theta_1) + value * (wavelength / aperture), and
    "none" runs a single point at the configured scenario. `scenario`
    resolves one point into its directions and noise variance.

    Every instance is checked and normalized on construction, the same
    way whether it comes from a config file, `with_overrides` or
    `dataclasses.replace`; a bad value, a bool, text or None included,
    raises `ConfigError`. `GeometrySpec` checks its own fields, and the
    objects a run builds check theirs: construction builds the geometry
    and the configured `SourceScenario` and expands the grid, reporting
    their refusals as "geometry: ...", "sources: ..." and "run.grid: ...",
    and resolves every sweep point through `scenario`. This class checks
    the estimator, the sweep axis and values, whole-number `trials` (at
    least 1), a `base_seed` in [0, 2**64), nonzero amplitudes, a finite
    SNR, a three-number grid and fewer sources than elements per subarray
    and than subarrays. It stores every number as a Python float, complex
    or int, so a config built in code writes the same sidecar as its YAML
    twin.

    Construction keeps the geometry it builds as `array_geometry`, the one
    geometry every run of this config uses; a copy made by `replace` or
    `with_overrides` builds its own.
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
    array_geometry: ArrayGeometry = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.estimator not in ("bss_mf", "bss_nls"):
            raise ConfigError(
                f"estimator must be 'bss_mf' or 'bss_nls', got {self.estimator!r}"
            )
        if self.sweep_axis not in ("none", "snr", "separation"):
            raise ConfigError(
                f"sweep_axis must be 'none', 'snr' or 'separation', got {self.sweep_axis!r}"
            )
        for name in ("trials", "base_seed"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 <= self.base_seed <= _MASK64:
            raise ConfigError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        try:
            object.__setattr__(self, "array_geometry", self.geometry.build())
        except InvalidParameterError as exc:
            raise ConfigError(f"geometry: {exc}") from None
        values = _number_tuple(self.sweep_values, "sweep_values")
        object.__setattr__(self, "sweep_values", values)
        if self.sweep_axis == "none":
            if values:
                raise ConfigError("sweep_values must be empty when sweep_axis is 'none'")
        else:
            if not values:
                raise ConfigError(f"sweep_axis {self.sweep_axis!r} needs sweep_values")
            if not np.all(np.isfinite(values)):
                raise ConfigError("sweep_values must be finite")
            if np.any(np.diff(values) < 0):
                raise ConfigError("sweep_values must be sorted ascending")
        try:
            # Noise-free: the noise variance is checked by `scenario` below.
            SourceScenario(self.directions_deg, self.amplitudes, 0.0)
            # SourceScenario lets numpy convert text and bools; a config does not.
            directions = _number_tuple(self.directions_deg, "directions_deg")
            amplitudes = _number_tuple(self.amplitudes, "amplitudes", kind=complex)
        except InvalidParameterError as exc:
            raise ConfigError(f"sources: {exc}") from None
        # A silent source would run every trial and report a meaningless RMSE.
        if 0 in amplitudes:
            raise ConfigError(f"sources: amplitudes must be nonzero, got {amplitudes}")
        object.__setattr__(self, "directions_deg", directions)
        object.__setattr__(self, "amplitudes", amplitudes)
        if len(self.directions_deg) >= self.array_geometry.elements_per_subarray:
            raise ConfigError(
                f"need fewer sources ({len(self.directions_deg)}) than elements "
                f"per subarray ({self.array_geometry.elements_per_subarray})"
            )
        # JADE's cumulants take the K subarray snapshots as their samples.
        if len(self.directions_deg) >= self.array_geometry.subarray_count:
            raise ConfigError(
                f"need fewer sources ({len(self.directions_deg)}) than "
                f"subarrays ({self.array_geometry.subarray_count})"
            )
        if not (_is_number(self.snr_db) and math.isfinite(self.snr_db)):
            raise ConfigError(f"snr_db must be a finite number, got {self.snr_db!r}")
        object.__setattr__(self, "snr_db", float(self.snr_db))
        if self.grid_deg is not None:
            try:
                grid = _number_tuple(self.grid_deg, "grid", count=3)
                angle_grid(*grid)
            except (InvalidParameterError, DomainError) as exc:
                raise ConfigError(f"run.grid: {exc}") from None
            object.__setattr__(self, "grid_deg", grid)
        for value in self.sweep_values or (None,):
            self.scenario(value)

    def scenario(self, sweep_value: Optional[float] = None) -> Tuple[np.ndarray, float]:
        """(directions in degrees, noise variance) of one sweep point.

        `None` gives the configured scenario. Raises `ConfigError` for a
        separation that needs other than two sources or that pushes
        sin(theta_2) outside (-1, 1), and for an SNR so low that the noise
        variance overflows.
        """
        directions = np.array(self.directions_deg, dtype=float)
        snr_db = self.snr_db
        if sweep_value is not None and self.sweep_axis == "snr":
            snr_db = float(sweep_value)
        elif sweep_value is not None and self.sweep_axis == "separation":
            if directions.size != 2:
                raise ConfigError(f"separation sweep needs two sources, got {directions.size}")
            delta_sin = self.geometry.wavelength / self.geometry.aperture
            target = math.sin(math.radians(directions[0])) + float(sweep_value) * delta_sin
            if not -1.0 < target < 1.0:
                raise ConfigError(f"separation {sweep_value} puts sin(theta_2) at {target}")
            directions[1] = math.degrees(math.asin(target))
        try:
            return directions, 10.0 ** (-snr_db / 10.0)
        except OverflowError:
            raise ConfigError(f"snr_db {snr_db} makes the noise variance overflow") from None

    def required_grid(self) -> Tuple[float, float, float]:
        """The (start, stop, step) grid that estimation searches; raises
        `ConfigError` when the config has none."""
        if self.grid_deg is None:
            raise ConfigError("estimation needs run.grid in the config")
        return self.grid_deg

    def with_overrides(
        self,
        seed: Optional[int] = None,
        trials: Optional[int] = None,
        snr_db: Optional[float] = None,
        estimator: Optional[str] = None,
    ) -> "TrialConfig":
        """A validated copy with every given (not None) value replaced;
        this config itself when no value is given."""
        if snr_db is not None and self.sweep_axis == "snr":
            raise ConfigError(
                "snr_db cannot be overridden on an SNR sweep: the sweep sets each point's SNR"
            )
        given = {"base_seed": seed, "trials": trials, "snr_db": snr_db, "estimator": estimator}
        changes = {name: value for name, value in given.items() if value is not None}
        return replace(self, **changes) if changes else self

    def trial_config(self) -> "TrialConfig":
        """This config itself.

        Kept only because the benchmark scripts still call
        `load_packaged_config(name).trial_config()`.
        """
        return self

    def as_dict(self) -> dict:
        """Resolved config as plain data for the provenance sidecar."""
        return {
            "geometry": asdict(self.geometry),
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
    """Aggregate of one sweep point, free of wall-clock times; ``failures``
    counts the failed trials by exception type name."""

    sweep_value: float
    rmse_deg: float
    resolve_rate: float
    trials_ok: int
    trials_failed: int
    failures: Mapping[str, int]
    estimates_deg: np.ndarray


@dataclass(frozen=True)
class MonteCarloReport:
    config: TrialConfig
    points: Tuple[SweepPointReport, ...] = field(default_factory=tuple)


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


def estimate(config: TrialConfig, geometry: ArrayGeometry, snapshot: MeasurementMatrix) -> tuple:
    """Run the paper's estimator on one snapshot: (offsets, matched, result).

    JADE separation, phase offsets, `bss_mf` on `config.required_grid()`
    and, for the "bss_nls" estimator, `bss_nls` from the matched-filter
    peaks; `result` is `matched` for "bss_mf".
    """
    grid = config.required_grid()
    separated = jade_separate(snapshot.data, len(config.directions_deg))
    offsets = estimate_phase_offsets(separated)
    matched = bss_mf(snapshot.data, geometry, offsets, grid)
    if config.estimator == "bss_mf":
        return offsets, matched, matched
    return offsets, matched, bss_nls(snapshot.data, geometry, offsets, matched.directions_deg)


def run_trial(
    config: TrialConfig,
    trial_index: int,
    sweep_index: int = 0,
    sweep_value: Optional[float] = None,
    geometry: Optional[ArrayGeometry] = None,
) -> TrialResult:
    """Synthesize one trial's snapshot, `estimate` from it and align the result.

    Deterministic given (config.base_seed, sweep_index, trial_index); the
    noise seed is `derive_seed` of those three. Numerical failures
    (`errors.NUMERICAL_ERRORS`) are caught and reported as a failed trial;
    a configuration error, such as a missing grid, raises before the
    snapshot is synthesized. `geometry` defaults to `config.array_geometry`.
    """
    config.required_grid()
    if geometry is None:
        geometry = config.array_geometry
    directions, noise_var = config.scenario(sweep_value)
    try:
        snapshot = trial_snapshot(
            config, geometry, directions, noise_var, sweep_index, trial_index
        )
        estimates = estimate(config, geometry, snapshot)[2].directions_deg
    except NUMERICAL_ERRORS as exc:
        return TrialResult(None, directions, error=f"{type(exc).__name__}: {exc}")
    order = match_sources(estimates, directions)
    return TrialResult(estimates[list(order)], directions)


def rmse_deg(results: Sequence[TrialResult]) -> float:
    """RMSE over successful trials: sqrt(mean of squared direction-vector errors)."""
    squares = [
        float(((r.directions_deg - r.truth_deg) ** 2).sum())
        for r in results
        if not r.failed
    ]
    if not squares:
        return float("nan")
    return math.sqrt(sum(squares) / len(squares))


def monte_carlo(config: TrialConfig) -> MonteCarloReport:
    """Run the configured trials at every sweep point and aggregate.

    Each point reports RMSE over its successful trials, the fraction of
    trials with every source within half a resolution cell (in sin space)
    of its truth, and the failure count, also by exception type. A point
    where every trial failed carries NaN statistics and trials_ok = 0.
    """
    # Half a resolution cell, applied in sin space where the cell is uniform.
    radius = config.array_geometry.resolution / 2.0
    points = []
    # Unswept, the one point is reported at the SNR, which `scenario` ignores.
    for sweep_index, sweep_value in enumerate(config.sweep_values or (config.snr_db,)):
        results = [run_trial(config, t, sweep_index, sweep_value) for t in range(config.trials)]
        ok = [r for r in results if not r.failed]
        estimates = (
            np.array([r.directions_deg for r in ok])
            if ok
            else np.empty((0, len(config.directions_deg)))
        )
        truth = np.sin(np.radians(config.scenario(sweep_value)[0]))
        resolved = (np.abs(np.sin(np.radians(estimates)) - truth) <= radius).all(axis=1)
        points.append(
            SweepPointReport(
                sweep_value=sweep_value,
                rmse_deg=rmse_deg(results),
                resolve_rate=float(resolved.mean()) if ok else float("nan"),
                trials_ok=len(ok),
                trials_failed=len(results) - len(ok),
                failures=Counter(r.error.split(":", 1)[0] for r in results if r.failed),
                estimates_deg=estimates,
            )
        )
    return MonteCarloReport(config=config, points=tuple(points))


@dataclass(frozen=True)
class OrthogonalityPoint:
    """One separation point; ``failures`` counts the failed trials by
    exception type name."""

    separation_over_delta: float
    truth: float
    estimate: float
    trials_ok: int
    failures: Mapping[str, int]


def orthogonality_experiment(config: TrialConfig) -> Tuple[OrthogonalityPoint, ...]:
    """Compare true and blindly recovered source cross correlation.

    For each swept separation, the truth is |(1/K) sum_k phi_2k conj(phi_1k)|
    from the realized geometry, and the estimate is the matching statistic
    computed from the phase estimates of a separated noisy snapshot,
    averaged over the trials that did not fail numerically. Needs a
    separation sweep, which `TrialConfig` holds to exactly two sources.
    """
    if config.sweep_axis != "separation":
        raise InvalidParameterError("orthogonality experiment sweeps separation")
    geometry = config.array_geometry
    points = []
    for sweep_index, value in enumerate(config.sweep_values):
        directions, noise_var = config.scenario(value)
        truth = abs(
            pair_correlation(
                geometry.inter_displacements,
                directions[0],
                directions[1],
                geometry.wavelength,
            )
        )
        estimates = []
        failures = Counter()
        for trial in range(config.trials):
            try:
                snapshot = trial_snapshot(
                    config, geometry, directions, noise_var, sweep_index, trial
                )
                separated = jade_separate(snapshot.data, 2)
                offsets = estimate_phase_offsets(separated)
            except NUMERICAL_ERRORS as exc:
                failures[type(exc).__name__] += 1
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
                failures=failures,
            )
        )
    return tuple(points)
