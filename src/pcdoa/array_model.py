"""Geometry and signal synthesis for partly calibrated distributed arrays.

A partly calibrated array is made of K identical linear subarrays with M
elements each.  Displacements of elements inside a subarray are known and
shared across subarrays; the offset of each subarray along the array axis
is unknown except for the first one, which serves as the phase reference.
Each subarray contributes a single temporal snapshot, and the K snapshots
are stacked column-wise into an M x K measurement matrix.

Angles are degrees at every public interface and radians internally.

Arrays cross every boundary of the pipeline by one rule, written once
here. A frozen record keeps a read-only copy of each array field
(`_frozen`, applied field by field by `_freeze`), so the caller's array
stays writable and nothing the caller does changes the record. A stage
reads its input matrix through `_matrix`, from a record's field or a bare
array, as a nonempty 2-D complex matrix. Entries that are not numbers or
not finite, an array numpy reads as text, bytes or bools, ragged input,
the wrong rank and empty input all raise `InvalidParameterError`.

Parameters cross the library boundary by one number rule (`_number`,
`_numbers`, `_whole`): a number is a `numbers.Real`, or a `numbers.Complex`
for an amplitude, that is not a bool and fits a float (a count or seed may
be any whole number); it comes back as a Python number. Anything else,
text and None included, raises `InvalidParameterError`. Every public
function and record reads its scalar and sequence parameters by this
rule and its array entries by `_frozen`.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from collections import abc
from dataclasses import dataclass

import numpy as np

from .errors import IdentifiabilityError, InvalidParameterError

_MAX_ELEMENTS = 1_000_000  # 10**4 times the largest packaged array (10 x 10)
_CONVERT = {numbers.Integral: int, numbers.Real: float, numbers.Complex: complex}

__all__ = [
    "ArrayGeometry",
    "SourceScenario",
    "MeasurementMatrix",
    "SourceSignalMatrix",
    "build_geometry",
    "steering_vector",
    "phase_offset",
    "synthesize",
]


def _number(value, name, kind=numbers.Real, finite=False):
    """``value`` as the Python int, float or complex of ``kind``
    (`numbers.Integral`, `numbers.Real` or `numbers.Complex`);
    InvalidParameterError for a bool, anything else that is not a ``kind``,
    an integer too large for a float and, with ``finite``, nan or inf."""
    if isinstance(value, kind) and not isinstance(value, bool):
        try:
            number = _CONVERT[kind](value)
            if not finite or cmath.isfinite(number):
                return number
        except OverflowError:
            pass
    what = "an integer" if kind is numbers.Integral else "a finite number" if finite else "a number"
    raise InvalidParameterError(f"{name} must be {what}, got {value!r}")


def _numbers(values, name, kind=numbers.Real, count=None):
    """``values`` as a tuple of `_number` entries of ``kind``, ``count`` of
    them if given; InvalidParameterError for a value that is not an ordered
    sequence (a single number, text, a mapping or a set) or holds any other
    entry."""
    ordered = np.iterable(values) and not isinstance(values, (str, bytes, abc.Mapping, abc.Set))
    try:
        entries = tuple(_number(value, name, kind) for value in values) if ordered else None
    except InvalidParameterError:
        entries = None
    if entries is None or count not in (None, len(entries)):
        what = "numbers" if count is None else f"{count} numbers"
        raise InvalidParameterError(f"{name} must be {what}, got {values!r}")
    return entries


def _whole(value, name):
    """``value`` as an int when it is a whole number: an integer of any size
    or a `_number` float such as 4.0; InvalidParameterError otherwise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = _number(value, name)
    if not number.is_integer():
        raise InvalidParameterError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _frozen(values, dtype, name):
    """A read-only copy of ``values`` as ``dtype``, so the record owns it and
    the caller's array stays writable; InvalidParameterError unless the
    entries form a regular array of numbers that numpy does not read as
    text, bytes or (for any ``dtype`` but bool) bools. Only the dtype numpy
    gives ``values`` is read, so a bool inside a list of numbers passes,
    except for an object-dtype input: there each entry must be a
    `numbers.Number`, and a bool only for a bool ``dtype``."""
    refused = "US" if dtype is bool else "USb"
    try:
        given = np.asarray(values)
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        arr = None
    else:
        kinds = given.dtype.kind
        if kinds == "O":  # numpy kept the entries as Python objects
            kinds = {
                "b" if isinstance(v, (bool, np.bool_)) else "f" if isinstance(v, numbers.Number) else "U"
                for v in given.flat
            }
    if arr is None or not set(kinds).isdisjoint(refused):
        raise InvalidParameterError(f"{name} must be numbers, got {values!r}")
    arr.setflags(write=False)
    return arr


def _freeze(record, **dtypes):
    """Replace each named field of a frozen record that is not None by its
    `_frozen` copy of the given dtype."""
    for name, dtype in dtypes.items():
        value = getattr(record, name)
        if value is not None:
            object.__setattr__(record, name, _frozen(value, dtype, name))


def _matrix(value, name, field="data"):
    """The ``field`` of a record, or ``value`` itself, as a `_frozen`
    nonempty, finite 2-D complex matrix; InvalidParameterError otherwise."""
    if not isinstance(value, np.ndarray):  # an ndarray's own `data` is its buffer
        value = getattr(value, field, value)
    arr = _frozen(value, complex, name)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidParameterError(f"{name} must form a nonempty 2-D matrix")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    return arr


def _frozen_float_array(values, name):
    arr = _frozen(_numbers(values, name), float, name)
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ArrayGeometry:
    """Layout of a partly calibrated array.

    Parameters
    ----------
    wavelength : float
        Carrier wavelength, in any consistent length unit.
    intra_displacements : array_like
        Known displacements of the M elements inside one subarray.
        The first entry must be 0.
    inter_displacements : array_like
        Offsets of the K subarrays along the array axis.  The first entry
        must be 0 (reference subarray); the rest are typically unknown to
        the estimator and only used for synthesis and oracles.
    """

    wavelength: float
    intra_displacements: np.ndarray
    inter_displacements: np.ndarray

    def __post_init__(self):
        wavelength = _number(self.wavelength, "wavelength")
        if not (np.isfinite(wavelength) and wavelength > 0):
            raise InvalidParameterError("wavelength must be positive and finite")
        eta = _frozen_float_array(self.intra_displacements, "intra_displacements")
        xi = _frozen_float_array(self.inter_displacements, "inter_displacements")
        if eta.size < 2 or xi.size < 1:
            raise InvalidParameterError(
                "need at least 2 elements per subarray and at least 1 subarray"
            )
        if eta[0] != 0.0 or xi[0] != 0.0:
            raise InvalidParameterError(
                "first intra and inter displacement must both be 0"
            )
        object.__setattr__(self, "wavelength", wavelength)
        object.__setattr__(self, "intra_displacements", eta)
        object.__setattr__(self, "inter_displacements", xi)

    @property
    def elements_per_subarray(self) -> int:
        return self.intra_displacements.size

    @property
    def subarray_count(self) -> int:
        return self.inter_displacements.size

    @property
    def element_positions(self) -> np.ndarray:
        """Absolute element positions, subarray-major order."""
        pos = self.inter_displacements[:, None] + self.intra_displacements[None, :]
        return pos.ravel()

    @property
    def aperture(self) -> float:
        """Span of the realized element positions."""
        pos = self.element_positions
        return float(pos.max() - pos.min())

    @property
    def resolution(self) -> float:
        """Sin-space resolution cell wavelength/aperture."""
        aperture = self.aperture
        if aperture <= 0:
            raise InvalidParameterError("aperture must be positive for a resolution")
        return self.wavelength / aperture


@dataclass(frozen=True)
class SourceScenario:
    """Far-field sources impinging on the array plus the noise level.

    Parameters
    ----------
    directions_deg : array_like
        Source directions in degrees, each strictly inside (-90, 90).
    amplitudes : array_like
        Complex source amplitudes, one per direction.
    noise_variance : float
        Variance sigma^2 of the circular complex noise per matrix entry;
        the conventional SNR of a scenario is 1/sigma^2.
    seed : int
        Seed for the noise generator, for bit-for-bit reproducibility.
    """

    directions_deg: np.ndarray
    amplitudes: np.ndarray
    noise_variance: float
    seed: int = 0

    def __post_init__(self):
        if not np.iterable(self.directions_deg):
            raise InvalidParameterError("directions_deg must be a 1-D sequence")
        # Plain Python checks the rule's few entries faster than numpy would.
        theta = _numbers(self.directions_deg, "directions_deg")
        if not theta:
            raise InvalidParameterError("need at least one source")
        if not all(map(math.isfinite, theta)):
            raise InvalidParameterError("directions_deg must be finite")
        if not all(abs(t) < 90.0 for t in theta):
            raise InvalidParameterError(
                f"directions_deg must lie strictly inside (-90, 90) degrees, got {list(theta)}"
            )
        amp = _numbers(self.amplitudes, "amplitudes", numbers.Complex)
        if len(amp) != len(theta):
            raise InvalidParameterError("amplitudes must match directions in length")
        if not all(map(cmath.isfinite, amp)):
            raise InvalidParameterError("amplitudes must be finite")
        noise_variance = _number(self.noise_variance, "noise_variance")
        if not (math.isfinite(noise_variance) and noise_variance >= 0):
            raise InvalidParameterError("noise_variance must be nonnegative")
        seed = _whole(self.seed, "seed")
        if seed < 0:
            raise InvalidParameterError("seed must be a nonnegative integer")
        if max(theta) > 0 > min(theta):
            # The model assumes all sources on one side of broadside.
            warnings.warn(
                "directions span both sides of broadside; the single-side "
                "assumption of the signal model is violated",
                UserWarning,
                stacklevel=3,  # past the dataclass __init__ to its caller
            )
        object.__setattr__(self, "directions_deg", _frozen(theta, float, "directions_deg"))
        object.__setattr__(self, "amplitudes", _frozen(amp, complex, "amplitudes"))
        object.__setattr__(self, "noise_variance", noise_variance)
        object.__setattr__(self, "seed", seed)

    @property
    def source_count(self) -> int:
        return self.directions_deg.size


@dataclass(frozen=True)
class MeasurementMatrix:
    """Stacked single snapshots; column k holds the snapshot of subarray k."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _matrix(self.data, "data"))


@dataclass(frozen=True)
class SourceSignalMatrix:
    """L x K source rows; row l is s_l times the per-subarray phase offsets."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _matrix(self.data, "data"))


def build_geometry(
    layout,
    subarray_count,
    elements_per_subarray,
    element_spacing,
    aperture,
    wavelength,
    seed=None,
):
    """Construct a uniform-subarray geometry.

    Parameters
    ----------
    layout : {"equidistant", "uniform_random"}
        Equidistant places subarray k at (k-1) * aperture / (K-1); the
        random layout pins the first subarray at 0 and draws the others
        i.i.d. uniform on [0, aperture].
    subarray_count, elements_per_subarray : int
        K >= 2 subarrays of M >= 2 elements; a count that is not a whole
        number is refused, not truncated, and M K above ``_MAX_ELEMENTS``
        is refused before anything is allocated.
    element_spacing : float
        Spacing d between adjacent elements inside one subarray.
    aperture : float
        Placement span D for the subarray offsets; finite, and must exceed
        the subarray length (M-1) * d.
    wavelength : float
        Carrier wavelength.
    seed : int, optional
        Non-negative whole-number seed for the random layout; the
        equidistant one checks it like any argument but does not use it.

    Returns
    -------
    ArrayGeometry
    """
    if layout not in ("equidistant", "uniform_random"):
        raise InvalidParameterError(f"unknown layout {layout!r}")
    # An integer beyond float range is whole; the size rule below refuses it.
    k_count = _whole(subarray_count, "subarray_count")
    m_count = _whole(elements_per_subarray, "elements_per_subarray")
    if k_count < 2 or m_count < 2:
        raise InvalidParameterError("need subarray_count >= 2 and elements_per_subarray >= 2")
    if k_count * m_count > _MAX_ELEMENTS:
        raise InvalidParameterError(
            f"{k_count} subarrays of {m_count} elements exceed {_MAX_ELEMENTS} elements"
        )
    element_spacing = _number(element_spacing, "element_spacing")
    aperture = _number(aperture, "aperture")
    if not (element_spacing > 0):
        raise InvalidParameterError("element_spacing must be positive")
    if not ((m_count - 1) * element_spacing < aperture < np.inf):
        raise InvalidParameterError(
            "aperture must be finite and exceed the subarray length (M-1)*element_spacing"
        )
    if seed is not None:
        seed = _whole(seed, "seed")
    if layout == "uniform_random" and seed is not None and seed < 0:
        raise InvalidParameterError(f"uniform_random seed must be non-negative, got {seed}")
    eta = np.arange(m_count) * element_spacing
    if layout == "equidistant":
        xi = np.arange(k_count) * (aperture / (k_count - 1))
    else:
        rng = np.random.default_rng(seed)
        xi = np.concatenate(([0.0], rng.uniform(0.0, aperture, k_count - 1)))
    return ArrayGeometry(wavelength, eta, xi)


def _check_direction_deg(direction_deg):
    theta = _number(direction_deg, "direction")
    if not (-90.0 < theta < 90.0):
        raise InvalidParameterError("direction must lie strictly inside (-90, 90) degrees")
    return np.radians(theta)


def steering_vector(geometry, direction_deg):
    """Subarray steering vector for one direction.

    Entry m is exp(j * 2 pi / wavelength * eta_m * sin(theta)); the first
    entry is always 1 because eta_1 = 0.
    """
    return _steering_matrix(geometry, _check_direction_deg(direction_deg))[:, 0]


def phase_offset(inter_displacement, direction_deg, wavelength):
    """Unit-modulus phase factor of a subarray at the given offset.

    Accepts a scalar or an array of offsets and broadcasts over them.
    """
    if not (_number(wavelength, "wavelength") > 0):
        raise InvalidParameterError("wavelength must be positive")
    theta = _check_direction_deg(direction_deg)
    xi = _frozen(inter_displacement, float, "inter_displacement")
    result = np.exp(1j * 2.0 * np.pi / wavelength * xi * np.sin(theta))
    return complex(result) if np.isscalar(inter_displacement) else result


def _steering_matrix(geometry, theta_rad):
    """M x L steering matrix at radian directions; internal kernel."""
    theta_rad = np.atleast_1d(np.asarray(theta_rad, dtype=float))
    wavenumber = 2.0 * np.pi / geometry.wavelength
    return np.exp(
        1j * wavenumber * geometry.intra_displacements[:, None] * np.sin(theta_rad)[None, :]
    )


def _offset_matrix(geometry, theta_rad):
    """L x K matrix of phase offsets at radian directions; internal kernel."""
    theta_rad = np.atleast_1d(np.asarray(theta_rad, dtype=float))
    wavenumber = 2.0 * np.pi / geometry.wavelength
    return np.exp(
        1j * wavenumber * np.sin(theta_rad)[:, None] * geometry.inter_displacements[None, :]
    )


def synthesize(geometry, scenario):
    """Draw one measurement matrix of the multiple-measurement model.

    Builds X = B S + N where B collects the subarray steering vectors of
    the scenario directions, row l of S is the amplitude s_l spread over
    the unknown per-subarray phase offsets, and N is circular complex
    Gaussian noise with variance ``scenario.noise_variance`` per entry
    (sigma^2 / 2 per real component).

    Returns
    -------
    (MeasurementMatrix, SourceSignalMatrix)
        The noisy measurement and the exact noise-free source rows.
    """
    n_src = scenario.source_count
    if n_src >= geometry.elements_per_subarray:
        raise IdentifiabilityError(
            f"need fewer sources ({n_src}) than elements per subarray "
            f"({geometry.elements_per_subarray})"
        )
    theta = np.radians(scenario.directions_deg)
    b = _steering_matrix(geometry, theta)
    s = scenario.amplitudes[:, None] * _offset_matrix(geometry, theta)
    rng = np.random.default_rng(scenario.seed)
    shape = (geometry.elements_per_subarray, geometry.subarray_count)
    scale = np.sqrt(scenario.noise_variance / 2.0)
    noise = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return MeasurementMatrix(b @ s + noise), SourceSignalMatrix(s)
