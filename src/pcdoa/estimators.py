"""Direction estimation from blindly separated subarray rows.

Once the separation stage has recovered the source rows, the entrywise
phases of each row estimate the unknown inter-subarray phase offsets of
that source.  With those offsets in hand the array behaves as if it were
calibrated, and directions follow either from matched-filter grid
searches on the least-squares source columns (one per source) or from a
joint nonlinear least-squares fit of one parameter vector refined by
Levenberg-Marquardt (:func:`pcdoa.shared_displacement.levenberg_marquardt`).

A pair that one subarray cannot resolve is the exception: there the
separated offsets of the weaker source are close to noise, so
``bss_nls`` drops them and fits subarray displacements shared by both
sources instead (:mod:`pcdoa.shared_displacement`).  The test is
physical and made on the starting directions: a sine separation below
a tenth of the subarray Rayleigh resolution wavelength / subarray
length.  That fit polishes its many search starts as one stack for
three iterations each, then its winner with the same one-vector
solver.

Angles are degrees at every public interface; the fit itself runs in
radians.  ``nls_cost_gradients`` exposes the gradient -2 Re(J^H r) of the
fit's residual r and Jacobian J, so they can be checked against finite
differences.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, _steering_derivative, _steering_matrix
from .errors import DomainError, InvalidParameterError
from .shared_displacement import levenberg_marquardt, shared_displacement_fit, unresolved_pair

__all__ = [
    "PhaseOffsetEstimate",
    "DoaEstimate",
    "estimate_phase_offsets",
    "angle_grid",
    "bss_mf",
    "nls_cost",
    "nls_cost_gradients",
    "bss_nls",
    "match_sources",
]


# Relative cost decrease at which the Levenberg-Marquardt fit stops.
_COST_TOLERANCE = 1e-10


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhaseOffsetEstimate:
    """Unit-modulus phase offsets per (source, subarray), with degeneracy flags.

    Flagged entries had source magnitude below the threshold; their phase
    is meaningless and is pinned to 1.
    """

    offsets: np.ndarray
    degenerate_flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", _frozen(np.asarray(self.offsets, complex)))
        object.__setattr__(
            self, "degenerate_flags", _frozen(np.asarray(self.degenerate_flags, bool))
        )


@dataclass(frozen=True)
class DoaEstimate:
    """Direction estimates plus estimator-specific diagnostics.

    ``spectra``/``grid`` are filled by the matched filter, ``amplitudes``,
    ``cost_history`` and ``stop_reason`` (``"converged"``, ``"stalled"``
    or ``"iteration_cap"``) by the least-squares refinement.
    ``final_cost`` is the squared-residual objective for the NLS estimator
    and the negative sum of matched-filter peak magnitudes for the grid
    search, so lower is better for both.
    """

    directions_deg: np.ndarray
    amplitudes: np.ndarray | None
    spectra: np.ndarray | None
    grid_deg: np.ndarray | None
    iterations: int
    final_cost: float
    cost_history: tuple | None = None
    stop_reason: str | None = None

    def __post_init__(self):
        theta = np.asarray(self.directions_deg, dtype=float)
        if not np.all(np.abs(theta) < 90.0):
            raise DomainError("estimated directions left the (-90, 90) degree domain")
        if not np.isfinite(self.final_cost):
            raise DomainError("final cost must be finite")
        object.__setattr__(self, "directions_deg", _frozen(theta))
        for name in ("amplitudes", "spectra", "grid_deg"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _frozen(np.asarray(value)))


def _as_matrix(value):
    return np.asarray(getattr(value, "data", value), dtype=complex)


def _offsets_matrix(offsets):
    return np.asarray(getattr(offsets, "offsets", offsets), dtype=complex)


def estimate_phase_offsets(separated):
    """Normalize separated rows to unit modulus, flagging dead entries.

    An entry below 1e-12 times the largest entry magnitude, or exactly
    zero, is degenerate: it is flagged and its offset set to 1.

    Parameters
    ----------
    separated : array_like or SeparationResult
        L x K matrix of separated source rows.
    """
    s = np.asarray(getattr(separated, "recovered", separated), dtype=complex)
    if s.ndim != 2 or s.size == 0:
        raise InvalidParameterError("separated rows must form a nonempty 2-D matrix")
    magnitude = np.abs(s)
    flags = (magnitude < 1e-12 * magnitude.max()) | (magnitude == 0.0)
    offsets = np.where(flags, 1.0 + 0.0j, s / np.where(magnitude == 0.0, 1.0, magnitude))
    return PhaseOffsetEstimate(offsets=offsets, degenerate_flags=flags)


def angle_grid(start_deg, stop_deg, step_deg):
    """Inclusive degree grid from start to stop with the given step."""
    if not (step_deg > 0):
        raise InvalidParameterError("grid step must be positive")
    if stop_deg < start_deg:
        raise InvalidParameterError("grid stop must not precede start")
    if not (-90.0 < start_deg and stop_deg < 90.0):
        raise DomainError("grid must lie strictly inside (-90, 90) degrees")
    count = int(np.floor((stop_deg - start_deg) / step_deg + 1e-9)) + 1
    return start_deg + step_deg * np.arange(count)


def bss_mf(measurements, geometry, offsets, grid):
    """Per-source matched-filter direction search over a degree grid.

    The offsets give every source a row; the joint least-squares fit
    X = C Phi, C = X Phi^H (Phi Phi^H)^-1, gives every source its column
    c_l, which is s_l b(theta_l) when the offsets are exact, free of the
    other sources.  For source l the spectrum value at angle theta is
    |b(theta)^H c_l|, and the estimate is the grid argmax (first maximum
    on ties).  Correlating the data with one offset row at a time instead
    would let a strong source leak into a weak source's spectrum and pull
    its peak.

    ``grid`` is a (start, stop, step) triple in degrees for
    :func:`angle_grid`; other than three values raise
    ``InvalidParameterError``.  The grid and its steering dictionary
    depend only on the wavelength, the element displacements inside a
    subarray and the triple, so they are computed once per such key and
    reused, read-only, by later calls.
    """
    x = _as_matrix(measurements)
    phi = _offsets_matrix(offsets)
    triple = np.asarray(grid, dtype=float)
    if triple.shape != (3,):
        raise InvalidParameterError("grid must be a (start, stop, step) triple in degrees")
    grid_deg, steering = _grid_steering(
        float(geometry.wavelength), geometry.intra_displacements.tobytes(), *triple.tolist()
    )
    if x.shape != (geometry.elements_per_subarray, geometry.subarray_count):
        raise InvalidParameterError("measurement shape does not match the geometry")
    if phi.shape[1] != geometry.subarray_count:
        raise InvalidParameterError("offsets must have one column per subarray")
    columns = _source_columns(x, phi)
    spectra = np.abs(columns.conj().T @ steering)
    peak_index = np.argmax(spectra, axis=1)
    peaks = spectra[np.arange(spectra.shape[0]), peak_index]
    return DoaEstimate(
        directions_deg=grid_deg[peak_index],
        amplitudes=None,
        spectra=spectra,
        grid_deg=grid_deg,
        iterations=0,
        final_cost=-float(peaks.sum()),
    )


@functools.lru_cache(maxsize=8)
def _grid_steering(wavelength, displacements, start_deg, stop_deg, step_deg):
    """Read-only degree grid of a (start, stop, step) triple and its
    steering matrix, keyed by value: the wavelength, the float64 bytes of
    the element displacements and the triple.  The subarray offsets do not
    enter it, so a one-subarray geometry with the same elements builds it."""
    grid_deg = _frozen(angle_grid(start_deg, stop_deg, step_deg))
    geometry = ArrayGeometry(wavelength, np.frombuffer(displacements), np.zeros(1))
    return grid_deg, _frozen(_steering_matrix(geometry, np.radians(grid_deg)))


def _source_columns(x, phi):
    """Least-squares source columns C of X = C Phi, one per offset row."""
    gram = phi @ phi.conj().T
    rhs = (x @ phi.conj().T).T
    try:
        return np.linalg.solve(gram.T, rhs).T
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram.T, rhs, rcond=None)[0].T


def nls_cost(measurements, geometry, offsets, directions_deg, amplitudes):
    """Squared-residual fit of the full phase-compensated model.

    C(theta, s) = sum_k || x_k - B(theta) Phi_k s ||^2 with the phase
    offsets held fixed.
    """
    return _cost(
        _as_matrix(measurements),
        geometry,
        _offsets_matrix(offsets),
        np.radians(np.asarray(directions_deg, dtype=float)),
        np.asarray(amplitudes, dtype=complex),
    )


def _cost(x, geometry, phi, theta_rad, amplitudes):
    residual = x - _steering_matrix(geometry, theta_rad) @ (phi * amplitudes[:, None])
    return float(np.sum(np.abs(residual) ** 2))


def _residual_jacobian(x, geometry, phi, theta_rad, amplitudes):
    """Fixed-offset residual x - B(theta) (Phi * s), flattened, and the
    model's Jacobian in the parameters (theta, Re s, Im s)."""
    steering = _steering_matrix(geometry, theta_rad)
    columns = steering[:, :, None] * phi
    slopes = _steering_derivative(geometry, theta_rad, steering)[:, :, None] * (
        phi * amplitudes[:, None]
    )
    residual = x - np.einsum("mlk,l->mk", columns, amplitudes)
    jac = np.concatenate([slopes, columns, 1j * columns], axis=1)
    return residual.reshape(-1), np.swapaxes(jac, 1, 2).reshape(residual.size, -1)


def _split(params):
    """Radian directions and complex amplitudes of (theta, Re s, Im s)."""
    count = params.size // 3
    return params[:count], params[count : 2 * count] + 1j * params[2 * count :]


def nls_cost_gradients(measurements, geometry, offsets, theta_rad, amplitudes):
    """Cost plus analytic gradients in the fit's parameterization.

    Returns ``(cost, grad_theta, grad_s)`` where ``grad_theta`` is the
    plain derivative with respect to the radian directions and
    ``grad_s`` uses the convention g = 2 dC/d(conj s), so its real and
    imaginary parts are the derivatives with respect to Re(s) and Im(s).
    Both are -2 Re(J^H r) for the residual r and model Jacobian J that
    ``bss_nls`` fits with.
    """
    theta = np.asarray(theta_rad, dtype=float)
    residual, jac = _residual_jacobian(
        _as_matrix(measurements),
        geometry,
        _offsets_matrix(offsets),
        theta,
        np.asarray(amplitudes, dtype=complex),
    )
    gradient = -2.0 * (jac.conj().T @ residual).real
    grad_theta, grad_s = _split(gradient)
    return float(np.sum(np.abs(residual) ** 2)), grad_theta, grad_s


def bss_nls(measurements, geometry, offsets, init_directions_deg, max_iterations=500):
    """Joint direction and amplitude fit, started from the grid peaks.

    Two models, chosen from the starting directions, both refined by
    :func:`pcdoa.shared_displacement.levenberg_marquardt`, which fits one
    parameter vector:

    - A pair the subarrays cannot resolve (sine separation below a tenth
      of the subarray Rayleigh resolution wavelength / subarray length,
      mean sine nonzero, at least four subarrays) is fitted with subarray
      displacements shared by both sources, found by a global search
      first; see :mod:`pcdoa.shared_displacement`.  The search polishes
      its starts as one stack for three iterations each; the solver then
      refines the winner.  The separated offsets are not used there.
    - Every other set of directions keeps the separated offsets fixed and
      fits C(theta, s) in (theta, Re s, Im s), starting from the
      least-squares amplitudes at the starting directions; the solver
      calls the fit's cost and Jacobian directly.

    ``max_iterations`` caps the final Levenberg-Marquardt run, which also
    ends when an accepted step lowers the cost by a relative 1e-10 or
    less, or when no damping lowers it; ``stop_reason`` says which.
    ``final_cost`` and ``cost_history`` are the squared residual of the
    model that was fitted; accepted costs never increase.
    """
    x = _as_matrix(measurements)
    phi = _offsets_matrix(offsets)
    theta = np.radians(np.asarray(init_directions_deg, dtype=float))
    if not np.all(np.abs(theta) < np.pi / 2):
        raise DomainError("initial directions must lie strictly inside (-90, 90) degrees")
    if phi.shape[0] != theta.size:
        raise InvalidParameterError("offsets must have one row per initial direction")
    if x.shape != (geometry.elements_per_subarray, geometry.subarray_count):
        raise InvalidParameterError("measurement shape does not match the geometry")

    if unresolved_pair(geometry, theta):
        theta, s, history, iterations, reason = shared_displacement_fit(
            x, geometry, theta, max_iterations, _COST_TOLERANCE
        )
    else:
        s = _least_squares_amplitudes(x, geometry, phi, theta)
        params, history, iterations, reason = levenberg_marquardt(
            np.concatenate([theta, s.real, s.imag]),
            lambda p: _residual_jacobian(x, geometry, phi, *_split(p)),
            lambda p: _cost(x, geometry, phi, *_split(p)),
            lambda p: bool(np.all(np.abs(p[: theta.size]) < np.pi / 2)),
            max_iterations,
            _COST_TOLERANCE,
        )
        theta, s = _split(params)
    return DoaEstimate(
        directions_deg=np.degrees(theta),
        amplitudes=s,
        spectra=None,
        grid_deg=None,
        iterations=int(iterations),
        final_cost=float(history[-1]),
        cost_history=tuple(float(cost) for cost in history),
        stop_reason=reason,
    )


def _least_squares_amplitudes(x, geometry, phi, theta_rad):
    """Closed-form amplitude fit for fixed directions and offsets."""
    steering = _steering_matrix(geometry, theta_rad)
    gram = (steering.conj().T @ steering) * (phi.conj() @ phi.T)
    rhs = np.sum(phi.conj() * (steering.conj().T @ x), axis=1)
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def match_sources(estimates_deg, truths_deg):
    """Permutation aligning estimates to truths with least total squared error.

    Returns a tuple ``perm`` such that estimate ``perm[i]`` is assigned to
    truth i.  Exhaustive over all permutations (lengths capped at 8);
    ties pick the lexicographically smallest permutation.
    """
    estimates = np.asarray(estimates_deg, dtype=float)
    truths = np.asarray(truths_deg, dtype=float)
    if estimates.shape != truths.shape or estimates.ndim != 1:
        raise InvalidParameterError("estimates and truths must be equal-length vectors")
    if estimates.size > 8:
        raise InvalidParameterError("exhaustive matching is capped at 8 sources")
    best = None
    best_error = np.inf
    for perm in itertools.permutations(range(estimates.size)):
        error = float(np.sum((estimates[list(perm)] - truths) ** 2))
        if error < best_error:
            best = perm
            best_error = error
    return best
