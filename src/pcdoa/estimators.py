"""Direction estimation from blindly separated subarray rows.

Once the separation stage has recovered the source rows, the entrywise
phases of each row estimate the unknown inter-subarray phase offsets of
that source.  With those offsets in hand the array behaves as if it were
calibrated, and directions follow either from matched-filter grid
searches on the least-squares source columns (one per source) or from a
nonlinear least-squares fit.  :func:`bss_nls` states which model that
fit uses for which directions and how it is solved.

Angles are degrees at every public interface except one:
``nls_cost_gradients`` takes and differentiates radian directions, the
parameters the fit itself runs in.  It exposes the gradient
-2 Re(J^H r) of the fit's residual r and Jacobian J, so they can be
checked against finite differences.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from numbers import Complex

import numpy as np

from .array_model import (
    ArrayGeometry, _freeze, _frozen, _matrix, _number, _numbers, _steering_matrix,
)
from .errors import DomainError, InvalidParameterError
from .shared_displacement import (
    _iteration_cap, levenberg_marquardt, shared_displacement_fit, unresolved_pair,
)

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

_MAX_GRID_POINTS = 1_000_000  # about 600 times the largest packaged grid (1,601 points)


@dataclass(frozen=True)
class PhaseOffsetEstimate:
    """Unit-modulus phase offsets per (source, subarray), with degeneracy flags.

    Flagged entries had source magnitude below the threshold; their phase
    is meaningless and is pinned to 1.
    """

    offsets: np.ndarray
    degenerate_flags: np.ndarray

    def __post_init__(self):
        _freeze(self, offsets=complex, degenerate_flags=bool)


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
        _freeze(self, directions_deg=float, amplitudes=complex, spectra=float, grid_deg=float)
        if not (np.abs(self.directions_deg) < 90.0).all():
            raise DomainError("estimated directions left the (-90, 90) degree domain")
        if not math.isfinite(self.final_cost):
            raise DomainError("final cost must be finite")


def _fit_inputs(measurements, geometry, offsets, count=None, amplitudes=None):
    """The measurement and offset matrices of a fit, each read by `_matrix`.

    Raises ``InvalidParameterError`` unless the measurements are M x K
    for the geometry and the offsets have K columns and, when
    ``count`` directions are given, ``count`` rows and, when
    ``amplitudes`` are given, ``count`` numbers there.
    """
    x = _matrix(measurements, "measurements")
    phi = _matrix(offsets, "offsets", field="offsets")
    if x.shape != (geometry.elements_per_subarray, geometry.subarray_count):
        raise InvalidParameterError("measurement shape does not match the geometry")
    if phi.shape[1] != geometry.subarray_count:
        raise InvalidParameterError("offsets must have one column per subarray")
    if count is not None and phi.shape[0] != count:
        raise InvalidParameterError("offsets must have one row per initial direction")
    if amplitudes is not None and len(_numbers(amplitudes, "amplitudes", Complex)) != count:
        raise InvalidParameterError("amplitudes must have one entry per direction")
    return x, phi


def estimate_phase_offsets(separated):
    """Normalize separated rows to unit modulus, flagging dead entries.

    An entry below 1e-12 times the largest entry magnitude, or exactly
    zero, is degenerate: it is flagged and its offset set to 1.

    Parameters
    ----------
    separated : array_like or SeparationResult
        L x K matrix of separated source rows.
    """
    s = _matrix(separated, "separated rows", field="recovered")
    magnitude = np.abs(s)
    flags = (magnitude < 1e-12 * magnitude.max()) | (magnitude == 0.0)
    offsets = np.where(flags, 1.0 + 0.0j, s / np.where(magnitude == 0.0, 1.0, magnitude))
    return PhaseOffsetEstimate(offsets=offsets, degenerate_flags=flags)


def angle_grid(start_deg, stop_deg, step_deg):
    """Inclusive degree grid from start to stop with the given step; one of
    more than ``_MAX_GRID_POINTS`` points is refused before allocation."""
    start_deg, stop_deg, step_deg = _numbers((start_deg, stop_deg, step_deg), "grid", count=3)
    if not (step_deg > 0):
        raise InvalidParameterError("grid step must be positive")
    if stop_deg < start_deg:
        raise InvalidParameterError("grid stop must not precede start")
    if not (-90.0 < start_deg and stop_deg < 90.0):
        raise DomainError("grid must lie strictly inside (-90, 90) degrees")
    # An infinite quotient (a subnormal step) fails this test too.
    steps = (stop_deg - start_deg) / step_deg + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"grid step {step_deg!r} gives more than {_MAX_GRID_POINTS} points"
        )
    return start_deg + step_deg * np.arange(int(np.floor(steps)) + 1)


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
    :func:`angle_grid`, read by the number rule; other than three numbers
    raise ``InvalidParameterError``.  The grid and its steering dictionary
    depend only on the wavelength, the element displacements inside a
    subarray and the triple, so they are computed once per such key and
    reused, read-only, by later calls.
    """
    x, phi = _fit_inputs(measurements, geometry, offsets)
    triple = _numbers(grid, "grid", count=3)
    grid_deg, steering = _grid_steering(
        geometry.wavelength, geometry.intra_displacements.tobytes(), *triple
    )
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
    grid_deg = _frozen(angle_grid(start_deg, stop_deg, step_deg), float, "grid")
    geometry = ArrayGeometry(wavelength, np.frombuffer(displacements), np.zeros(1))
    return grid_deg, _frozen(_steering_matrix(geometry, np.radians(grid_deg)), complex, "steering")


def _source_columns(x, phi):
    """Least-squares source columns C of X = C Phi, one per offset row."""
    gram = phi @ phi.conj().T
    return _solve(gram.T, (x @ phi.conj().T).T).T


def _solve(matrix, rhs):
    """solve(matrix, rhs), or its least-squares solution when the matrix
    is singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def nls_cost(measurements, geometry, offsets, directions_deg, amplitudes):
    """Squared-residual fit of the full phase-compensated model.

    C(theta, s) = sum_k || x_k - B(theta) Phi_k s ||^2 with the phase
    offsets held fixed.
    """
    theta = np.radians(_numbers(directions_deg, "directions_deg"))
    x, phi = _fit_inputs(measurements, geometry, offsets, theta.size, amplitudes)
    return _FixedOffsetModel(x, geometry, phi).cost(_pack(theta, amplitudes))


def _pack(theta_rad, amplitudes):
    """The fit's parameter vector (theta, Re s, Im s)."""
    s = np.asarray(amplitudes, dtype=complex)
    return np.concatenate([np.ravel(theta_rad), s.real, s.imag])


def _split(params):
    """Radian directions and complex amplitudes of (theta, Re s, Im s)."""
    count = params.size // 3
    return params[:count], params[count : 2 * count] + 1j * params[2 * count :]


class _FixedOffsetModel:
    """B(theta) (Phi * s) fitted to one measurement matrix.  The methods
    take the parameters (theta, Re s, Im s); the steering matrix of the
    last theta is kept, so each distinct theta builds one."""

    def __init__(self, x, geometry, phi):
        self.x, self.phi, self.key = x, phi, None
        wavenumber = 2.0 * np.pi / geometry.wavelength
        self.phase = 1j * wavenumber * geometry.intra_displacements[:, None]

    def steering(self, theta_rad):
        if theta_rad.tobytes() != self.key:
            self.key = theta_rad.tobytes()
            self.matrix = np.exp(self.phase * np.sin(theta_rad)[None, :])
        return self.matrix

    def start(self, theta_rad):
        """Parameters at theta with the closed-form least-squares amplitudes."""
        steering = self.steering(theta_rad)
        adjoint = steering.conj().T
        gram = (adjoint @ steering) * (self.phi.conj() @ self.phi.T)
        return _pack(theta_rad, _solve(gram, (self.phi.conj() * (adjoint @ self.x)).sum(axis=1)))

    def cost(self, params):
        theta, s = _split(params)
        residual = self.x - self.steering(theta) @ (self.phi * s[:, None])
        return float((np.abs(residual) ** 2).sum())

    def residual_jacobian(self, params):
        """Residual x - B(theta) (Phi * s), flattened, and its model's Jacobian."""
        theta, s = _split(params)
        steering = self.steering(theta)
        columns = steering[:, :, None] * self.phi
        derivative = self.phase * np.cos(theta)[None, :] * steering
        slopes = derivative[:, :, None] * (self.phi * s[:, None])
        residual = self.x - np.einsum("mlk,l->mk", columns, s)
        jac = np.concatenate([slopes, columns, 1j * columns], axis=1)
        return residual.reshape(-1), np.swapaxes(jac, 1, 2).reshape(residual.size, -1)

    def inside(self, params):
        return bool((np.abs(params[: params.size // 3]) < np.pi / 2).all())


def nls_cost_gradients(measurements, geometry, offsets, theta_rad, amplitudes):
    """Cost plus analytic gradients in the fit's parameterization.

    Returns ``(cost, grad_theta, grad_s)`` where ``grad_theta`` is the
    plain derivative with respect to the radian directions and
    ``grad_s`` uses the convention g = 2 dC/d(conj s), so its real and
    imaginary parts are the derivatives with respect to Re(s) and Im(s).
    Both are -2 Re(J^H r) for the residual r and model Jacobian J that
    ``bss_nls`` fits with.
    """
    theta = np.array(_numbers(theta_rad, "theta_rad"))
    x, phi = _fit_inputs(measurements, geometry, offsets, theta.size, amplitudes)
    model = _FixedOffsetModel(x, geometry, phi)
    residual, jac = model.residual_jacobian(_pack(theta, amplitudes))
    gradient = -2.0 * (jac.conj().T @ residual).real
    grad_theta, grad_s = _split(gradient)
    return float((np.abs(residual) ** 2).sum()), grad_theta, grad_s


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
      calls the fit's cost and Jacobian directly, building one steering
      matrix per direction pair it evaluates.

    ``max_iterations``, a whole number 0 or more, caps the final
    Levenberg-Marquardt run, which also ends when an accepted step lowers
    the cost by a relative 1e-10 or less, or when no damping lowers it;
    ``stop_reason`` says which.
    ``final_cost`` and ``cost_history`` are the squared residual of the
    model that was fitted; accepted costs never increase.
    """
    theta = np.radians(_numbers(init_directions_deg, "init_directions_deg"))
    max_iterations = _iteration_cap(max_iterations)
    if not (np.abs(theta) < np.pi / 2).all():
        raise DomainError("initial directions must lie strictly inside (-90, 90) degrees")
    x, phi = _fit_inputs(measurements, geometry, offsets, theta.size)

    if unresolved_pair(geometry, theta):
        theta, s, history, iterations, reason = shared_displacement_fit(
            x, geometry, theta, max_iterations
        )
    else:
        model = _FixedOffsetModel(x, geometry, phi)
        params, history, iterations, reason = levenberg_marquardt(
            model.start(theta), model.residual_jacobian, model.cost, model.inside, max_iterations
        )
        theta, s = _split(params)
    return DoaEstimate(
        directions_deg=np.degrees(theta),
        amplitudes=s,
        spectra=None,
        grid_deg=None,
        iterations=iterations,
        final_cost=float(history[-1]),
        cost_history=tuple(float(cost) for cost in history),
        stop_reason=reason,
    )


def match_sources(estimates_deg, truths_deg):
    """Permutation aligning estimates to truths with least total squared error.

    Returns a tuple ``perm`` such that estimate ``perm[i]`` is assigned to
    truth i.  Exhaustive over all permutations (lengths capped at 8);
    ties pick the lexicographically smallest permutation.
    """
    estimates = np.array(_numbers(estimates_deg, "estimates_deg"))
    truths = np.array(_numbers(truths_deg, "truths_deg"))
    if estimates.size != truths.size:
        raise InvalidParameterError("estimates and truths must be equal-length vectors")
    if estimates.size > 8:
        raise InvalidParameterError("exhaustive matching is capped at 8 sources")
    best = None
    best_error = np.inf
    for perm in itertools.permutations(range(estimates.size)):
        error = float(((estimates[list(perm)] - truths) ** 2).sum())
        if error < best_error:
            best = perm
            best_error = error
    return best
