"""Direction estimation from blindly separated subarray rows.

Once the separation stage has recovered the source rows, the entrywise
phases of each row estimate the unknown inter-subarray phase offsets of
that source.  With those offsets in hand the array behaves as if it were
calibrated, and directions follow either from matched-filter grid
searches on the least-squares source columns (one per source) or from a
joint nonlinear least-squares fit refined by alternating Armijo gradient
descent.

A pair that one subarray cannot resolve is the exception: there the
separated offsets of the weaker source are close to noise, so
``bss_nls`` drops them and fits subarray displacements shared by both
sources instead (:mod:`pcdoa.shared_displacement`).  The test is
physical and made on the starting directions: a sine separation below
a tenth of the subarray Rayleigh resolution wavelength / subarray
length.

Angles are degrees at every public interface; the descent itself runs in
radians.  ``nls_cost_gradients`` is the radian-space kernel, exposed so
its analytic gradients can be checked against finite differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .array_model import _offset_matrix, _steering_derivative, _steering_matrix
from .errors import DomainError, InvalidParameterError
from .shared_displacement import shared_displacement_fit, unresolved_pair

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

    ``spectra``/``grid`` are filled by the matched filter, ``amplitudes``
    and ``cost_history`` by the least-squares refinement.  ``final_cost``
    is the squared-residual objective for the NLS estimator and the
    negative sum of matched-filter peak magnitudes for the grid search,
    so lower is better for both.
    """

    directions_deg: np.ndarray
    amplitudes: np.ndarray | None
    spectra: np.ndarray | None
    grid_deg: np.ndarray | None
    iterations: int
    final_cost: float
    cost_history: tuple | None = None

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


def estimate_phase_offsets(separated, magnitude_threshold=None):
    """Normalize separated rows to unit modulus, flagging dead entries.

    Parameters
    ----------
    separated : array_like or SeparationResult
        L x K matrix of separated source rows.
    magnitude_threshold : float, optional
        Absolute magnitude below which an entry is considered degenerate.
        Defaults to 1e-12 times the largest entry magnitude.
    """
    s = np.asarray(getattr(separated, "recovered", separated), dtype=complex)
    if s.ndim != 2 or s.size == 0:
        raise InvalidParameterError("separated rows must form a nonempty 2-D matrix")
    magnitude = np.abs(s)
    if magnitude_threshold is None:
        magnitude_threshold = 1e-12 * magnitude.max()
    flags = (magnitude < magnitude_threshold) | (magnitude == 0.0)
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


def _resolve_grid(grid):
    if isinstance(grid, tuple) and len(grid) == 3:
        return angle_grid(*grid)
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("grid must be a nonempty 1-D angle sequence")
    if not np.all(np.abs(arr) < 90.0):
        raise InvalidParameterError("grid must lie strictly inside (-90, 90) degrees")
    return arr


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

    ``grid`` is either a (start, stop, step) triple in degrees or an
    explicit 1-D array of angles.
    """
    x = _as_matrix(measurements)
    phi = _offsets_matrix(offsets)
    grid_deg = _resolve_grid(grid)
    if x.shape != (geometry.elements_per_subarray, geometry.subarray_count):
        raise InvalidParameterError("measurement shape does not match the geometry")
    if phi.shape[1] != geometry.subarray_count:
        raise InvalidParameterError("offsets must have one column per subarray")
    columns = _source_columns(x, phi)
    steering = _steering_matrix(geometry, np.radians(grid_deg))
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
    theta = np.radians(np.asarray(directions_deg, dtype=float))
    cost, _ = _cost_and_residual(
        _as_matrix(measurements),
        geometry,
        _offsets_matrix(offsets),
        theta,
        np.asarray(amplitudes, dtype=complex),
    )
    return cost


def _cost_and_residual(x, geometry, phi, theta_rad, amplitudes):
    steering = _steering_matrix(geometry, theta_rad)
    residual = x - steering @ (phi * amplitudes[:, None])
    return float(np.sum(np.abs(residual) ** 2)), residual


def nls_cost_gradients(measurements, geometry, offsets, theta_rad, amplitudes):
    """Cost plus analytic gradients in the descent parameterization.

    Returns ``(cost, grad_theta, grad_s)`` where ``grad_theta`` is the
    plain derivative with respect to the radian directions and
    ``grad_s`` uses the convention g = 2 dC/d(conj s), so its real and
    imaginary parts are the derivatives with respect to Re(s) and Im(s).
    """
    x = _as_matrix(measurements)
    phi = _offsets_matrix(offsets)
    theta = np.asarray(theta_rad, dtype=float)
    s = np.asarray(amplitudes, dtype=complex)
    steering = _steering_matrix(geometry, theta)
    d_steering = _steering_derivative(geometry, theta)
    residual = x - steering @ (phi * s[:, None])
    cost = float(np.sum(np.abs(residual) ** 2))
    projected = steering.conj().T @ residual
    grad_s = -2.0 * np.sum(phi.conj() * projected, axis=1)
    coupling = np.einsum("lk,kl->l", phi, residual.conj().T @ d_steering)
    grad_theta = -2.0 * np.real(s * coupling)
    return cost, grad_theta, grad_s


def _armijo_step(current_cost, gradient_sq, trial, max_halvings, c1):
    """Backtracking line search from unit step.

    ``trial`` maps a step length to (point, cost), or None when the point
    leaves the search domain.  Returns the first (point, cost) satisfying
    the sufficient-decrease rule, or None if every halving failed.
    """
    step = 1.0
    for _ in range(max_halvings + 1):
        candidate = trial(step)
        if candidate is not None:
            point, cost = candidate
            if cost <= current_cost - c1 * step * gradient_sq:
                return point, cost
        step *= 0.5
    return None


def bss_nls(
    measurements,
    geometry,
    offsets,
    init_directions_deg,
    init_amplitudes=None,
    max_iterations=500,
    max_halvings=50,
    sufficient_decrease=1e-4,
    cost_tolerance=1e-10,
):
    """Joint direction and amplitude fit, started from the grid peaks.

    Two models, chosen from the starting directions:

    - A pair the subarrays cannot resolve (sine separation below a tenth
      of the subarray Rayleigh resolution wavelength / subarray length,
      mean sine nonzero, at least four subarrays) is fitted with subarray
      displacements shared by both sources, found by a global search and
      refined by Levenberg-Marquardt; see :mod:`pcdoa.shared_displacement`.  The separated offsets are not
      used there, and neither are ``init_amplitudes``, ``max_halvings``
      and ``sufficient_decrease``; ``max_iterations`` caps the final
      Levenberg-Marquardt run and ``cost_tolerance`` ends it.
    - Every other set of directions keeps the separated offsets fixed and
      fits C(theta, s) by alternating Armijo descent.  Starting from a
      least-squares amplitude fit when ``init_amplitudes`` is omitted, it
      alternates one gradient step in the amplitudes with one in the
      directions, each with backtracking line search from unit step.  It
      stops when the relative cost decrease of an iteration falls below
      ``cost_tolerance``, when both line searches fail, or at
      ``max_iterations``.

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
        theta, s, history, iterations = shared_displacement_fit(
            x, geometry, theta, int(max_iterations), cost_tolerance
        )
        return DoaEstimate(
            directions_deg=np.degrees(theta),
            amplitudes=s,
            spectra=None,
            grid_deg=None,
            iterations=iterations,
            final_cost=history[-1],
            cost_history=tuple(history),
        )

    if init_amplitudes is None:
        s = _least_squares_amplitudes(x, geometry, phi, theta)
    else:
        s = np.asarray(init_amplitudes, dtype=complex).copy()

    cost, _ = _cost_and_residual(x, geometry, phi, theta, s)
    history = [cost]
    iterations = 0
    for _ in range(int(max_iterations)):
        iterations += 1
        previous = cost
        _, _, grad_s = nls_cost_gradients(x, geometry, phi, theta, s)
        norm_sq = float(np.sum(np.abs(grad_s) ** 2))
        moved = False
        if norm_sq > 0:

            def trial_s(step):
                candidate = s - step * grad_s
                value, _ = _cost_and_residual(x, geometry, phi, theta, candidate)
                return candidate, value

            accepted = _armijo_step(
                cost, norm_sq, trial_s, max_halvings, sufficient_decrease
            )
            if accepted is not None:
                s, cost = accepted
                moved = True

        _, grad_theta, _ = nls_cost_gradients(x, geometry, phi, theta, s)
        norm_sq = float(np.sum(grad_theta**2))
        if norm_sq > 0:

            def trial_theta(step):
                candidate = theta - step * grad_theta
                if not np.all(np.abs(candidate) < np.pi / 2):
                    return None
                value, _ = _cost_and_residual(x, geometry, phi, candidate, s)
                return candidate, value

            accepted = _armijo_step(
                cost, norm_sq, trial_theta, max_halvings, sufficient_decrease
            )
            if accepted is not None:
                theta, cost = accepted
                moved = True

        history.append(cost)
        if not moved:
            break
        if previous - cost < cost_tolerance * max(previous, 1e-300):
            break

    return DoaEstimate(
        directions_deg=np.degrees(theta),
        amplitudes=s,
        spectra=None,
        grid_deg=None,
        iterations=iterations,
        final_cost=cost,
        cost_history=tuple(history),
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
