"""Source-row correlation statistics for distributed subarrays.

The source rows of the multiple-measurement model act as the "samples"
seen by the blind separation stage, so their mutual orthogonality decides
whether separation can work at all.  This module computes the empirical
cross-covariance and coherence of a given row matrix, plus the closed-form
statistics of those quantities when the subarray offsets are random:

* the inter-subarray cross term averages to a sinc of the scaled
  separation rho = pi * D * (sin ti - sin tj) / wavelength,
* the full-array correlation factorizes into that sinc times a Dirichlet
  kernel contributed by the calibrated elements inside one subarray.

All direction arguments are degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import _freeze, _frozen, _matrix, _number, _whole
from .errors import DegenerateInputError, InvalidParameterError

__all__ = [
    "SourceCrossCovariance",
    "CorrelationStatistics",
    "cross_covariance",
    "coherence",
    "pair_correlation",
    "expected_correlation",
    "pair_statistics",
]

_LIMIT_WINDOW = 1e-8


@dataclass(frozen=True)
class SourceCrossCovariance:
    """Cross-covariance R = (1/K) S S^H and its conjugate variant (1/K) S S^T."""

    matrix: np.ndarray
    conjugate_matrix: np.ndarray

    def __post_init__(self):
        _freeze(self, matrix=complex, conjugate_matrix=complex)


@dataclass(frozen=True)
class CorrelationStatistics:
    """Closed-form correlation statistics for one direction pair.

    ``rho`` scales the separation by the placement aperture, ``varphi`` by
    the element spacing.  ``expected_magnitude`` and ``expected_power``
    are the first two moments of the correlation magnitude under random
    uniform subarray placement; ``dirichlet_factor`` is the deterministic
    within-subarray factor (1 when each subarray has a single element).
    """

    rho: float
    varphi: float
    expected_magnitude: float
    expected_power: float
    dirichlet_factor: float


def _dirichlet(phi, m):
    """sin(m phi) / (m sin phi) with analytic limits at multiples of pi."""
    nearest = np.round(phi / np.pi)
    residual = phi - np.pi * nearest
    at_limit = np.abs(residual) < _LIMIT_WINDOW
    # Value at phi = q*pi is (+-1)^(q*(m-1)); away from the limit the direct
    # ratio is stable because |sin phi| is bounded below.
    limit_sign = np.where((nearest.astype(np.int64) * (m - 1)) % 2 == 0, 1.0, -1.0)
    safe = np.where(at_limit, np.pi / 2, phi)
    direct = np.sin(m * safe) / (m * np.sin(safe))
    return np.where(at_limit, limit_sign, direct)


def cross_covariance(source_rows):
    """Empirical cross-covariance of the source rows.

    Returns the pair (R, R~) with R = (1/K) S S^H Hermitian positive
    semidefinite and R~ = (1/K) S S^T symmetric.
    """
    s = _matrix(source_rows, "source rows")
    k_count = s.shape[1]
    return SourceCrossCovariance(
        matrix=s @ s.conj().T / k_count,
        conjugate_matrix=s @ s.T / k_count,
    )


def coherence(source_rows):
    """Largest normalized cross-correlation magnitude over row pairs."""
    s = _matrix(source_rows, "source rows")
    if s.shape[0] < 2:
        raise InvalidParameterError("coherence needs at least two rows")
    gram = s @ s.conj().T
    norms = np.sqrt(np.abs(np.diag(gram)))
    if np.any(norms == 0):
        raise DegenerateInputError("zero row has no direction; coherence undefined")
    normalized = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(normalized, 0.0)
    return min(float(normalized.max()), 1.0)


def _pair(theta_i_deg, theta_j_deg, wavelength):
    """sin(ti) - sin(tj) and the wavelength, each read by the number rule;
    InvalidParameterError unless the wavelength is positive."""
    theta_i, theta_j = _number(theta_i_deg, "theta_i_deg"), _number(theta_j_deg, "theta_j_deg")
    wavelength = _number(wavelength, "wavelength")
    if not (wavelength > 0):
        raise InvalidParameterError("wavelength must be positive")
    return np.sin(np.radians(theta_i)) - np.sin(np.radians(theta_j)), wavelength


def pair_correlation(inter_displacements, theta_i_deg, theta_j_deg, wavelength):
    """Unit-amplitude cross term (1/K) sum_k exp(j 2 pi xi_k (sin ti - sin tj) / wavelength).

    This is the exact inter-subarray correlation for a known set of
    offsets, used as ground truth when comparing against blind estimates.
    """
    xi = _frozen(inter_displacements, float, "inter_displacements")
    delta_sin, wavelength = _pair(theta_i_deg, theta_j_deg, wavelength)
    phases = 2.0 * np.pi / wavelength * xi * delta_sin
    return complex(np.mean(np.exp(1j * phases)))


def expected_correlation(rho, subarray_count):
    """First two moments of the inter-subarray correlation magnitude.

    For offsets drawn i.i.d. uniform over the placement aperture the
    complex correlation averages to sin(rho)/rho and its power to
    1/K + (1 - 1/K) * (sin(rho)/rho)^2.

    Parameters
    ----------
    rho : float or array_like
        Scaled separation pi * D * (sin ti - sin tj) / wavelength.
    subarray_count : int
        Number of subarrays K >= 1.

    Returns
    -------
    (expected_magnitude, expected_power)
    """
    k_count = _whole(subarray_count, "subarray_count")
    if k_count < 1:
        raise InvalidParameterError("subarray_count must be >= 1")
    # sin(rho)/rho with the analytic limit at 0 (np.sinc is the normalized form).
    sinc = np.sinc(_frozen(rho, float, "rho") / np.pi)
    magnitude = np.abs(sinc)
    power = 1.0 / k_count + (1.0 - 1.0 / k_count) * sinc**2
    if np.ndim(rho) == 0:
        return float(magnitude), float(power)
    return magnitude, power


def pair_statistics(
    theta_i_deg,
    theta_j_deg,
    element_spacing,
    aperture,
    elements_per_subarray,
    subarray_count,
    wavelength,
):
    """Bundle rho, varphi and the closed-form moments for one direction pair:
    those of `expected_correlation`, scaled by |M| and M^2 for the subarray's
    Dirichlet factor M = sin(Mbar * varphi) / (Mbar * sin varphi)."""
    delta_sin, wavelength = _pair(theta_i_deg, theta_j_deg, wavelength)
    aperture, spacing = _number(aperture, "aperture"), _number(element_spacing, "element_spacing")
    if not (aperture > 0) or spacing < 0:
        raise InvalidParameterError("aperture must be positive and spacing nonnegative")
    m_count = _whole(elements_per_subarray, "elements_per_subarray")
    k_count = _whole(subarray_count, "subarray_count")
    if m_count < 1 or k_count < 1:
        raise InvalidParameterError("element and subarray counts must be >= 1")
    rho = np.pi * aperture * delta_sin / wavelength
    varphi = np.pi * spacing * delta_sin / wavelength
    dirichlet = 1.0 if m_count == 1 else float(_dirichlet(varphi, m_count))
    magnitude, power = expected_correlation(rho, k_count)
    return CorrelationStatistics(
        rho=float(rho),
        varphi=float(varphi),
        expected_magnitude=abs(dirichlet) * magnitude,
        expected_power=dirichlet**2 * power,
        dirichlet_factor=dirichlet,
    )
