"""Blind source separation by joint diagonalization of cumulant matrices.

This is the JADE pipeline specialized to the distributed-subarray problem:
the K subarray snapshots act as K samples of an M-dimensional mixture
whose mixing matrix is the steering matrix and whose "sources" are the
per-subarray phase progressions of each impinging signal.  Separation
needs no calibration between subarrays, which is exactly what makes the
partly calibrated problem tractable from one temporal snapshot.

Stages, each exposed on its own:

1. whitening from the top of the sample covariance spectrum, with the
   noise level taken as the mean of the trailing eigenvalues,
2. fourth-order sample cumulants of the whitened rows, computed directly
   as one packed L^2 x L^2 matrix by `_packed_cumulants`,
3. joint approximate diagonalization of the dominant devectorized
   eigenmatrices by Givens rotations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .array_model import _freeze, _frozen, _matrix
from .errors import InvalidParameterError, RankDeficiencyError

__all__ = [
    "WhiteningResult",
    "CumulantMatrixSet",
    "UnitaryDiagonalizer",
    "SeparationResult",
    "estimate_whitener",
    "sample_cumulant",
    "cumulant_matrix_set",
    "joint_diagonalize",
    "jade_separate",
    "jade_cost",
]


_ANGLE_THRESHOLD = 1e-8  # joint_diagonalize skips smaller rotations


@dataclass(frozen=True)
class WhiteningResult:
    """Whitening matrix W, noise estimate, and whitened rows Z = W Y."""

    whitener: np.ndarray
    noise_estimate: float
    whitened: np.ndarray

    def __post_init__(self):
        _freeze(self, whitener=complex, whitened=complex)


@dataclass(frozen=True)
class CumulantMatrixSet:
    """The L eigen-scaled cumulant eigenmatrices to diagonalize jointly.

    ``eigenvalues`` holds the L dominant singular values used as scales;
    ``spectrum`` keeps the full signed eigenvalue list of the packed
    cumulant matrix (descending by magnitude) for inspection of what the
    truncation discarded, and ``packed`` the L^2 x L^2 matrix itself.
    """

    matrices: tuple
    eigenvalues: tuple
    spectrum: tuple
    packed: np.ndarray

    def __post_init__(self):
        # One read-only stack; each matrix is a view of it.
        object.__setattr__(self, "matrices", tuple(_frozen(self.matrices, complex, "matrices")))
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))
        object.__setattr__(self, "spectrum", tuple(float(v) for v in self.spectrum))
        _freeze(self, packed=complex)


@dataclass(frozen=True)
class UnitaryDiagonalizer:
    """Accumulated Givens rotation V and the residual off-diagonal energy."""

    rotation: np.ndarray
    off_diagonal_energy: float
    sweeps: int

    def __post_init__(self):
        _freeze(self, rotation=complex)


@dataclass(frozen=True)
class SeparationResult:
    """Full output of the separation pipeline, recovered rows last."""

    whitener: WhiteningResult
    cumulants: CumulantMatrixSet
    diagonalizer: UnitaryDiagonalizer
    recovered: np.ndarray

    def __post_init__(self):
        _freeze(self, recovered=complex)


def estimate_whitener(measurements, n_sources):
    """Estimate the whitening matrix from the sample covariance.

    The noise level is the mean of the N - L smallest covariance
    eigenvalues; the whitener scales the top-L eigenvectors by the
    inverse square root of the debiased eigenvalues.

    Parameters
    ----------
    measurements : array_like or MeasurementMatrix
        N x T complex matrix (one column per sample).
    n_sources : int
        Number of signal dimensions L with 1 <= L < N and T >= L.

    Raises
    ------
    RankDeficiencyError
        If a debiased signal eigenvalue is not positive; the offending
        1-based index is recorded on the exception.
    """
    y = _matrix(measurements, "measurements")
    n_rows, n_samples = y.shape
    n_src = int(n_sources)
    if not (0 < n_src < n_rows):
        raise InvalidParameterError("need 1 <= n_sources < number of rows")
    if n_samples < n_src:
        raise InvalidParameterError("need at least n_sources samples")
    cov = y @ y.conj().T / n_samples
    values, vectors = np.linalg.eigh(cov)
    values, vectors = values[::-1], vectors[:, ::-1]
    noise = max(float(values[n_src:].mean()), 0.0)
    gaps = values[:n_src] - noise
    if (gaps <= 0).any():
        index = int((gaps <= 0).argmax())
        raise RankDeficiencyError(
            index + 1,
            f"signal eigenvalue {index + 1} ({values[index]:.3e}) does not "
            f"exceed the noise estimate {noise:.3e}",
        )
    whitener = (gaps**-0.5)[:, None] * vectors[:, :n_src].conj().T
    return WhiteningResult(
        whitener=whitener,
        noise_estimate=noise,
        whitened=whitener @ y,
    )


def sample_cumulant(ea, eb, ec, ed):
    """Fourth-order sample cumulant of four equal-length vectors.

    Computes (1/T)(ea.eb)'(ec.ed) minus the three Gaussian pairing terms
    (1/T^2)(ea'eb ec'ed + ea'ec eb'ed + ea'ed eb'ec), where '.' is the
    elementwise product and products are plain (unconjugated) dots.
    Conjugation is the caller's job, matching the convention that rows of
    the conjugated matrix are passed directly.
    """
    vecs = [np.asarray(v, dtype=complex).ravel() for v in (ea, eb, ec, ed)]
    n_samples = vecs[0].size
    if n_samples < 1 or any(v.size != n_samples for v in vecs):
        raise InvalidParameterError("cumulant arguments must share one nonzero length")
    a, b, c, d = vecs
    direct = (a * b) @ (c * d) / n_samples
    pairings = (a @ b) * (c @ d) + (a @ c) * (b @ d) + (a @ d) * (b @ c)
    return complex(direct - pairings / n_samples**2)


def _packed_cumulants(z):
    """Fourth-order sample cumulants of the rows of z as one L^2 x L^2 matrix.

    Entry (b*L + a, c*L + d) is ``sample_cumulant(z[a], z[b].conj(), z[c],
    z[d].conj())``, for every index quadruple at once.
    """
    n_samples = z.shape[1]
    zc = z.conj()
    # Row b*L + a is conj(z_b) z_a, so pairs @ pairs^H is the direct term.
    pairs = (zc[:, None, :] * z[None, :, :]).reshape(-1, n_samples)
    mixed, square = z @ zc.T, z @ z.T  # mixed[a, b] = z_a . conj z_b
    outer = np.multiply.outer(mixed.T, mixed)  # [b, a, c, d] = mixed[a, b] mixed[c, d]
    pairings = (  # the three Gaussian pairings on the (b, a, c, d) axes
        outer
        + np.multiply.outer(square.conj(), square).transpose(0, 2, 3, 1)
        + outer.transpose(0, 2, 1, 3)  # mixed[a, d] mixed[c, b]
    ).reshape(len(pairs), -1)
    return pairs @ pairs.conj().T / n_samples - pairings / n_samples**2


def cumulant_matrix_set(whitened):
    """Pack all fourth-order cumulants of the whitened rows and truncate.

    Entry (p, q) of the L^2 x L^2 matrix built by `_packed_cumulants` is
    the cumulant of rows (a, b, c, d) with p = a + (b-1) L and
    q = d + (c-1) L (1-based).  The matrix is Hermitian; its eigenvalues
    are ordered by descending magnitude, and the L dominant eigenvectors
    are devectorized column-major into L x L matrices and scaled by the
    corresponding singular values.
    """
    z = _matrix(whitened, "whitened rows")
    n_src, n_samples = z.shape
    if n_samples <= n_src:
        raise InvalidParameterError("need more samples than rows")
    big = _packed_cumulants(z)
    values, vectors = np.linalg.eigh(big)
    order = np.argsort(-np.abs(values), kind="stable")
    values, vectors = values[order], vectors[:, order]
    scales = np.abs(values[:n_src])
    return CumulantMatrixSet(
        matrices=(vectors[:, :n_src] * scales).reshape(n_src, n_src, n_src).transpose(2, 1, 0),
        eigenvalues=tuple(scales),
        spectrum=tuple(values),
        packed=big,
    )


def _off_diagonal_energy(stack):
    power = np.abs(stack) ** 2  # per matrix, then added in order by the built-in sum
    return sum((power.sum(axis=(1, 2)) - power.trace(axis1=1, axis2=2)).tolist())


def joint_diagonalize(matrix_set, max_sweeps=100):
    """Jointly diagonalize a set of matrices by cyclic Givens rotations.

    Every (m, n) plane is rotated by the closed-form minimizer of the
    joint off-diagonal energy: the rotation angles come from the dominant
    eigenvector of the real part of O^H O, where row l of O collects the
    (m, n)-plane entries of matrix l.  Sweeps stop when every rotation
    angle in a sweep is at most ``_ANGLE_THRESHOLD`` (1e-8) or after
    ``max_sweeps``; 2 x 2 matrices stop after one, since the rotation of
    their one plane is the exact joint minimizer.  ``sweeps`` counts sweeps.

    Accepts a CumulantMatrixSet or any sequence of finite square matrices.
    """
    stack = _frozen(getattr(matrix_set, "matrices", matrix_set), complex, "matrices")
    if stack.ndim != 3 or stack.shape[0] == 0 or stack.shape[1] != stack.shape[2]:
        raise InvalidParameterError("need a nonempty set of square matrices of one size")
    if not np.isfinite(stack).all():
        raise InvalidParameterError("matrices must be finite")
    size = stack.shape[1]
    planes = list(itertools.combinations(range(size), 2))
    rows = np.empty((stack.shape[0], 3), dtype=complex)  # O of the current plane
    rotation = np.eye(size, dtype=complex)
    sweeps_done = 0
    for _ in range(int(max_sweeps)):
        rotated = False
        for m, n in planes:
            np.subtract(stack[:, m, m], stack[:, n, n], out=rows[:, 0])
            np.add(stack[:, m, n], stack[:, n, m], out=rows[:, 1])
            rows[:, 2] = 1j * (stack[:, n, m] - stack[:, m, n])
            direction = np.linalg.eigh((rows.conj().T @ rows).real)[1][:, -1]
            if direction[0] < 0:
                direction = -direction
            alpha = np.sqrt((1.0 + direction[0]) / 2.0)
            beta = (direction[1] - 1j * direction[2]) / (2.0 * alpha)
            if abs(beta) <= _ANGLE_THRESHOLD:
                continue
            rotated = True
            givens = np.eye(size, dtype=complex)
            givens[m, m] = alpha
            givens[n, n] = alpha
            givens[n, m] = beta
            givens[m, n] = -np.conj(beta)
            stack = givens.conj().T @ stack @ givens
            rotation = rotation @ givens
        sweeps_done += 1
        if not rotated or size == 2:  # one plane, already at its joint minimizer
            break
    return UnitaryDiagonalizer(
        rotation=rotation,
        off_diagonal_energy=_off_diagonal_energy(stack),
        sweeps=sweeps_done,
    )


def jade_separate(measurements, n_sources):
    """Whiten, pack the cumulants and `joint_diagonalize` them; return all intermediates.

    The recovered rows are V^H W Y; each row estimates one source row up
    to the usual permutation and per-row unit-modulus phase ambiguity.
    """
    whitening = estimate_whitener(measurements, n_sources)
    cumulants = cumulant_matrix_set(whitening.whitened)
    diagonalizer = joint_diagonalize(cumulants)
    recovered = diagonalizer.rotation.conj().T @ whitening.whitened
    return SeparationResult(
        whitener=whitening,
        cumulants=cumulants,
        diagonalizer=diagonalizer,
        recovered=recovered,
    )


def jade_cost(source_rows, include_diagonal_triples=False):
    """Sum of squared fourth-order cross-cumulant moduli over row triples.

    The sum runs over triples (r, p, q) of Cum(row_r, conj row_r, row_p,
    conj row_q), entry (r*L + r, p*L + q) of the `_packed_cumulants`
    matrix.  By default the L fully diagonal triples r = p = q are
    excluded: they measure the rows' own kurtosis, not their mutual
    contamination, and stay bounded away from zero for constant-modulus
    rows.  Set ``include_diagonal_triples`` to sum every triple.
    """
    s = _matrix(source_rows, "source rows")
    rows = np.arange(s.shape[0])
    packed_rows = rows * (len(rows) + 1)  # r*L + r
    moduli = np.abs(_packed_cumulants(s)[packed_rows]) ** 2
    if not include_diagonal_triples:
        moduli[rows, packed_rows] = 0.0
    return float(np.sum(moduli))
