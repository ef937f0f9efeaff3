"""Dense numerical kernel: vec operators, spectra, SVD-based norms, Gaussian Q.

Everything here is a pure function over float64 arrays. The heavy
factorizations (eigendecomposition, SVD) are delegated to LAPACK through
numpy; failures surface as :class:`EigensolverError` instead of silent junk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Probability floor used when reporting values that underflow double
# precision (machine epsilon of float64).
EPS_FLOOR = 2.2e-16

_EPS = np.finfo(float).eps

_SQRT2 = math.sqrt(2.0)


class EigensolverError(RuntimeError):
    """Eigenvalue iteration failed to converge."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def vec(m) -> np.ndarray:
    """Column-stack a matrix into a 1-D vector."""
    return as_matrix(m, "vec argument").flatten(order="F")


def vec_inverse(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild the rows x cols matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise ValueError(
            f"vector of length {v.size} cannot fill a {rows}x{cols} matrix"
        )
    return v.reshape((rows, cols), order="F")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a square matrix plus diagonalizability diagnostics.

    ``kappa_v`` is the spectral condition number of the eigenvector matrix,
    finite only when the numerical diagonalization succeeded.
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    diagonalizable: bool
    kappa_v: float


def eigenvalues(m) -> Spectrum:
    """Full spectrum of a square matrix.

    Raises :class:`EigensolverError` if the underlying QR iteration does not
    converge; never returns partial results.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues requires a square matrix, got {m.shape}")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc
    sv = np.linalg.svd(vecs, compute_uv=False)
    n = m.shape[0]
    # V numerically singular <=> defective (repeated eigenvalue, missing
    # eigenvector); kappa(V) is reported as inf in that case.
    nonsingular = sv[-1] > n * np.finfo(float).eps * sv[0]
    kappa_v = float(sv[0] / sv[-1]) if nonsingular else math.inf
    return Spectrum(
        eigenvalues=vals,
        spectral_radius=float(np.max(np.abs(vals))),
        diagonalizable=bool(nonsingular),
        kappa_v=kappa_v,
    )


def spectral_radius(m) -> float | np.ndarray:
    """max |lambda_i| of a square matrix, or of each matrix in an (N, n, n) stack.

    One matrix must be finite, and an eigensolver that does not converge
    raises :class:`EigensolverError`. A stack item with non-finite entries or
    a non-converging eigensolver has rho NaN; the rest of the stack is
    unaffected.
    """
    m = np.asarray(m, dtype=float)
    stack = m if m.ndim == 3 else as_matrix(m)[None]
    if stack.shape[-1] != stack.shape[-2]:
        raise ValueError(f"spectral_radius requires square matrices, got {m.shape}")
    rho = _radii(stack)
    if m.ndim == 3:
        return rho
    if np.isnan(rho[0]):
        raise EigensolverError("eigenvalue iteration did not converge")
    return float(rho[0])


def _radii(stack: np.ndarray) -> np.ndarray:
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    safe = np.where(finite[:, None, None], stack, 0.0)
    try:
        rho = np.max(np.abs(np.linalg.eigvals(safe)), axis=-1)
    except np.linalg.LinAlgError:
        # One item did not converge and numpy fails the whole stack: split
        # it until the failing items stand alone.
        if len(stack) == 1:
            return np.array([np.nan])
        half = len(stack) // 2
        rho = np.concatenate([_radii(part) for part in (safe[:half], safe[half:])])
    return np.where(finite, rho, np.nan)


def spectral_norm(m) -> float:
    """Largest singular value (Euclidean-induced norm)."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def condition_number_spectral(m) -> float:
    """sigma_max / sigma_min of a square matrix; inf when singular."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"condition number requires a square matrix, got {m.shape}")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] == 0.0:
        return math.inf
    return float(sv[0] / sv[-1])


def pseudoinverse(m) -> tuple[np.ndarray, int | np.ndarray]:
    """Moore-Penrose pseudoinverse via SVD truncation, with its numerical rank.

    Takes one matrix or an (N, r, c) stack; a stack gets one pinv and one
    rank per item. Singular values at or below
    ``max(r, c) * machine_eps * sigma_max`` are treated as zero; the rank
    counts the ones kept.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 2:
        m = as_matrix(m)
    elif m.ndim != 3 or 0 in m.shape[1:] or not np.all(np.isfinite(m)):
        raise ValueError(f"pseudoinverse needs a finite matrix or stack, got shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > max(m.shape[-2:]) * _EPS * s[..., :1]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    pinv = (vt.swapaxes(-1, -2) * s_inv[..., None, :]) @ u.swapaxes(-1, -2)
    rank = keep.sum(axis=-1)
    return pinv, (int(rank) if m.ndim == 2 else rank)


def q_function(x: float) -> float:
    """Complementary CDF of the standard normal, Q(x) = 0.5 erfc(x / sqrt 2)."""
    if math.isnan(x):
        raise ValueError("q_function is undefined for NaN")
    return 0.5 * math.erfc(x / _SQRT2)
