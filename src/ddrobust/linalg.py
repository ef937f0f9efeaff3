"""Dense numerical kernels that numpy lacks: spectra, stability verdicts,
a rank-reporting pseudoinverse, Gaussian Q.

Everything here is a pure function over float64 arrays. The heavy
factorizations (eigendecomposition, SVD) are delegated to LAPACK through
numpy; failures surface as :class:`EigensolverError` instead of silent junk.
Where numpy has the operation itself, callers use numpy directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps

_SQRT2 = math.sqrt(2.0)

# ``unstable`` reads the verdict of stacks up to this n off the characteristic
# polynomial. On perturbed platoon loops (kron(I, vehicle loop)) a fixed 1e-6
# margin gave wrong verdicts for 8% of the items at n = 12 and 92% at n = 20;
# the scaled margin below decides none of them from n = 8 on.
_POLY_MAX_N = 4
# Below this many items one stacked eigvals is cheaper than the polynomial
# test, whose numpy calls cost about 0.1 ms per stack.
_POLY_MIN_ITEMS = 16
# Margin by which the Schur-Cohn reflection coefficients must clear 1, per
# unit of max(1, ||A||_F)^n, the scale of the coefficients' rounding error.
_POLY_MARGIN = 1e-6


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


def unstable(stack) -> np.ndarray:
    """Per item of an (N, n, n) stack: 1.0 where rho >= 1, else 0.0.

    The verdict is ``spectral_radius(stack) >= 1`` item for item, NaN exactly
    where that rho is NaN. For n <= 4 it is read off each item's
    characteristic polynomial, and ``eigvals`` sees only the items that test
    leaves undecided; larger n, and stacks of fewer than 16 items, go to
    ``eigvals`` whole.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError(f"unstable requires an (N, n, n) stack, got {stack.shape}")
    verdict = np.full(len(stack), np.nan)
    undecided = np.ones(len(stack), dtype=bool)
    if stack.shape[-1] <= _POLY_MAX_N and len(stack) >= _POLY_MIN_ITEMS:
        with np.errstate(all="ignore"):
            inside, outside = _schur_cohn(stack)
        verdict[inside], verdict[outside] = 0.0, 1.0
        undecided = ~(inside | outside)
    if undecided.any():
        rho = _radii(stack[undecided])
        verdict[undecided] = np.where(np.isnan(rho), np.nan, rho >= 1.0)
    return verdict


def _schur_cohn(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the items whose roots all lie inside / not all inside |z| = 1.

    The power sums s_k = tr(A^k), k <= 4, come from A and A^2, and Newton's
    identities k p_k = -(s_k + p_1 s_(k-1) + ... + p_(k-1) s_1) give
    det(zI - A) = sum_k p_k z^(n-k). The Schur-Cohn recursion gives its
    reflection coefficients: every root is inside iff each coefficient has
    modulus < 1 before the first that does not. An item is decided only if
    its coefficients clear 1 by the margin, which scales with the
    coefficients' rounding error, and are all finite.
    """
    count, n = len(stack), stack.shape[-1]
    square = stack @ stack
    sums = [np.einsum("ijj->i", stack), np.einsum("ijj->i", square),
            np.einsum("ijk,ikj->i", stack, square), np.einsum("ijk,ikj->i", square, square)]
    p = np.ones((n + 1, count))  # coefficient-major: p[k] holds every item's p_k
    for k in range(1, n + 1):
        p[k] = -sum(p[j] * sums[k - 1 - j] for j in range(k)) / k
    frobenius = np.sqrt(np.einsum("ijk,ijk->i", stack, stack))
    margin = _POLY_MARGIN * np.maximum(1.0, frobenius) ** n
    inside = np.all(np.isfinite(p), axis=0)  # every coefficient so far below 1 - margin
    outside = np.zeros(count, dtype=bool)
    for deg in range(n, 0, -1):
        refl = p[deg] / p[0]
        outside |= inside & (np.abs(refl) > 1.0 + margin)
        inside &= np.abs(refl) < 1.0 - margin
        p = p[:deg] - refl * p[deg:0:-1]
    return inside, outside


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


def pseudoinverse(m) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse via SVD truncation, with its numerical rank.

    Singular values of the r x c matrix at or below
    ``max(r, c) * machine_eps * sigma_max`` are treated as zero; the rank
    counts the ones kept.
    """
    m = as_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > max(m.shape) * _EPS * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * s_inv) @ u.T, int(keep.sum())


def q_function(x: float) -> float:
    """Complementary CDF of the standard normal, Q(x) = 0.5 erfc(x / sqrt 2)."""
    if math.isnan(x):
        raise ValueError("q_function is undefined for NaN")
    return 0.5 * math.erfc(x / _SQRT2)
