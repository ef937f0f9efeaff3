"""Hand-rolled numerical oracles shared by the test modules.

These deliberately avoid the code paths used by the package (LAPACK eig/svd,
erfc): an inverse by Gauss-Jordan elimination, a spectral norm by power
iteration, cubic roots by the depressed-cubic formula, and the Gaussian tail
by Simpson quadrature, and the linearized loop summed entry by entry. Slow
and simple on purpose. ``spy_eigvals`` records which stacks reach
``np.linalg.eigvals``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def gauss_inverse(m) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    m = np.array(m, dtype=float)
    n = m.shape[0]
    aug = np.hstack([m, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def power_norm(m, iters: int = 2000, seed: int = 0) -> float:
    """Largest singular value by power iteration on M^T M."""
    m = np.asarray(m, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v = v / math.sqrt(v @ v)
    for _ in range(iters):
        w = m.T @ (m @ v)
        norm = math.sqrt(w @ w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    mv = m @ v
    return math.sqrt(mv @ mv)


def cubic_roots(a: float, b: float, c: float) -> list[complex]:
    """Roots of z^3 + a z^2 + b z + c by the depressed-cubic formula."""
    a, b, c = complex(a), complex(b), complex(c)
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    s = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + s
    if abs(u3) < abs(-q / 2.0 - s):
        u3 = -q / 2.0 - s
    if abs(u3) == 0.0:
        return [-a / 3.0] * 3
    u = u3 ** (1.0 / 3.0)
    v = -p / (3.0 * u)
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    return [
        u + v - a / 3.0,
        u * w + v * w.conjugate() - a / 3.0,
        u * w.conjugate() + v * w - a / 3.0,
    ]


def char_poly_roots_3x3(m) -> list[complex]:
    """Eigenvalues of a 3x3 matrix via its characteristic polynomial.

    det(zI - M) = z^3 - tr(M) z^2 + (sum of principal 2x2 minors) z - det(M),
    with the determinant expanded by the rule of Sarrus.
    """
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    det = (
        m[0, 0] * m[1, 1] * m[2, 2]
        + m[0, 1] * m[1, 2] * m[2, 0]
        + m[0, 2] * m[1, 0] * m[2, 1]
        - m[0, 2] * m[1, 1] * m[2, 0]
        - m[0, 0] * m[1, 2] * m[2, 1]
        - m[0, 1] * m[1, 0] * m[2, 2]
    )
    return cubic_roots(-tr, minors, -det)


def match_complex_sets(computed, expected, tol: float) -> None:
    """Greedy nearest-neighbor matching of two eigenvalue multisets."""
    remaining = list(computed)
    for target in expected:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - target))
        err = abs(remaining[best] - target)
        assert err <= tol, f"no eigenvalue within {tol} of {target} (closest err {err})"
        remaining.pop(best)


def q_quadrature(x: float, steps: int = 100_000) -> float:
    """Gaussian tail integral by composite Simpson from x to 12.

    Q(12) ~ 1.8e-33, far below every tolerance used here.
    """
    hi = 12.0
    if x >= hi:
        return 0.0
    if steps % 2:
        steps += 1
    t = np.linspace(x, hi, steps + 1)
    pdf = np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((t[1] - t[0]) / 3.0 * (weights @ pdf))


def left_to_right_acl(a_cl, bj, z) -> np.ndarray:
    """A_cl + z_1 BJ_1 + ... + z_k BJ_k, added in support order, one support
    entry at a time over the whole stack of draws ``z`` (k or N x k)."""
    z = np.asarray(z, dtype=float)
    acl = np.empty((*z.shape[:-1], *np.shape(a_cl)))
    acl[...] = a_cl
    for z_i, bj_i in zip(np.moveaxis(z, -1, 0), bj):
        acl += z_i[..., None, None] * bj_i
    return acl


def spy_eigvals(monkeypatch) -> list[int]:
    """From now on, the size of every stack handed to ``np.linalg.eigvals``."""
    items = []
    eigvals = np.linalg.eigvals

    def spy(a):
        items.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    return items
