"""Finite-difference sensitivity of a controller map and the first-order
closed-loop model built from it.

The Jacobian is taken with respect to vec(X) and only on the perturbation
support: column i approximates d vec(K) / d vec(X)_i by central differences.
Attaching an input matrix B (ground truth or identified; the choice is
recorded) turns the columns into the n x n products B J_i that drive every
bound downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lti import TrainingData, as_support, check_fields
from .linalg import as_matrix

# Optimal central-difference step scale for O(h^2) schemes.
_FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))

B_SOURCE_TRUE = "true"
B_SOURCE_IDENTIFIED = "identified"


@dataclass(frozen=True)
class PerturbationModel:
    """Support of the data perturbation and the per-entry noise levels.

    ``support`` holds 0-based indices into vec(X); every supported entry is
    perturbed independently with standard deviation ``sigmas[j]``.
    """

    support: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        support = as_support(self.support)
        sigmas = np.asarray(self.sigmas, dtype=float).ravel()
        if sigmas.size == 1 and support.size > 1:
            sigmas = np.full(support.size, sigmas[0])
        if support.size != sigmas.size:
            raise ValueError("support and sigmas must have matching lengths")
        if np.any(sigmas <= 0.0) or not np.all(np.isfinite(sigmas)):
            raise ValueError("all sigmas must be positive and finite")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def size(self) -> int:
        return self.support.size


@dataclass(frozen=True)
class JacobianBundle:
    """FD columns of the map on the support, plus cached B J_i products.

    ``columns[:, j]`` is the length-(m*n) derivative of vec(K) with respect
    to vec(X) at support index ``support[j]``. ``gain`` is the m x n gain of
    the map on the unperturbed record, all NaN where that probe failed.
    ``map`` is the descriptor of the differentiated map and ``record`` names
    the training record it was differentiated on. ``bj`` is filled by
    :meth:`with_b` and holds the stacked n x n products.
    """

    support: np.ndarray
    columns: np.ndarray
    fd_steps: np.ndarray
    m: int
    n: int
    failures: dict
    gain: np.ndarray | None = None
    map: dict | None = None
    record: str | None = None
    bj: np.ndarray | None = None
    b_source: str | None = None

    @property
    def size(self) -> int:
        return self.support.size

    def nominal_gain(self, cmap, data: TrainingData) -> np.ndarray:
        """The gain of the map on the record the bundle was taken on: ``gain``,
        or, where that probe failed, ``cmap.evaluate(data)``, which raises the
        map's own error."""
        if np.isfinite(self.gain).all():
            return self.gain
        return cmap.evaluate(data)

    def with_b(self, b, source: str) -> "JacobianBundle":
        """Attach an input matrix and cache the B J_i products."""
        if source not in (B_SOURCE_TRUE, B_SOURCE_IDENTIFIED):
            raise ValueError(f"unknown B source {source!r}")
        if self.failures:
            raise ValueError(
                f"cannot attach B: {len(self.failures)} Jacobian columns failed "
                f"(indices {sorted(self.failures)})"
            )
        b = as_matrix(b, "B")
        if b.shape != (self.n, self.m):
            raise ValueError(f"B must be {self.n}x{self.m}, got {b.shape}")
        if self.columns.shape != (self.m * self.n, self.size):
            raise ValueError(f"columns must be {self.m * self.n}x{self.size}, "
                             f"got {self.columns.shape}")
        # Column j is vec(J_j), stacked column by column: read as n x m it is J_j'.
        # Contiguous J_j let matmul make the BLAS call of a single product.
        j = np.swapaxes(self.columns.T.reshape((self.size, self.n, self.m)), 1, 2)
        return replace(self, bj=b @ np.ascontiguousarray(j), b_source=source)

    def to_json(self) -> dict:
        return {
            "support": self.support.tolist(),
            "columns": self.columns.tolist(),
            "fd_steps": self.fd_steps.tolist(),
            "m": self.m,
            "n": self.n,
            "failures": {str(k): v for k, v in self.failures.items()},
            "gain": self.gain.tolist(),
            "map": self.map,
            "record": self.record,
            "b_source": self.b_source,
        }

    @classmethod
    def from_json(cls, doc) -> "JacobianBundle":
        m, n = check_fields(doc, ("support", "columns", "fd_steps", "m", "n", "gain"),
                            "Jacobian bundle", counts=("m", "n"))
        try:
            return cls(
                support=as_support(doc["support"]),
                columns=np.asarray(doc["columns"], dtype=float),
                fd_steps=np.asarray(doc["fd_steps"], dtype=float),
                m=m,
                n=n,
                failures={int(k): v for k, v in doc.get("failures", {}).items()},
                gain=np.asarray(doc["gain"], dtype=float),
                map=doc.get("map"),
                record=doc.get("record"),
            )
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"Jacobian bundle has a malformed field: {exc}") from exc


def fd_jacobian(cmap, data: TrainingData, support, step: float | None = None) -> JacobianBundle:
    """Central-difference Jacobian columns of the map on the given support.

    The step follows h = cbrt(eps) * max(1, |x_i|) per entry unless a fixed
    positive, finite ``step`` is forced (step-halving studies). All 2k + 1
    probes, the unperturbed record first, go through one batched evaluation;
    the first gives ``gain``. A numerical map failure at a probe is recorded
    per column instead of aborting the whole bundle.
    """
    support = as_support(support, data.x.size)
    k = support.size
    if step is None:
        steps = _FD_STEP_SCALE * np.maximum(1.0, np.abs(data.x_vec[support]))
    elif 0.0 < step < np.inf:
        steps = np.full(k, float(step))
    else:
        raise ValueError(f"a forced FD step must be positive and finite, got {step!r}")
    # Probe 0 is the unperturbed record; probe 2j + 1 moves entry j by +h_j,
    # probe 2j + 2 by -h_j.
    deltas = np.zeros((2 * k + 1, k))
    deltas[1::2][np.arange(k), np.arange(k)] = steps
    deltas[2::2][np.arange(k), np.arange(k)] = -steps
    gains = cmap.evaluate_deltas(data, support, deltas)
    ok = np.all(np.isfinite(gains), axis=(1, 2))
    m, n = data.m, data.n
    # Column j is vec(K+ - K-) / 2h_j, vec stacking columns as TrainingData.x_vec does.
    diffs = (gains[1::2] - gains[2::2]) / (2.0 * steps[:, None, None])
    columns = np.swapaxes(diffs, 1, 2).reshape((k, m * n)).T
    failures: dict = {}
    for j in np.flatnonzero(~(ok[1::2] & ok[2::2])):
        failed = [sign for sign, good in (("+h", ok[2 * j + 1]), ("-h", ok[2 * j + 2]))
                  if not good]
        failures[int(support[j])] = f"map evaluation failed at the {' and '.join(failed)} probe"
        columns[:, j] = np.nan
    return JacobianBundle(
        support=support,
        columns=columns,
        fd_steps=steps,
        m=m,
        n=n,
        failures=failures,
        gain=gains[0],
        map=cmap.descriptor(),
    )


def first_order_acl(a_cl, bundle: JacobianBundle, z) -> np.ndarray:
    """Linearized perturbed closed loop A_cl + sum_i z_i B J_i.

    ``z`` is one draw (length k, a one-row stack) or a stack of draws (N x k,
    giving an (N, n, n) stack), formed in one product A_cl + Z [vec B J_i]'.
    BLAS picks the summation order, so a loop equals the support-order sum to
    rounding only, (k + 1) eps (|A_cl| + sum_i |z_i| |B J_i|) entrywise, and
    its last bits may depend on the stack; the draws, verdicts and artifacts
    stay bit-stable unless a loop lies within that rounding of rho = 1.
    """
    a_cl = as_matrix(a_cl, "A_cl")
    if bundle.bj is None:
        raise ValueError("bundle has no B attached; call with_b first")
    k, shape = bundle.size, bundle.bj.shape[1:]
    if a_cl.shape != shape:
        raise ValueError(f"A_cl has shape {a_cl.shape}, but the bundle's B J_i are {shape}")
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != k:
        raise ValueError(f"z has shape {z.shape}, expected (..., {k})")
    acl = (z.reshape(-1, k) @ bundle.bj.reshape(k, -1)).reshape(*z.shape[:-1], *shape)
    acl += a_cl
    return acl
