"""Data-driven controller maps K = F(U, X) behind one interface.

Two concrete maps are provided:

* ``pinv``   -- K = U0 pinv(X0), the minimum-norm data-consistency gain.
* ``ce-lqr`` -- least-squares identification of (A, B) followed by an
  infinite-horizon LQR design on the identified pair.

Both are deterministic and defined on a neighborhood of the nominal data,
which is what the sensitivity analysis needs from them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, pseudoinverse, spectral_radius
from .lti import LtiSystem, TrainingData, snapshot_matrices


class DareError(RuntimeError):
    """Riccati fixed-point iteration did not converge."""


@dataclass(frozen=True)
class LqrWeights:
    """State and input penalties of the certainty-equivalence design."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.q, "Q")
        r = as_matrix(self.r, "R")
        for name, w in (("Q", q), ("R", r)):
            if w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.max(np.abs(w - w.T)) > 1e-12:
                raise ValueError(f"{name} must be symmetric to 1e-12")
        if np.min(np.linalg.eigvalsh(q)) < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(r)) <= 0.0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @classmethod
    def identity(cls, n: int, m: int) -> "LqrWeights":
        return cls(q=np.eye(n), r=np.eye(m))


@dataclass(frozen=True)
class GainResult:
    """Feedback gain plus a flag for rank-deficient data."""

    k: np.ndarray
    rank_deficient: bool


@dataclass(frozen=True)
class IdentifiedModel:
    a: np.ndarray
    b: np.ndarray
    rank_deficient: bool


@dataclass(frozen=True)
class StabilityCheck:
    stable: bool
    rho: float


def pinv_map(data: TrainingData) -> GainResult:
    """K = U0 pinv(X0); with full-row-rank X0 the closed loop is X1 pinv(X0)."""
    x0, _, u0 = snapshot_matrices(data)
    x0_pinv, rank = pseudoinverse(x0)
    return GainResult(k=u0 @ x0_pinv, rank_deficient=rank < x0.shape[0])


def identify(data: TrainingData) -> IdentifiedModel:
    """Least-squares fit [A B] = X1 pinv([X0; U0]).

    Exact on noiseless data when the regressor has full row rank; otherwise
    the minimum-norm solution is returned and flagged.
    """
    x0, x1, u0 = snapshot_matrices(data)
    w = np.vstack([x0, u0])
    w_pinv, rank = pseudoinverse(w)
    ab = x1 @ w_pinv
    n = data.n
    return IdentifiedModel(a=ab[:, :n], b=ab[:, n:], rank_deficient=rank < w.shape[0])


def dare_solve(
    a,
    b,
    q,
    r,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Fixed-point solution of the discrete algebraic Riccati equation.

    Iterates P <- Q + A'PA - A'PB (R + B'PB)^-1 B'PA from P0 = Q until the
    update is below ``tol`` in spectral norm. Divergence or hitting the
    iteration cap raises :class:`DareError` (the identified pair is then not
    stabilizable as far as this design is concerned).
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    q = as_matrix(q, "Q")
    r = as_matrix(r, "R")
    p = q.copy()
    # Divergence is detected and raised explicitly, so the transient overflow
    # that precedes it is not worth a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            bpb = r + b.T @ p @ b
            if not np.all(np.isfinite(bpb)):
                raise DareError("Riccati iteration diverged (non-finite iterate)")
            try:
                gain_term = np.linalg.solve(bpb, b.T @ p @ a)
            except np.linalg.LinAlgError as exc:
                raise DareError(f"R + B'PB became singular: {exc}") from exc
            p_next = q + a.T @ p @ a - a.T @ p @ b @ gain_term
            p_next = 0.5 * (p_next + p_next.T)
            if not np.all(np.isfinite(p_next)):
                raise DareError("Riccati iteration diverged (non-finite iterate)")
            delta = float(np.linalg.norm(p_next - p, 2))
            p = p_next
            if delta <= tol:
                return p
    raise DareError(f"Riccati iteration did not converge in {max_iter} steps")


def lqr_gain(a, b, q, r) -> np.ndarray:
    """Stationary LQR gain, sign convention u = K x (closed loop A + BK)."""
    p = dare_solve(a, b, q, r)
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    return -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)


def ce_lqr_map(data: TrainingData, weights: LqrWeights) -> GainResult:
    """Certainty-equivalence design: identify, then LQR on the identified pair."""
    model = identify(data)
    if not np.any(model.b):
        # No identified control authority. The gain formula is zero for any
        # cost matrix, so take that limit directly instead of asking the
        # Riccati solve to stabilize with nothing.
        return GainResult(k=np.zeros((data.m, data.n)), rank_deficient=model.rank_deficient)
    k = lqr_gain(model.a, model.b, weights.q, weights.r)
    return GainResult(k=k, rank_deficient=model.rank_deficient)


def check_a1(sys: LtiSystem, k) -> StabilityCheck:
    """Does u = K x stabilize the plant? Reports rho(A + BK)."""
    k = as_matrix(k, "K")
    rho = spectral_radius(sys.a + sys.b @ k)
    return StabilityCheck(stable=rho < 1.0, rho=rho)


class ControllerMap(ABC):
    """A deterministic map from training data to a feedback gain."""

    name: str = "abstract"

    @abstractmethod
    def evaluate(self, data: TrainingData) -> np.ndarray:
        """Return the m x n gain for these (possibly perturbed) data."""

    def evaluate_flagged(self, data: TrainingData) -> GainResult:
        return GainResult(k=self.evaluate(data), rank_deficient=False)

    def descriptor(self) -> dict:
        return {"name": self.name, "hyperparameters": {}}


class PinvMap(ControllerMap):
    name = "pinv"

    def evaluate(self, data: TrainingData) -> np.ndarray:
        return pinv_map(data).k

    def evaluate_flagged(self, data: TrainingData) -> GainResult:
        return pinv_map(data)


class CeLqrMap(ControllerMap):
    name = "ce-lqr"

    def __init__(self, weights: LqrWeights | None = None):
        self.weights = weights

    def _weights_for(self, data: TrainingData) -> LqrWeights:
        return self.weights or LqrWeights.identity(data.n, data.m)

    def evaluate(self, data: TrainingData) -> np.ndarray:
        return ce_lqr_map(data, self._weights_for(data)).k

    def evaluate_flagged(self, data: TrainingData) -> GainResult:
        return ce_lqr_map(data, self._weights_for(data))

    def descriptor(self) -> dict:
        hyper = {}
        if self.weights is not None:
            hyper = {"q": self.weights.q.tolist(), "r": self.weights.r.tolist()}
        return {"name": self.name, "hyperparameters": hyper}


def map_from_descriptor(name: str, hyperparameters: dict | None = None) -> ControllerMap:
    """Build a controller map from its CLI descriptor."""
    hyper = hyperparameters or {}
    if name == "pinv":
        if hyper:
            raise ValueError("the pinv map takes no hyperparameters")
        return PinvMap()
    if name == "ce-lqr":
        unknown = set(hyper) - {"q", "r"}
        if unknown:
            raise ValueError(f"unknown ce-lqr hyperparameters: {sorted(unknown)}")
        weights = None
        if hyper:
            if not {"q", "r"} <= set(hyper):
                raise ValueError("ce-lqr needs both q and r when weights are given")
            weights = LqrWeights(
                q=np.asarray(hyper["q"], dtype=float),
                r=np.asarray(hyper["r"], dtype=float),
            )
        return CeLqrMap(weights)
    raise ValueError(f"unknown controller map {name!r}")
