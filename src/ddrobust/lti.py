"""Plant definition, trajectory simulation and training-data collection.

A training record holds the stacked input sequences ``U`` (mT x N), the
stacked state trajectories ``X`` (nT x N) and the initial states of each
experiment. ``X`` stores the states x(1..T); x(0) is kept separately in
``x0s`` so that X has exactly p = n*T rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import as_matrix

InputLaw = Callable[[np.random.Generator, int, int], np.ndarray]

# The only sample selection the controller maps accept. data.json records
# it, and from_json rejects any other.
_FULL_TRAJECTORY = {"kind": "full_trajectory"}


def check_fields(doc, keys, what: str) -> None:
    """Reject a loaded artifact that is not a JSON object holding ``keys``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks key(s): {', '.join(missing)}")


@dataclass(frozen=True)
class LtiSystem:
    """Discrete-time plant x(t+1) = A x(t) + B u(t)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        b = as_matrix(self.b, "B")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B has {b.shape[0]} rows but A is {a.shape[0]}x{a.shape[1]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class TrainingData:
    """Record of N control experiments of length T.

    ``u`` stacks each experiment's inputs column-wise (u(0..T-1), length mT);
    ``x`` its states (x(1..T), length nT); ``x0s`` the initial states.
    """

    u: np.ndarray
    x: np.ndarray
    x0s: np.ndarray
    t: int
    n: int
    m: int
    seed: int | None = None

    def __post_init__(self):
        u = as_matrix(self.u, "U")
        x = as_matrix(self.x, "X")
        x0s = as_matrix(self.x0s, "x0s")
        if u.shape[0] != self.m * self.t:
            raise ValueError(f"U has {u.shape[0]} rows, expected m*T = {self.m * self.t}")
        if u.shape[1] != x.shape[1] or x0s.shape[1] != x.shape[1]:
            raise ValueError("U, X and x0s must have the same number of columns")
        if x0s.shape[0] != self.n:
            raise ValueError(f"x0s has {x0s.shape[0]} rows, expected n = {self.n}")
        if x.shape[0] != self.n * self.t:
            raise ValueError(f"X has {x.shape[0]} rows, expected n*T = {self.n * self.t}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x0s", x0s)

    @property
    def n_experiments(self) -> int:
        return self.x.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[0]

    @property
    def x_vec(self) -> np.ndarray:
        """vec(X), the perturbation coordinate system (length p*N)."""
        return self.x.flatten(order="F")

    def with_x_vec(self, v: np.ndarray) -> "TrainingData":
        return replace(self, x=np.reshape(v, (self.p, self.n_experiments), order="F"))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "t": self.t,
            "n_experiments": self.n_experiments,
            "selector": dict(_FULL_TRAJECTORY),
            "u": self.u.tolist(),
            "x": self.x.tolist(),
            "x0s": self.x0s.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc) -> "TrainingData":
        check_fields(doc, ("u", "x", "x0s", "t", "n", "m", "selector"), "training record")
        if doc["selector"] != _FULL_TRAJECTORY:
            raise ValueError(f"unsupported selector {doc['selector']!r}; "
                             "only full-trajectory records are supported")
        try:
            fields = {key: np.asarray(doc[key], dtype=float) for key in ("u", "x", "x0s")}
            fields |= {key: operator.index(doc[key]) for key in ("t", "n", "m")}
        except TypeError as exc:
            raise ValueError(f"training record has a malformed field: {exc}") from exc
        return cls(**fields, seed=doc.get("seed"))


def as_support(support, length: int | None = None) -> np.ndarray:
    """``support`` as an array, refused unless it holds distinct indices into
    vec(X) of length ``length`` (any index >= 0 when that is None), one per
    entry of a nonempty 1-D integer array. Every holder of a support calls it."""
    support = np.asarray(support)
    if support.size == 0:
        raise ValueError("perturbation support must be nonempty")
    if (support.ndim != 1 or support.dtype.kind not in "iu" or support.min() < 0
            or (length is not None and support.max() >= length)):
        of_length = "" if length is None else f" of length {length}"
        raise ValueError(f"support indices must index vec(X){of_length}, got {support.tolist()}")
    # Not np.unique: in numpy 2.4 its hash path maps about 1.4 MB on first use.
    ordered = np.sort(support)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError(f"support indices must be distinct, got {support.tolist()}")
    return support


def simulate(sys: LtiSystem, x0, u_seq) -> np.ndarray:
    """Roll out x(t+1) = A x(t) + B u(t) and return [x(1) ... x(T)] as n x T."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.n:
        raise ValueError(f"x0 has length {x0.size}, expected {sys.n}")
    u = np.asarray(u_seq, dtype=float)
    if u.ndim != 2 or u.shape[0] != sys.m:
        raise ValueError(f"input sequence has shape {u.shape}, expected {sys.m} x T")
    # Row t starts as B u(t), one matrix-vector product per step as in
    # B @ u[:, t], and becomes x(t+1) when A x(t) is added in place: the
    # same two products and the same sum as the step x = A x + B u(t).
    # ndarray.dot is np.dot's C product without numpy's Python dispatcher.
    states = np.matmul(sys.b, u.T[:, :, None])[:, :, 0]
    dot = sys.a.dot
    x = x0
    for row in states:
        row += dot(x)
        x = row
    return states.T


def gaussian_inputs(rng: np.random.Generator, m: int, t: int) -> np.ndarray:
    """Default input law: i.i.d. standard normal entries."""
    return rng.standard_normal((m, t))


def collect(
    sys: LtiSystem,
    n_experiments: int,
    t_steps: int,
    input_law: InputLaw = gaussian_inputs,
    seed: int | None = 0,
    x0: np.ndarray | None = None,
) -> TrainingData:
    """Run ``n_experiments`` experiments of length ``t_steps`` and record them.

    Inputs are drawn from ``input_law`` (standard normal by default) with a
    generator seeded by ``seed``, so the record is reproducible bit for bit.
    Initial states default to zero.
    """
    if n_experiments < 1 or t_steps < 1:
        raise ValueError("collect requires N >= 1 and T >= 1")
    rng = np.random.default_rng(seed)
    x0 = np.zeros(sys.n) if x0 is None else np.asarray(x0, dtype=float).ravel()

    u_cols = np.empty((sys.m * t_steps, n_experiments))
    x_cols = np.empty((sys.n * t_steps, n_experiments))
    x0_cols = np.empty((sys.n, n_experiments))
    for i in range(n_experiments):
        u = input_law(rng, sys.m, t_steps)
        states = simulate(sys, x0, u)
        u_cols[:, i] = u.flatten(order="F")
        x_cols[:, i] = states.flatten(order="F")
        x0_cols[:, i] = x0
    return TrainingData(
        u=u_cols,
        x=x_cols,
        x0s=x0_cols,
        t=t_steps,
        n=sys.n,
        m=sys.m,
        seed=seed,
    )


def snapshots(data: TrainingData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (X0, X1, U0) snapshots of the record, experiments side by side.

    Per experiment X0 = [x0, x(1..T-1)], X1 = [x(1..T)], U0 = [u(0..T-1)];
    experiment i fills columns i*T .. (i+1)*T - 1. On noiseless data these
    satisfy X1 = A X0 + B U0 exactly. X0 and X1 are n x T*E and laid out
    column by column, as vec(X) is, which is the layout LAPACK reads without
    a strided copy.
    """
    n, t, e = data.n, data.t, data.n_experiments
    # vec(X) runs experiment by experiment, time step by time step, state
    # by state: axes (experiment, time, state).
    states = data.x_vec.reshape((e, t, n))
    x0 = np.empty(states.shape)
    x0[:, 0] = data.x0s.T
    x0[:, 1:] = states[:, :-1]
    u0 = data.u.reshape((data.m, -1), order="F")
    return x0.reshape((e * t, n)).T, states.reshape((e * t, n)).T, u0


def vehicle_model(ts: float = 0.1) -> LtiSystem:
    """Planar vehicle: two decoupled position/velocity chains sampled at ts."""
    if ts <= 0:
        raise ValueError("sampling time must be positive")
    a = np.array(
        [
            [1.0, ts, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, ts],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array(
        [
            [0.0, 0.0],
            [ts, 0.0],
            [0.0, 0.0],
            [0.0, ts],
        ]
    )
    return LtiSystem(a=a, b=b)
