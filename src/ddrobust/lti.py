"""Plant definition, trajectory simulation and training-data collection.

A training record holds the stacked input sequences ``U`` (mT x N), the
stacked state trajectories ``X`` (nT x N) and the initial states of each
experiment. ``X`` stores the states x(1..T); x(0) is kept separately in
``x0s`` so that X has exactly p = n*T rows. A record's arrays are read-only,
so that what ``ctrlmaps`` fits on a record once stays the fit of that record.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .linalg import as_matrix

InputLaw = Callable[[np.random.Generator, int, int], np.ndarray]

# The only sample selection the controller maps accept. data.json records
# it, and from_json rejects any other.
_FULL_TRAJECTORY = {"kind": "full_trajectory"}


def check_fields(doc, keys, what: str, counts=()) -> list[int]:
    """Reject a loaded artifact that is not a JSON object holding ``keys``.
    Return its fields ``counts`` as ints, refused unless they are integers
    (a boolean is none)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks key(s): {', '.join(missing)}")
    return [_count(doc[key], what, key) for key in counts]


def _count(value, what: str, key: str) -> int:
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{what} has a malformed field: {key!r} must be an integer, got {value!r}")


def array_field(doc, key: str, what: str) -> np.ndarray:
    """The field ``key`` of a loaded artifact as a float array, refused as a
    malformed field when it is not a (rectangular) array of numbers."""
    try:
        return np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} has a malformed field: {key!r} must be an array of "
                         f"numbers: {exc}") from exc


def _frozen(a, name: str) -> np.ndarray:
    """A read-only copy of ``a`` in its own memory layout, checked as
    ``as_matrix`` checks it, so that no array given to a record can change it."""
    m = as_matrix(a, name).copy(order="K")
    m.flags.writeable = False
    return m


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

    The three arrays are read-only copies of the arrays given, each in the
    memory layout of its source: the Gram kernel of ``ctrlmaps`` keeps the
    record's nominal fit in the private slot ``_fits`` and reuses it on every
    later call, which is right only while the record cannot change, and a
    record shares memory with nothing it was given. ``replace`` and
    ``with_x_vec`` make a new record, whose slot starts empty, so a fit never
    outlives its record.
    """

    u: np.ndarray
    x: np.ndarray
    x0s: np.ndarray
    t: int
    n: int
    m: int
    seed: int | None = None
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        u = _frozen(self.u, "U")
        x = _frozen(self.x, "X")
        x0s = _frozen(self.x0s, "x0s")
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
        what = "training record"
        t, n, m, n_experiments = check_fields(
            doc, ("u", "x", "x0s", "t", "n", "m", "n_experiments", "selector"), what,
            counts=("t", "n", "m", "n_experiments"))
        if doc["selector"] != _FULL_TRAJECTORY:
            raise ValueError(f"unsupported selector {doc['selector']!r}; "
                             "only full-trajectory records are supported")
        seed = doc.get("seed")
        if seed is not None:
            seed = _count(seed, what, "seed")
            if seed < 0:
                raise ValueError(f"{what} has a malformed field: 'seed' must be null or an "
                                 f"integer >= 0, got {seed}")
        arrays = {key: array_field(doc, key, what) for key in ("u", "x", "x0s")}
        data = cls(**arrays, t=t, n=n, m=m, seed=seed)
        if data.n_experiments != n_experiments:
            raise ValueError(f"{what} has a malformed field: 'n_experiments' is {n_experiments}, "
                             f"but the arrays hold {data.n_experiments} experiments")
        return data


def as_support(support, length: int | None = None) -> np.ndarray:
    """``support`` as an array, refused unless it holds distinct indices into
    vec(X) of length ``length`` (any index >= 0 when that is None), one per
    entry of a nonempty 1-D integer array. Every holder of a support calls it."""
    try:
        support = np.asarray(support)
    except ValueError:  # ragged: its items, which the index rule refuses
        support = np.fromiter(support, dtype=object)
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


def _roll_out(sys: LtiSystem, x0s: np.ndarray, states: np.ndarray,
              lengths: list[int]) -> None:
    """Roll out x(t+1) = A x(t) + B u(t) for a stack of records, in place.

    Record r has ``lengths[r]`` steps, and ``lengths`` does not increase, so
    the records active at step t are a prefix of the stack. ``x0s`` is
    (records, n, 1). ``states`` is time-major, (T_max, records, n, 1): for
    t < lengths[r], states[t, r] holds B u_r(t) on entry and x_r(t+1) on
    return. The padding is neither read nor written.

    Row t becomes x(t+1) when A x(t) is added in place: the same two
    products and the same sum as the step x = A x + B u(t). np.matmul over
    a stack makes one BLAS gemv per record, the call that ndarray.dot makes
    for one, so every state is the step recursion's bit for bit. A step of
    one record keeps ndarray.dot, np.dot's C product without numpy's Python
    dispatcher, which is about 1 us a step cheaper than a one-item matmul.
    A record that diverges comes back inf or nan without a warning;
    TrainingData refuses it.
    """
    a, matmul = sys.a, np.matmul
    prev, start = x0s, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(lengths), 0, -1):
            stop = lengths[k - 1]
            if stop == start:
                continue
            rows = states[start:stop, :k]
            if k == 1:
                dot, x = a.dot, prev[0, :, 0]
                for row in rows[:, 0, :, 0]:
                    row += dot(x)
                    x = row
            else:
                prev = prev[:k]
                for row in rows:
                    row += matmul(a, prev)
                    prev = row
            start = stop


def gaussian_inputs(rng: np.random.Generator, m: int, t: int) -> np.ndarray:
    """Default input law: i.i.d. standard normal entries."""
    return rng.standard_normal((m, t))


# collect_records rolls out its runs in groups of consecutive runs, each
# group's padded state buffer and inputs holding at most this many floats
# (1 MB; a longer run rolls out alone), so memory does not grow with the
# number of runs.
_ROLLOUT_FLOATS = 2**17


def collect_records(
    sys: LtiSystem,
    n_experiments: int,
    runs: Iterable[tuple[int, int | None]],
    input_law: InputLaw = gaussian_inputs,
    x0: np.ndarray | None = None,
) -> Iterator[TrainingData]:
    """One record of ``n_experiments`` experiments per ``(t_steps, seed)`` run.

    Yields the TrainingData of each run of ``runs`` in their order, each
    exactly the record ``collect`` makes of its length and seed: the inputs
    of experiment after experiment are drawn from ``input_law`` with a
    generator seeded by the run's seed, and every experiment starts at
    ``x0`` (zero by default). The experiments of consecutive runs roll out
    together, as far as ``_ROLLOUT_FLOATS`` allows.
    """
    runs = list(runs)
    if n_experiments < 1 or any(t_steps < 1 for t_steps, _ in runs):
        raise ValueError("collect requires N >= 1 and T >= 1")
    x0 = np.zeros(sys.n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.n:
        raise ValueError(f"x0 has length {x0.size}, expected {sys.n}")
    record_floats = n_experiments * (sys.n + sys.m)
    group, longest = [], 0
    for run in runs:
        if group and max(longest, run[0]) * (len(group) + 1) * record_floats > _ROLLOUT_FLOATS:
            yield from _collect_group(sys, n_experiments, group, input_law, x0)
            group, longest = [], 0
        group.append(run)
        longest = max(longest, run[0])
    if group:
        yield from _collect_group(sys, n_experiments, group, input_law, x0)


def _collect_group(sys, n_experiments, runs, input_law, x0) -> list[TrainingData]:
    """The records of ``runs``, in their order, from one stacked rollout.
    Each run's input buffer is dropped once its record holds a copy."""
    # Longest run first, each run's experiments side by side in the stack.
    order = sorted(range(len(runs)), key=lambda i: -runs[i][0])
    first = {i: pos * n_experiments for pos, i in enumerate(order)}
    lengths = [runs[i][0] for i in order for _ in range(n_experiments)]
    states = np.empty((lengths[0], len(lengths), sys.n, 1))
    u_cols = []
    for i, (t_steps, seed) in enumerate(runs):
        rng = np.random.default_rng(seed)
        u_cols.append(np.empty((sys.m * t_steps, n_experiments)))
        for e in range(n_experiments):
            u = np.asarray(input_law(rng, sys.m, t_steps), dtype=float)
            if u.shape != (sys.m, t_steps):
                raise ValueError(f"input sequence has shape {u.shape}, expected {sys.m} x T")
            np.matmul(sys.b, u.T[:, :, None], out=states[:t_steps, first[i] + e])
            u_cols[i][:, e] = u.flatten(order="F")
    _roll_out(sys, np.broadcast_to(x0[:, None], (len(lengths), sys.n, 1)), states, lengths)
    records = []
    for i, (t_steps, seed) in enumerate(runs):
        # The run's states, (time, experiment, state), as one column per
        # experiment with time-major rows.
        x = states[:t_steps, first[i]:first[i] + n_experiments, :, 0].swapaxes(1, 2)
        records.append(TrainingData(u=u_cols[i], x=x.reshape(t_steps * sys.n, n_experiments),
                                    x0s=np.repeat(x0[:, None], n_experiments, axis=1),
                                    t=t_steps, n=sys.n, m=sys.m, seed=seed))
        u_cols[i] = None
    return records


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
    Initial states default to zero. The one-run call of ``collect_records``.
    """
    [data] = collect_records(sys, n_experiments, [(t_steps, seed)], input_law, x0)
    return data


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
