"""Data-driven controller maps K = F(U, X) behind one interface.

Two concrete maps are provided:

* ``pinv``   -- K = U0 pinv(X0), the minimum-norm data-consistency gain.
* ``ce-lqr`` -- least-squares identification of (A, B) followed by an
  infinite-horizon LQR design on the identified pair.

Both are deterministic and defined on a neighborhood of the nominal data,
which is what the sensitivity analysis needs from them. Every caller that
evaluates a map on many perturbed records (Monte Carlo, finite differences,
the Lemma-1 residual) goes through :func:`evaluate_perturbed`, which hands
the finite perturbations to :meth:`ControllerMap.evaluate_deltas`. Its base
body, the record path, builds each perturbed record and passes chunks of
them to :meth:`ControllerMap.evaluate_batch`; ``ce-lqr`` and plugin maps
use it. ``pinv`` overrides it with a Gram kernel: a perturbed entry of
vec(X) moves one column of X0, so each gain is a rank-few update of
G = X0 X0', at a cost that does not depend on T. An item whose perturbed
G fails the ``_GRAM_RCOND`` conditioning test takes the record path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .linalg import EigensolverError, as_matrix, pseudoinverse, spectral_radius
from .lti import LtiSystem, TrainingData, snapshot_batch


class DareError(RuntimeError):
    """The Riccati solve diverged, did not converge or failed its residual gate."""


# Numerical failures of a map on a perturbed record. A batched evaluation
# turns an item that raises one of these into a NaN item; any other
# exception is a bug or a refusal and propagates.
_TRIAL_FAILURES = (DareError, EigensolverError, np.linalg.LinAlgError)

# Floats per probe stack on the record path (256 kB): each evaluate_batch
# call gets as many whole records as fit, and at least one. A batched map's
# work arrays are a few times that. On the vehicle, 40 records of T = 200 fit,
# and 5 of T = 1600.
_BATCH_FLOATS = 2**15

# The pinv Gram kernel solves with a perturbed G = X0 X0' only when
# lambda_min(G) > _GRAM_RCOND * lambda_max(G), i.e. cond(X0) < 1e4. The solve
# amplifies rounding by cond(G) = cond(X0)^2, so this bounds the relative
# error of the kernel's correction to K by about 1e8 * eps = 2e-8, and it lies
# far above the SVD's rank cut near machine epsilon. Any other item, a
# rank-deficient record above all, takes the record path and keeps its pinv
# value exactly. Vehicle records of T = 20..1600 have a ratio of 4e-6 to 3e-2.
_GRAM_RCOND = 1e-8

# A converged doubling iterate P is accepted only when the largest entry of
# its Riccati residual is at most this fraction of the largest entry of P.
# Accurate solutions land near 1e-15.
_DARE_RESIDUAL_RTOL = 1e-8

# A doubling iterate stops when its relative step, max|H+ - H| over max|H+|,
# is at most this.
_DARE_STEP_RTOL = 1e-12

# Doubling steps before an unconverged Riccati solve fails.
_DARE_MAX_ITER = 100


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
class IdentifiedModel:
    a: np.ndarray
    b: np.ndarray
    rank_deficient: bool | np.ndarray


@dataclass(frozen=True)
class StabilityCheck:
    stable: bool
    rho: float


def identify(data: TrainingData, x_vecs=None) -> IdentifiedModel:
    """Least-squares fit [A B] = X1 pinv([X0; U0]).

    Exact on noiseless data when the regressor has full row rank; otherwise
    the minimum-norm solution is returned and flagged. With ``x_vecs``, fits
    each state record vec(X) in its rows by one stacked pseudoinverse, and
    a, b and rank_deficient are (N, n, n), (N, n, m) and (N,) stacks.
    """
    x0, x1, u0 = snapshot_batch(data, data.x_vec[None] if x_vecs is None else x_vecs)
    n = data.n
    # The regressors [X0; U0], laid out column by column like X0.
    w = np.empty((len(x0), x0.shape[2], n + data.m))
    w[..., :n] = _t(x0)
    w[..., n:] = u0.T
    w_pinv, rank = pseudoinverse(_t(w))
    ab = x1 @ w_pinv
    a, b, deficient = ab[..., :n], ab[..., n:], rank < n + data.m
    if x_vecs is None:
        return IdentifiedModel(a=a[0], b=b[0], rank_deficient=bool(deficient[0]))
    return IdentifiedModel(a=a, b=b, rank_deficient=deficient)


def _dare_error(max_iter: int) -> DareError:
    return DareError(f"Riccati doubling iteration diverged, did not converge in "
                     f"{max_iter} steps or failed its residual gate")


def dare_solve(a, b, q, r, max_iter: int = _DARE_MAX_ITER) -> np.ndarray:
    """Stabilizing solution P of the discrete algebraic Riccati equation

        P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA,

    for one pair (A, B) or for (N, n, n) and (N, n, m) stacks of pairs, by
    structure-preserving doubling (Chu, Fan, Lin et al., 2004-05). ``q``
    and ``r`` are one weight pair or one per item. Divergence, no
    convergence in ``max_iter`` doubling steps or a failed residual gate
    means the pair is not stabilizable as far as this design is concerned:
    one pair then raises :class:`DareError`, and a stack item is all NaN.
    """
    if np.ndim(a) == 3:
        return _doubling(a, b, q, r, max_iter)
    a, b = as_matrix(a, "A"), as_matrix(b, "B")
    [p] = _doubling(a[None], b[None], as_matrix(q, "Q"), as_matrix(r, "R"), max_iter)
    if np.isnan(p).any():
        raise _dare_error(max_iter)
    return p


def _doubling(a, b, q, r, max_iter: int) -> np.ndarray:
    """:func:`dare_solve` on stacks of pairs.

    From A0 = A, G0 = B R^-1 B', H0 = Q, each step solves W = I + G H
    against [A | G] once and sets

        A+ = A W^-1 A,  G+ = G + A W^-1 G A',  H+ = H + A' H W^-1 A.

    H converges quadratically to P when (A, B) is stabilizable. An item
    stops when its relative step passes ``_DARE_STEP_RTOL`` (entrywise), and
    its P is accepted only if the Riccati residual passes
    ``_DARE_RESIDUAL_RTOL``. Each item is iterated alone until it stops, so
    its result does not depend on the rest of the stack.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    count, n, m = len(a), a.shape[-1], b.shape[-1]
    q, r = np.asarray(q, dtype=float), np.asarray(r, dtype=float)
    if q.shape[-2:] != (n, n) or r.shape[-2:] != (m, m):
        raise ValueError(f"LQR weights Q {q.shape} and R {r.shape} do not fit n = {n}, m = {m}")
    q, r = np.broadcast_to(q, (count, n, n)), np.broadcast_to(r, (count, m, m))
    p = np.full((count, n, n), np.nan)
    eye = np.eye(n)
    active = np.arange(count)
    ak, gk, hk = a, _sym(b @ np.linalg.inv(r) @ _t(b)), q
    # Divergence shows as non-finite iterates and fails the item, so the
    # overflow that precedes it is not worth a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if not active.size:
                break
            w = eye + gk @ hk
            rhs = np.concatenate([ak, gk], axis=-1)
            try:
                x = np.linalg.solve(w, rhs)
            except np.linalg.LinAlgError:
                # W is nonsingular for PSD G and H; numpy fails the whole
                # stack for one singular item, so fail that item alone.
                singular = ~(np.abs(np.linalg.det(w)) > 0.0)
                w[singular] = eye
                x = np.linalg.solve(w, rhs)
                x[singular] = np.nan
            w_inv_a, w_inv_g = x[..., :n], x[..., n:]
            a_next = ak @ w_inv_a
            g_next = _sym(gk + ak @ w_inv_g @ _t(ak))
            h_next = _sym(hk + _t(ak) @ hk @ w_inv_a)
            finite = np.all(np.isfinite(a_next) & np.isfinite(g_next) & np.isfinite(h_next),
                            axis=(-2, -1))
            size = _max_abs(h_next)
            done = finite & (_max_abs(h_next - hk) <= _DARE_STEP_RTOL * size)
            if np.any(done):
                idx = active[done]
                resid = _riccati_residual(a[idx], b[idx], q[idx], r[idx], h_next[done])
                passed = resid <= _DARE_RESIDUAL_RTOL * size[done]
                p[idx[passed]] = h_next[done][passed]
            keep = finite & ~done
            active = active[keep]
            ak, gk, hk = a_next[keep], g_next[keep], h_next[keep]
    return p


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return np.swapaxes(m, -1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _t(m))


def _max_abs(m: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix in a stack; unlike a Frobenius
    norm it cannot overflow on finite entries."""
    return np.max(np.abs(m), axis=(-2, -1))


def _riccati_residual(a, b, q, r, p) -> np.ndarray:
    """Largest entry of |Q + A'PA - A'PB (R + B'PB)^-1 B'PA - P| per item."""
    pa = p @ a
    gain_term = np.linalg.inv(r + _t(b) @ p @ b) @ (_t(b) @ pa)
    resid = q + _t(a) @ pa - _t(a) @ p @ b @ gain_term - p
    return _max_abs(resid)


def lqr_gain(a, b, q, r) -> np.ndarray:
    """Stationary LQR gain K = -(R + B'PB)^-1 B'PA, sign convention u = K x
    (closed loop A + BK), for one pair or stacks of pairs as in
    :func:`dare_solve`. A stack item whose Riccati solve fails is all NaN.
    """
    p = dare_solve(a, b, q, r)
    # A failed stack item has P NaN: solve it with P = 0, then put NaN back.
    failed = np.isnan(p[..., :1, :1])
    p, b = np.where(failed, 0.0, p), np.asarray(b, dtype=float)
    k = -np.linalg.solve(r + _t(b) @ p @ b, _t(b) @ p @ a)
    return np.where(failed, np.nan, k)


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

    def evaluate_batch(self, data: TrainingData, x_vecs) -> np.ndarray:
        """Gains for the state records vec(X) in the rows of ``x_vecs``.

        Item i is the gain for ``data`` with vec(X) replaced by row i; the
        caller may overwrite ``x_vecs`` once the call returns. A non-finite
        record is malformed input and raises ValueError.
        Returns the (N, m, n) gains. An item on which the map fails
        numerically (one of ``_TRIAL_FAILURES`` raised or a non-finite gain
        returned) has non-finite entries, and its neighbours are unaffected.
        Any other exception propagates. This fallback calls :meth:`evaluate`
        on each record; it serves plugin maps, as both shipped maps override
        it with vectorised kernels.
        """
        k = np.full((len(x_vecs), data.m, data.n), np.nan)
        for i, x_vec in enumerate(x_vecs):
            try:
                k[i] = self.evaluate(data.with_x_vec(x_vec))
            except _TRIAL_FAILURES:
                pass
        return k

    def evaluate_deltas(self, data: TrainingData, support, deltas) -> np.ndarray:
        """Gains at vec(X) + delta, one per row of ``deltas``.

        Row i of the N x |support| array ``deltas`` is added to the entries
        ``support`` of vec(X); every such record is finite, as
        :func:`evaluate_perturbed` sees to. Returns the (N, m, n) gains, with
        failed items as in :meth:`evaluate_batch`. This record path builds the
        records in one probe buffer and hands them to :meth:`evaluate_batch`
        in chunks of at most ``_BATCH_FLOATS`` floats, which bounds memory; no
        item's result depends on its chunk. A map that can update a nominal
        factorisation instead overrides it.
        """
        x_vec = data.x_vec
        k = np.empty((len(deltas), data.m, data.n))
        items = max(1, _BATCH_FLOATS // x_vec.size)
        # One probe buffer for every chunk: evaluate_batch does not keep x_vecs.
        probes = np.empty((min(items, len(deltas)), x_vec.size))
        for start in range(0, len(deltas), items):
            chunk = slice(start, start + items)
            x_vecs = probes[: len(deltas[chunk])]
            x_vecs[:] = x_vec
            x_vecs[:, support] += deltas[chunk]
            k[chunk] = self.evaluate_batch(data, x_vecs)
        return k

    def rank_deficient(self, data: TrainingData) -> bool:
        """Is this record too poor in excitation for the map's least-squares
        step? Only ``design`` reads it; a map without such a step says False."""
        return False

    def descriptor(self) -> dict:
        return {"name": self.name, "hyperparameters": {}}


def evaluate_perturbed(cmap: ControllerMap, data: TrainingData, support,
                       deltas) -> np.ndarray:
    """Gains of the map at vec(X) + delta, one per row of ``deltas``.

    Row i of the N x |support| array ``deltas`` is added to the entries
    ``support`` of vec(X). The rows that give a finite record go to
    ``cmap.evaluate_deltas`` in one call. Returns the (N, m, n) gains. A
    failed item has non-finite entries, as in
    :meth:`ControllerMap.evaluate_batch`; a non-finite record is a failed
    item that the map never sees.
    """
    deltas = np.asarray(deltas, dtype=float)
    k = np.full((len(deltas), data.m, data.n), np.nan)
    rows = np.all(np.isfinite(data.x_vec[support] + deltas), axis=1)
    if rows.any():
        k[rows] = cmap.evaluate_deltas(data, support, deltas[rows])
    return k


class PinvMap(ControllerMap):
    """K = U0 pinv(X0); with full-row-rank X0 the closed loop is X1 pinv(X0)."""

    name = "pinv"

    def evaluate(self, data: TrainingData) -> np.ndarray:
        return self.evaluate_batch(data, data.x_vec[None])[0]

    def evaluate_batch(self, data: TrainingData, x_vecs) -> np.ndarray:
        """K = U0 pinv(X0) per state record in the rows of ``x_vecs``, by one stacked SVD."""
        x0, _, u0 = snapshot_batch(data, x_vecs)
        return u0 @ pseudoinverse(x0)[0]

    def evaluate_deltas(self, data: TrainingData, support, deltas) -> np.ndarray:
        """K' = U0 pinv(X0') per row of ``deltas`` by a low-rank update of the Gram
        matrix G = X0 X0', with no perturbed record and no SVD per item.

        Entry i of vec(X) is state i % n of x(s + 1), s = i // n % T, of
        experiment e = i // (nT): column eT + s + 1 = i // n + 1 of X0, unless
        s + 1 = T, as the final state is in no column of X0. With D the
        perturbation on the q columns the support touches and X_q, U_q the
        nominal X0, U0 there, G' = G + dG with dG = D X_q' + X_q D' + D D', and

            K' = U0 X0'' G'^-1 = K + (U_q D' - K dG) G'^-1

        from the nominal K of the SVD, as K G = U0 X0' holds exactly for the
        pseudoinverse at any rank. This residual form adds to K a correction
        of the size of D, so the rounding of K and G is not divided by h in a
        finite-difference column, as it is when U0 X0'' G'^-1 is formed
        directly; a zero delta gives K exactly. An item whose G' fails the
        ``_GRAM_RCOND`` test takes the record path.
        """
        n, t = data.n, data.t
        support = np.asarray(support, dtype=int)
        [x0], _, u0 = snapshot_batch(data, data.x_vec[None])
        k = u0 @ pseudoinverse(x0)[0]
        gram = x0 @ x0.T
        col = support // n + 1
        inner = col % t != 0
        cols, pos = np.unique(col[inner], return_inverse=True)
        d = np.zeros((len(deltas), n, cols.size))
        d[:, support[inner] % n, pos] = deltas[:, inner]
        d_gram = d @ x0[:, cols].T
        d_gram = d_gram + _t(d_gram) + d @ _t(d)
        gram_new = gram + d_gram
        ok = np.all(np.isfinite(gram_new), axis=(1, 2))
        lam = np.linalg.eigvalsh(gram_new[ok])
        ok[ok] = lam[:, 0] > _GRAM_RCOND * lam[:, -1]
        gains = np.empty((len(deltas), data.m, n))
        correction = u0[:, cols] @ _t(d[ok]) - k @ d_gram[ok]
        gains[ok] = k + _t(np.linalg.solve(gram_new[ok], _t(correction)))
        if not ok.all():
            gains[~ok] = super().evaluate_deltas(data, support, deltas[~ok])
        return gains

    def rank_deficient(self, data: TrainingData) -> bool:
        """Does X0 have rank below n?"""
        x0, _, _ = snapshot_batch(data, data.x_vec[None])
        return bool(pseudoinverse(x0)[1][0] < data.n)


class CeLqrMap(ControllerMap):
    name = "ce-lqr"

    def __init__(self, weights: LqrWeights | None = None):
        self.weights = weights

    def evaluate(self, data: TrainingData) -> np.ndarray:
        """The gain on one record; a failed Riccati solve raises :class:`DareError`."""
        [k] = self.evaluate_batch(data, data.x_vec[None])
        if np.isnan(k).any():
            raise _dare_error(_DARE_MAX_ITER)
        return k

    def evaluate_batch(self, data: TrainingData, x_vecs) -> np.ndarray:
        """Certainty-equivalence design: identify each pair, then LQR on it (identity
        weights by default), by one stacked pseudoinverse of the regressors, one
        doubling Riccati solve and one stacked gain solve. A failed solve is all NaN."""
        weights = self.weights or LqrWeights.identity(data.n, data.m)
        model = identify(data, x_vecs)
        # No identified control authority: the gain formula is zero for any cost,
        # so take that limit instead of a Riccati solve with nothing.
        ctrl = np.any(model.b, axis=(1, 2))
        k = np.zeros((len(ctrl), data.m, data.n))
        k[ctrl] = lqr_gain(model.a[ctrl], model.b[ctrl], weights.q, weights.r)
        return k

    def rank_deficient(self, data: TrainingData) -> bool:
        """Does the regressor [X0; U0] have rank below n + m?"""
        return identify(data).rank_deficient

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
