"""Data-driven controller maps K = F(U, X) behind one interface.

Two concrete maps are provided:

* ``pinv``   -- K = U0 pinv(X0), the minimum-norm data-consistency gain.
* ``ce-lqr`` -- least-squares identification of (A, B) followed by an
  infinite-horizon LQR design on the identified pair.

Both are deterministic and defined on a neighborhood of the nominal data,
which is what the sensitivity analysis needs from them. Every caller that
evaluates a map on many perturbed records (Monte Carlo, finite differences,
the Lemma-1 residual) calls :meth:`ControllerMap.evaluate_deltas`, which
checks the support and hands the finite perturbations to the hook
:meth:`ControllerMap._evaluate_finite`. Its base body, the record path,
builds each perturbed record and calls :meth:`ControllerMap.evaluate` on it;
plugin maps use it. Both shipped maps are least-squares fits theta = Y pinv(W)
that see the record only through G = W W' and Y W' (``pinv``: W = X0,
Y = U0; ``ce-lqr``: W = [X0; U0], Y = X1), so they override it with one Gram
kernel: a perturbed entry of vec(X) moves one column of X0 and one of X1,
and each fit is a rank-few update of G. The nominal fit (one SVD) and the
support's columns are kept on the record, so only the first call on a
record and support does work that grows with T. Chunks of items run the
whole kernel in turn, so its memory does not grow with the item count. An
item whose perturbed G fails the ``_GRAM_RCOND`` test takes the record path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import EigensolverError, as_matrix, pseudoinverse, spectral_radius
from .lti import LtiSystem, TrainingData, as_support, snapshots


class DareError(RuntimeError):
    """The Riccati solve diverged, did not converge or failed its residual gate."""


# Numerical failures of a map on a perturbed record. The record path turns
# an item that raises one of these into a NaN item; any other exception is
# a bug or a refusal and propagates.
_TRIAL_FAILURES = (DareError, EigensolverError, np.linalg.LinAlgError)

# The Gram kernel solves with a perturbed G = W W' only when
# lambda_min(G) > _GRAM_RCOND * lambda_max(G), i.e. cond(W) < 1e4; eigvalsh
# sees only the items Weyl's screen cannot clear. The solve amplifies rounding
# by cond(G) = cond(W)^2, so this bounds the relative error of the kernel's
# correction to the fit by about 1e8 * eps = 2e-8, and it lies far above the
# SVD's rank cut near machine epsilon. Any other item, a rank-deficient record
# above all, takes the record path and keeps its pseudoinverse value exactly.
# Vehicle records of T = 20..1600 have a ratio of 4e-6 to 3e-2 for W = X0.
_GRAM_RCOND = 1e-8

# The Gram kernel runs chunk by chunk, from D_w and D_y to the gains; a
# chunk's D_w, D_y, G' and fits hold at most this many floats (8 MB); the
# doubling iterates of ce-lqr's gains are not counted. Smaller chunks make
# short doubling stacks, whose fixed cost slows the acceptance fig1.
_GRAM_CHUNK_FLOATS = 2**20

# A converged doubling iterate P is accepted only when the largest entry of
# its Riccati residual is at most this fraction of the largest entry of the
# terms Q, A'PA and P it is a difference of. Accurate solutions land near
# 1e-15. On a badly scaled identified pair A'PA can exceed P by orders of
# magnitude, and the residual's rounding scales with it.
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
    rank_deficient: bool


@dataclass(frozen=True)
class StabilityCheck:
    stable: bool
    rho: float


def identify(data: TrainingData) -> IdentifiedModel:
    """Least-squares fit [A B] = X1 pinv([X0; U0]).

    Exact on noiseless data when the regressor has full row rank; otherwise
    the minimum-norm solution is returned and flagged.
    """
    x0, x1, u0 = snapshots(data)
    w_pinv, rank = pseudoinverse(np.vstack([x0, u0]))
    ab = x1 @ w_pinv
    n = data.n
    return IdentifiedModel(a=ab[:, :n], b=ab[:, n:], rank_deficient=rank < n + data.m)


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
    ``_DARE_RESIDUAL_RTOL`` relative to the terms of the equation. Each item
    is iterated alone until it stops, so its result does not depend on the
    rest of the stack.
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
            finite = (np.isfinite(a_next) & np.isfinite(g_next) & np.isfinite(h_next)).all(
                axis=(-2, -1))
            size = _max_abs(h_next)
            done = finite & (_max_abs(h_next - hk) <= _DARE_STEP_RTOL * size)
            if done.any():
                idx = active[done]
                resid, scale = _riccati_residual(a[idx], b[idx], q[idx], r[idx], h_next[done])
                passed = resid <= _DARE_RESIDUAL_RTOL * scale
                p[idx[passed]] = h_next[done][passed]
            keep = finite & ~done
            if keep.all():
                # Every item runs on: the stack needs no compaction.
                ak, gk, hk = a_next, g_next, h_next
            else:
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
    return np.abs(m).max(axis=(-2, -1))


def _riccati_residual(a, b, q, r, p) -> tuple[np.ndarray, np.ndarray]:
    """Largest entry of |Q + A'PA - A'PB (R + B'PB)^-1 B'PA - P| per item,
    and the largest entry of the terms Q, A'PA and P, the scale of its
    rounding."""
    pa = p @ a
    apa = _t(a) @ pa
    gain_term = np.linalg.inv(r + _t(b) @ p @ b) @ (_t(b) @ pa)
    resid = q + apa - _t(a) @ p @ b @ gain_term - p
    scale = np.maximum(np.maximum(_max_abs(q), _max_abs(apa)), _max_abs(p))
    return _max_abs(resid), scale


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

    def evaluate_deltas(self, data: TrainingData, support, deltas) -> np.ndarray:
        """Gains of the map at vec(X) + delta, one per row of ``deltas``.

        Row i of the N x |support| array ``deltas`` is added to the entries
        ``support`` of vec(X), which ``as_support`` checks. Returns the
        (N, m, n) gains. An item is all NaN where its record is not finite,
        which the map never sees, or where the map fails numerically on it
        (one of ``_TRIAL_FAILURES`` raised or a non-finite gain returned); any
        other exception propagates. The finite rows go to
        :meth:`_evaluate_finite` at once.
        """
        support = as_support(support, data.x.size)
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim != 2 or deltas.shape[1] != support.size:
            raise ValueError(f"deltas must have shape (N, {support.size}) for a support of "
                             f"{support.size} indices, got {deltas.shape}")
        k = np.full((len(deltas), data.m, data.n), np.nan)
        # Entry i of vec(X) is X[i % p, i // p]; no copy of vec(X) is made.
        nominal = data.x[support % data.p, support // data.p]
        rows = np.all(np.isfinite(nominal + deltas), axis=1)
        if rows.any():
            k[rows] = self._evaluate_finite(data, support, deltas[rows])
        return k

    def _evaluate_finite(self, data: TrainingData, support, deltas) -> np.ndarray:
        """:meth:`evaluate_deltas` on finite records. This record path calls
        :meth:`evaluate` on each; a map that can update a nominal fit overrides it."""
        k = np.full((len(deltas), data.m, data.n), np.nan)
        for i, delta in enumerate(deltas):
            x_vec = data.x_vec
            x_vec[support] += delta
            x_vec.flags.writeable = False  # so the perturbed record keeps it uncopied
            try:
                k[i] = self.evaluate(data.with_x_vec(x_vec))
            except _TRIAL_FAILURES:
                pass
        k[~np.all(np.isfinite(k), axis=(1, 2))] = np.nan
        return k

    def rank_deficient(self, data: TrainingData) -> bool:
        """Is this record too poor in excitation for the map's least-squares
        step? Only ``design`` reads it; a map without such a step says False."""
        return False

    def descriptor(self) -> dict:
        return {"name": self.name, "hyperparameters": {}}


class _GramFit(NamedTuple):
    """What the Gram kernel keeps of one regressor in a record's slot: the
    nominal fit theta = Y pinv(W), G = W W' and its extreme eigenvalues (0
    when G is not finite), and the rows of Y that hold X1; then, for the last
    support (``key``), each entry's state, whether it moves W (``inner``) and
    Y (``in_y``), its positions among the q columns the support touches, and
    the nominal W and Y on those columns."""

    theta: np.ndarray
    gram: np.ndarray
    lmin: float
    lmax: float
    x1_rows: np.ndarray
    key: bytes
    state: np.ndarray
    inner: np.ndarray
    in_y: np.ndarray
    w_pos: np.ndarray
    y_pos: np.ndarray
    w_q: np.ndarray
    y_q: np.ndarray


def _pinv_regressor(x0, x1, u0):
    """W = X0 and Y = U0, of which no row moves."""
    return x0, u0, np.arange(0)


def _ce_lqr_regressor(x0, x1, u0):
    """W = [X0; U0] and Y = X1, all of whose rows move."""
    return np.vstack([x0, u0]), x1, np.arange(len(x1))


def _gram_fit(data: TrainingData, regressor, support) -> _GramFit:
    """The :class:`_GramFit` of ``regressor`` on the record and ``support``,
    read from the record's slot. Only the first call on a record makes the
    SVD, and only a support other than the last one builds its columns;
    either reads the snapshots, the one step that grows with T. The slot
    holds (n+m)^2 + (n+m) q floats per regressor and no T-long array."""
    fit, key = data._fits.get(regressor), support.astype(np.intp).tobytes()
    if fit is not None and fit.key == key:
        return fit
    w, y, x1_rows = regressor(*snapshots(data))
    if fit is None:
        # A G that overflowed fails every item's finiteness test, and eigvalsh
        # may not converge on it.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = w @ w.T
        lmin, lmax = np.linalg.eigvalsh(gram)[[0, -1]] if np.isfinite(gram).all() else (0, 0)
        nominal = (y @ pseudoinverse(w)[0], gram, lmin, lmax, x1_rows)
    else:
        nominal = fit[:5]
    n, t = data.n, data.t
    state, col = support % n, support // n
    inner = (col + 1) % t != 0
    # Every entry moves Y too when Y holds X1.
    in_y = np.full(support.size, x1_rows.size > 0)
    cols, pos = np.unique(np.concatenate([col[inner] + 1, col[in_y]]), return_inverse=True)
    w_pos, y_pos = np.split(pos, [inner.sum()])
    fit = data._fits[regressor] = _GramFit(*nominal, key, state, inner, in_y, w_pos, y_pos,
                                           w[:, cols], y[:, cols])
    return fit


def _gram_gains(cmap: ControllerMap, data: TrainingData, regressor, support, deltas,
                gains_of) -> np.ndarray:
    """:meth:`ControllerMap._evaluate_finite` for a map whose gains are
    ``gains_of`` of the least-squares fits theta = Y pinv(W), by a low-rank
    update of the Gram matrix G = W W', with no perturbed record and no SVD
    per item.

    ``regressor`` builds (W, Y, x1_rows) from the snapshots (X0, X1, U0): W
    holds X0 in its first n rows, and Y holds X1 in the rows ``x1_rows``
    (none if no row of Y moves). Entry i of vec(X) is state i % n of X1
    column c = i // n and of X0 column c + 1, unless c + 1 starts an
    experiment, as x(T) is in no column of X0. With D_w and D_y the
    perturbation of W and Y on the q columns the support touches, W_q and
    Y_q the nominal W and Y there, G' = G + dG with
    dG = D_w W_q' + W_q D_w' + D_w D_w', and

        theta' = Y' W'' G'^-1 = theta + (Y_q D_w' + D_y (W_q + D_w)' - theta dG) G'^-1

    from the nominal theta of one SVD, as theta G = Y W' holds exactly for
    the pseudoinverse at any rank. This residual form adds to theta a
    correction of the size of D, so the rounding of theta and G is not
    divided by h in a finite-difference column, as it is when Y' W'' G'^-1
    is formed directly; a zero delta gives theta exactly. theta, G, its
    extreme eigenvalues and the support's columns come from
    :func:`_gram_fit`, once per record and support, so a later call does no
    work that grows with T. An item whose G' fails the ``_GRAM_RCOND`` test
    takes the record path; by Weyl, one with
    lambda_min(G) - ||dG||_F > 2 _GRAM_RCOND (lambda_max(G) + ||dG||_F) passes
    it with a margin far above rounding and needs no eigvalsh. Chunks of items
    of at most ``_GRAM_CHUNK_FLOATS`` floats run the whole kernel in turn.
    """
    fit = _gram_fit(data, regressor, support)
    theta, x1_rows, w_q = fit.theta, fit.x1_rows, fit.w_q
    count, (y_rows, w_rows), q = len(deltas), theta.shape, w_q.shape[1]
    gains = np.empty((count, data.m, data.n))
    # The items are independent, so chunking them changes no float. An item
    # holds D_w and D_y, G' and the correction or fit.
    item_floats = (w_rows + x1_rows.size) * q + w_rows * (w_rows + y_rows)
    step = max(1, _GRAM_CHUNK_FLOATS // item_floats)
    for start in range(0, count, step):
        part, out = deltas[start:start + step], gains[start:start + step]
        d_w = np.zeros((len(part), w_rows, q))
        d_w[:, fit.state[fit.inner], fit.w_pos] = part[:, fit.inner]
        d_y = np.zeros((len(part), x1_rows.size, q))
        d_y[:, fit.state[fit.in_y], fit.y_pos] = part[:, fit.in_y]
        # An item that overflows here fails the finiteness test below and
        # takes the record path, so its overflow is not worth a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            d_gram = d_w @ _t(w_q)
            d_gram = d_gram + _t(d_gram) + d_w @ _t(d_w)
            gram_new = fit.gram + d_gram
            correction = fit.y_q @ _t(d_w) - theta @ d_gram
            correction[:, x1_rows] += d_y @ _t(np.add(d_w, w_q, out=d_w))  # d_w now holds W'_q
            d_norm = np.linalg.norm(d_gram, axis=(1, 2))
        del d_w, d_y, d_gram  # so that they and the arrays of gains_of never coexist
        good = np.all(np.isfinite(gram_new), axis=(1, 2))
        check = good & ~(fit.lmin - d_norm > 2 * _GRAM_RCOND * (fit.lmax + d_norm))
        if check.any():
            lam = np.linalg.eigvalsh(gram_new[check])
            good[check] = lam[:, 0] > _GRAM_RCOND * lam[:, -1]
        out[good] = gains_of(theta + _t(np.linalg.solve(gram_new[good], _t(correction[good]))))
        if not good.all():
            out[~good] = ControllerMap._evaluate_finite(cmap, data, support, part[~good])
    return gains


class PinvMap(ControllerMap):
    """K = U0 pinv(X0); with full-row-rank X0 the closed loop is X1 pinv(X0)."""

    name = "pinv"

    def evaluate(self, data: TrainingData) -> np.ndarray:
        x0, _, u0 = snapshots(data)
        return u0 @ pseudoinverse(x0)[0]

    def _evaluate_finite(self, data: TrainingData, support, deltas) -> np.ndarray:
        """K' = U0 pinv(X0') per row of ``deltas``: the Gram kernel with
        W = X0 and Y = U0, of which no row moves."""
        return _gram_gains(self, data, _pinv_regressor, support, deltas, lambda k: k)

    def rank_deficient(self, data: TrainingData) -> bool:
        """Does X0 have rank below n?"""
        return pseudoinverse(snapshots(data)[0])[1] < data.n


class CeLqrMap(ControllerMap):
    name = "ce-lqr"

    def __init__(self, weights: LqrWeights | None = None):
        self.weights = weights

    def evaluate(self, data: TrainingData) -> np.ndarray:
        """Certainty-equivalence design: identify the pair, then LQR on it
        (identity weights by default). A failed Riccati solve raises
        :class:`DareError`."""
        model = identify(data)
        [k] = self._gains(data, model.a[None], model.b[None])
        if np.isnan(k).any():
            raise _dare_error(_DARE_MAX_ITER)
        return k

    def _evaluate_finite(self, data: TrainingData, support, deltas) -> np.ndarray:
        """The design per row of ``deltas``: the Gram kernel with W = [X0; U0]
        and Y = X1 gives each identified pair [A B], then one doubling Riccati
        solve and one stacked gain solve. A failed solve is all NaN."""
        n = data.n
        return _gram_gains(self, data, _ce_lqr_regressor, support, deltas,
                           lambda ab: self._gains(data, ab[..., :n], ab[..., n:]))

    def _gains(self, data: TrainingData, a, b) -> np.ndarray:
        """LQR gains of (N, n, n) and (N, n, m) stacks of identified pairs."""
        q, r = (self.weights.q, self.weights.r) if self.weights else (np.eye(data.n), np.eye(data.m))
        # No identified control authority: the gain formula is zero for any cost,
        # so take that limit instead of a Riccati solve with nothing.
        ctrl = np.any(b, axis=(1, 2))
        k = np.zeros((len(ctrl), data.m, data.n))
        k[ctrl] = lqr_gain(a[ctrl], b[ctrl], q, r)
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
