import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import left_to_right_acl
from ddrobust import (
    CeLqrMap,
    DareError,
    JacobianBundle,
    LtiSystem,
    PerturbationModel,
    PinvMap,
    check_a1,
    collect,
    fd_jacobian,
    first_order_acl,
    lemma1_residual,
    vehicle_model,
)
from ddrobust import ctrlmaps, sensitivity
from ddrobust.cli import _read_json, _write_json
from ddrobust.ctrlmaps import ControllerMap
from ddrobust.sensitivity import B_SOURCE_IDENTIFIED, B_SOURCE_TRUE
from ddrobust.mc import estimate_instability, expected_vec_norm, random_support


class LinearMap(ControllerMap):
    """K with vec(K) = M0 vec(X): its Jacobian is M0 itself."""

    name = "linear-test"

    def __init__(self, m0, m, n):
        self.m0 = np.asarray(m0, dtype=float)
        self.m, self.n = m, n

    def evaluate(self, data):
        return (self.m0 @ data.x_vec).reshape((self.m, self.n), order="F")


def test_plugin_map_is_never_rank_deficient():
    # Five snapshots cannot span the n + m = 6 ce-lqr regressors; a plugin
    # map keeps the base-class answer.
    data = collect(vehicle_model(0.1), 1, 5, seed=0)
    assert CeLqrMap().rank_deficient(data)
    assert LinearMap(np.zeros((8, data.p)), 2, 4).rank_deficient(data) is False


class FragileMap(ControllerMap):
    """Raises whenever a watched entry moves off its nominal value."""

    name = "fragile-test"

    def __init__(self, inner, watched, nominal):
        self.inner = inner
        self.watched = watched
        self.nominal = nominal

    def evaluate(self, data):
        if data.x_vec[self.watched] != self.nominal:
            raise DareError("watched entry moved")
        return self.inner.evaluate(data)


# A field of a saved bundle, an edit of its JSON value that fd_jacobian
# cannot have made, and the refusal.
MALFORMED_BUNDLES = {
    "columns-null": ("columns", lambda c: [[None, *c[0][1:]], *c[1:]],
                     "columns must be finite outside the columns 'failures' names"),
    # Two support entries of a 2 x 4 gain: columns must be 8 x 2. Their
    # transpose holds as many numbers and must not be read as columns.
    "columns-transposed": ("columns", lambda c: np.transpose(c).tolist(),
                           "columns must be 8x2, got (2, 8)"),
    "columns-string": ("columns", lambda c: "abc", "'columns' must be an array of numbers: "
                                                   "could not convert string to float: 'abc'"),
    "columns-ragged": ("columns", lambda c: [c[0][:1], *c[1:]],
                       "'columns' must be an array of numbers: "),
    "steps-short": ("fd_steps", lambda h: h[:1], "fd_steps must be 2 finite positive steps"),
    "steps-zero": ("fd_steps", lambda h: [h[0], 0.0], "fd_steps must be 2 finite positive steps"),
    "steps-null": ("fd_steps", lambda h: [h[0], None], "fd_steps must be 2 finite positive steps"),
    "gain-null-entry": ("gain", lambda g: [[None, *g[0][1:]], *g[1:]],
                        "gain must be 2x4, finite or all NaN"),
    "gain-transposed": ("gain", lambda g: np.transpose(g).tolist(),
                        "gain must be 2x4, finite or all NaN"),
    "gain-null": ("gain", lambda g: None, "gain must be 2x4, finite or all NaN"),
    "gain-string": ("gain", lambda g: [["a"] * 4] * 2, "'gain' must be an array of numbers: "
                                                       "could not convert string to float: 'a'"),
    "failures-key": ("failures", lambda f: {"one": "?"},
                     "'failures' must map support indices to reasons: "),
    "failures-outside": ("failures", lambda f: {"9": "?"},
                         "failures must name support indices, got [9]"),
}

# The cases a bundle built by hand can carry: the others are JSON conversions,
# and a gain of None is the all-NaN gain of a bundle built without one.
BUILT_MALFORMED = ["columns-null", "columns-transposed", "steps-short", "steps-zero",
                   "steps-null", "gain-null-entry", "gain-transposed", "failures-outside"]


def synthetic_bundle(bj_stack) -> JacobianBundle:
    """Bundle whose B J_i products are given directly (B = I)."""
    bj = np.asarray(bj_stack, dtype=float)
    k, n, _ = bj.shape
    columns = np.column_stack([m.flatten(order="F") for m in bj])
    bundle = JacobianBundle(
        support=np.arange(k),
        columns=columns,
        fd_steps=np.full(k, 1e-6),
        m=n,
        n=n,
        failures={},
    )
    return bundle.with_b(np.eye(n), B_SOURCE_TRUE)


def ce_lqr_derivative(data, support):
    """The ce-lqr gain K (identity weights) and its exact derivative columns
    d vec(K) / d vec(X)_i on the support, in closed form.

    Least squares: with W = [X0; U0], G = W W' and C = X1 W', the fit
    Theta = [A B] = C G^-1 moves by dTheta = (dC - Theta dG) G^-1.
    Riccati: dP solves the Stein equation dP - Acl' dP Acl = E' P Acl
    + Acl' P E with E = dA + dB K (the dK terms vanish at the optimum).
    Gain: K = -M^-1 N with M = R + B'PB and N = B'PA, so
    dK = -M^-1 (dN + dM K). See Mania, Tu & Recht, arXiv 1902.07826.
    """
    n, m, t = data.n, data.m, data.t
    states = data.x.T.reshape((data.n_experiments, t, n))
    x0s = np.concatenate([data.x0s.T[:, None], states[:, :-1]], axis=1)
    x0, x1 = x0s.reshape((-1, n)).T, states.reshape((-1, n)).T
    w = np.vstack([x0, data.u.reshape((m, -1), order="F")])
    gram_inv = np.linalg.inv(w @ w.T)
    theta = x1 @ w.T @ gram_inv
    a, b = theta[:, :n], theta[:, n:]
    p = np.eye(n)
    for _ in range(100_000):
        p_next = np.eye(n) + a.T @ p @ a - a.T @ p @ b @ np.linalg.solve(
            np.eye(m) + b.T @ p @ b, b.T @ p @ a)
        if np.abs(p_next - p).max() <= 1e-15 * np.abs(p).max():
            break
        p = p_next
    gain_m = np.eye(m) + b.T @ p @ b
    k = -np.linalg.solve(gain_m, b.T @ p @ a)
    a_cl = a + b @ k
    stein = np.eye(n * n) - np.kron(a_cl.T, a_cl.T)
    expected = np.empty((m * n, support.size))
    for j, i in enumerate(support):
        # Entry i is state i % n of x(s + 1), s = i // n % T, in experiment
        # i // (nT): column e T + s of X1 and, unless s + 1 = T, column
        # e T + s + 1 of X0.
        col = i // (n * t) * t + i // n % t
        dx1 = np.zeros_like(x1)
        dx1[i % n, col] = 1.0
        dw = np.zeros_like(w)
        if i // n % t + 1 < t:
            dw[i % n, col + 1] = 1.0
        d_gram = dw @ w.T + w @ dw.T
        d_theta = (dx1 @ w.T + x1 @ dw.T - theta @ d_gram) @ gram_inv
        da, db = d_theta[:, :n], d_theta[:, n:]
        e = da + db @ k
        rhs = e.T @ p @ a_cl + a_cl.T @ p @ e
        dp = np.linalg.solve(stein, rhs.flatten(order="F")).reshape((n, n), order="F")
        dm = db.T @ p @ b + b.T @ dp @ b + b.T @ p @ db
        dn = db.T @ p @ a + b.T @ dp @ a + b.T @ p @ da
        expected[:, j] = -np.linalg.solve(gain_m, dn + dm @ k).flatten(order="F")
    return k, expected


class TestPerturbationModel:
    def test_scalar_sigma_broadcast(self):
        model = PerturbationModel(np.array([0, 3, 5]), 0.2)
        assert np.array_equal(model.sigmas, [0.2, 0.2, 0.2])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            PerturbationModel(np.array([0, 1]), np.array([0.1, 0.0]))

    @pytest.mark.parametrize("support, sigmas, message", [
        ([0, 1, 2], [0.1, 0.2], "support and sigmas must have matching lengths"),
    ], ids=["lengths"])
    def test_refuses_with_its_reason(self, support, sigmas, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PerturbationModel(np.array(support), np.array(sigmas))


# vec(X) of the record that the holders below are handed has length 80.
SUPPORT_CASES = {
    "empty": ([], "perturbation support must be nonempty"),
    "float": ([3.7], "support indices must index vec(X){of}, got [3.7]"),
    "2-D": ([[1, 2]], "support indices must index vec(X){of}, got [[1, 2]]"),
    "ragged": ([[1], [2, 3]], "support indices must index vec(X){of}, got [[1], [2, 3]]"),
    # A repeated entry would be perturbed once, by its last delta; these
    # repeats are not side by side.
    "repeated": ([3, 9, 3], "support indices must be distinct, got [3, 9, 3]"),
    "negative": ([-1], "support indices must index vec(X){of}, got [-1]"),
    # numpy would wrap -5 onto entry 75, past the distinctness check.
    "aliased": ([75, -5], "support indices must index vec(X){of}, got [75, -5]"),
    "past-end": ([80], "support indices must index vec(X){of}, got [80]"),
}

BATCH_MAPS = {"pinv": PinvMap(), "ce-lqr": CeLqrMap(),
              "plugin": LinearMap(np.ones((8, 80)), 2, 4)}


def batch_on(cmap):
    """A holder that hands ``cmap.evaluate_deltas`` two zero rows of deltas."""
    return lambda context, s: cmap.evaluate_deltas(context[1], s, np.zeros((2, len(s))))


def estimate_on(context, support, first_order):
    """estimate_instability, given the bundle in first-order mode, with a model
    whose support is set after the model's own check, so that the estimate's
    check is the one that runs."""
    sys, data, bundle = context
    model = PerturbationModel([1, 2], 0.1)
    object.__setattr__(model, "support", support)
    return estimate_instability(sys, data, CeLqrMap(), CeLqrMap().evaluate(data), model, 10,
                                bundle=bundle if first_order else None)


SUPPORT_HOLDERS = {
    "model": lambda context, s: PerturbationModel(s, 0.1),
    "bundle-json": lambda context, s: JacobianBundle.from_json(
        context[2].to_json() | {"support": s}),
    **{name: batch_on(cmap) for name, cmap in BATCH_MAPS.items()},
    "fd": lambda context, s: fd_jacobian(PinvMap(), context[1], s),
    "fd-ce-lqr": lambda context, s: fd_jacobian(CeLqrMap(), context[1], s),
    "mc-exact": lambda context, s: estimate_on(context, s, False),
    "mc-first-order": lambda context, s: estimate_on(context, s, True),
}

# Holders with no record at hand: they cannot tell how long vec(X) is.
RECORD_FREE = ("model", "bundle-json")


class TestSupportRefusals:
    """Every holder of a support index refuses a bad one with the one message."""

    @pytest.fixture(scope="class")
    def context(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 20, seed=0)
        assert data.x.size == 80
        return sys, data, fd_jacobian(CeLqrMap(), data, [1, 2]).with_b(sys.b, B_SOURCE_TRUE)

    @pytest.mark.parametrize("holder, case", [
        (holder, case) for holder in SUPPORT_HOLDERS for case in SUPPORT_CASES
        if not (holder in RECORD_FREE and case == "past-end")])
    def test_bad_support(self, context, holder, case):
        support, message = SUPPORT_CASES[case]
        message = message.format(of="" if holder in RECORD_FREE else " of length 80")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SUPPORT_HOLDERS[holder](context, support)

    @pytest.mark.parametrize("holder", RECORD_FREE)
    def test_record_free_holder_takes_any_index(self, context, holder):
        SUPPORT_HOLDERS[holder](context, [80, 10**6])

    @pytest.mark.parametrize("name", BATCH_MAPS)
    @pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 1)])
    def test_deltas_of_another_shape(self, context, name, shape):
        message = f"deltas must have shape (N, 2) for a support of 2 indices, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BATCH_MAPS[name].evaluate_deltas(context[1], [1, 2], np.zeros(shape))


class TestFdJacobian:
    def test_linear_map_is_exact(self):
        data = collect(vehicle_model(0.1), 1, 5, seed=0)
        rng = np.random.default_rng(2)
        m0 = rng.standard_normal((8, data.p))
        cmap = LinearMap(m0, 2, 4)
        support = np.array([0, 3, 11, 19])
        bundle = fd_jacobian(cmap, data, support)
        assert np.allclose(bundle.columns, m0[:, support], atol=1e-10)

    def test_scalar_pinv_closed_form(self):
        # T=2 scalar record: K = (u0 x0 + u1 x1) / (x0^2 + x1^2), where x1 is
        # the first measured state. Its derivative in x1 has a closed form.
        sys = LtiSystem(np.array([[0.9]]), np.array([[1.0]]))
        data = collect(sys, 1, 2, seed=3, x0=np.array([1.5]))
        u0, u1 = data.u[:, 0]
        x0 = 1.5
        x1 = data.x_vec[0]
        bundle = fd_jacobian(PinvMap(), data, np.array([0]))
        expected = (u1 * (x0**2 + x1**2) - 2.0 * x1 * (u0 * x0 + u1 * x1)) / (
            x0**2 + x1**2
        ) ** 2
        assert bundle.columns[0, 0] == pytest.approx(expected, abs=1e-6)

    def test_pinv_matches_closed_form_derivative(self):
        # For full-row-rank X0, K = U0 X0+ has the derivative
        # dK = U0 [(I - X0+ X0) dX0' (X0 X0')^-1 - X0+ dX0 X0+]
        # (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973). Entry i of
        # vec(X) is state i % n of x(i // n + 1), i.e. column i // n + 1 of
        # X0 = [x(0) .. x(T-1)]; the final state (entry 239) is not in X0.
        data = collect(vehicle_model(0.1), 1, 60, seed=2)
        n, t = data.n, data.t
        support = np.array([0, 5, 41, 100, 233, 239])
        x0 = np.column_stack([data.x0s[:, 0], data.x[: n * (t - 1), 0].reshape((t - 1, n)).T])
        u0 = data.u[:, 0].reshape((t, data.m)).T
        gram_inv = np.linalg.inv(x0 @ x0.T)
        x0_pinv = x0.T @ gram_inv
        projector = np.eye(t) - x0_pinv @ x0
        expected = np.zeros((data.m * n, support.size))
        for j, i in enumerate(support):
            if i // n + 1 < t:
                dx0 = np.zeros_like(x0)
                dx0[i % n, i // n + 1] = 1.0
                dk = u0 @ (projector @ dx0.T @ gram_inv - x0_pinv @ dx0 @ x0_pinv)
                expected[:, j] = dk.flatten(order="F")
        columns = fd_jacobian(PinvMap(), data, support).columns
        assert np.abs(columns - expected).max() <= 1e-7 * np.abs(columns).max()

    @pytest.mark.parametrize("t_steps", [400, 1600])
    def test_pinv_columns_are_accurate_on_long_records(self, t_steps):
        # The closed form above, one entry dX0 = e_r e_c' at a time, reads
        # dK = (u_c - K x_c)(G^-1 e_r)' - (K e_r)(G^-1 x_c)' with G = X0 X0'.
        data = collect(vehicle_model(0.1), 1, t_steps, seed=t_steps)
        n, m, t = data.n, data.m, data.t
        support = random_support(data.p, 50, np.random.default_rng(t_steps))
        x0 = np.column_stack([data.x0s[:, 0], data.x[: n * (t - 1), 0].reshape((t - 1, n)).T])
        u0 = data.u[:, 0].reshape((t, m)).T
        k = np.linalg.lstsq(x0.T, u0.T, rcond=None)[0].T
        gram_inv = np.linalg.inv(x0 @ x0.T)
        rows, cols = support % n, support // n + 1
        inner = cols < t  # the final state x(T) is in no column of X0
        rows, cols = rows[inner], cols[inner]
        dk = (np.einsum("aj,bj->jab", u0[:, cols] - k @ x0[:, cols], gram_inv[:, rows])
              - np.einsum("aj,bj->jab", k[:, rows], gram_inv @ x0[:, cols]))
        expected = np.zeros((m * n, support.size))
        expected[:, inner] = np.swapaxes(dk, 1, 2).reshape((-1, m * n)).T
        columns = fd_jacobian(PinvMap(), data, support).columns
        assert np.abs(columns - expected).max() <= 2e-9 * np.abs(columns).max()

    @pytest.mark.parametrize("seed, t_steps, experiments", [(0, 200, 1), (2, 60, 1), (5, 30, 2)])
    def test_ce_lqr_matches_closed_form_derivative(self, seed, t_steps, experiments):
        data = collect(vehicle_model(0.1), experiments, t_steps, seed=seed)
        rng = np.random.default_rng(seed)
        support = np.append(rng.choice(data.p * experiments - 1, 20, replace=False),
                            data.p * experiments - 1)  # the last entry is a final state
        k, expected = ce_lqr_derivative(data, support)
        assert np.abs(k - CeLqrMap().evaluate(data)).max() <= 1e-9 * np.abs(k).max()
        columns = fd_jacobian(CeLqrMap(), data, support).columns
        assert np.abs(columns - expected).max() <= 1e-6 * np.abs(columns).max()

    @pytest.mark.parametrize("t_steps", [400, 1600])
    def test_ce_lqr_columns_are_accurate_on_long_records(self, t_steps):
        # Refitting a perturbed record by SVD leaves rounding of order
        # eps * cond(W) in each fit, which the FD quotient divides by 2h; the
        # Gram update adds to the nominal fit a correction of the size of h.
        data = collect(vehicle_model(0.1), 1, t_steps, seed=t_steps)
        support = random_support(data.p, 50, np.random.default_rng(t_steps))
        _, expected = ce_lqr_derivative(data, support)
        columns = fd_jacobian(CeLqrMap(), data, support).columns
        assert np.abs(columns - expected).max() <= 5e-8 * np.abs(columns).max()

    def test_pinv_ignores_final_state(self):
        # The regressor snapshot stops at x(T-1), so the last measured state
        # never enters the pinv gain and its column is exactly zero.
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        last_state = np.arange(data.p - 4, data.p)
        bundle = fd_jacobian(PinvMap(), data, last_state)
        assert np.array_equal(bundle.columns, np.zeros((8, 4)))

    def test_step_halving_is_second_order(self, monkeypatch):
        data = collect(vehicle_model(0.1), 1, 40, seed=1)
        support = np.array([5, 17, 60])
        cols = {}
        for scale in (1e-3, 5e-4, 2.5e-4):
            monkeypatch.setattr(sensitivity, "_FD_STEP_SCALE", scale)
            cols[scale] = fd_jacobian(CeLqrMap(), data, support).columns
        d1 = np.linalg.norm(cols[1e-3] - cols[5e-4])
        d2 = np.linalg.norm(cols[5e-4] - cols[2.5e-4])
        assert 2.5 < d1 / d2 < 6.0

    def test_probe_failures_recorded_per_column(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        cmap = FragileMap(PinvMap(), watched=3, nominal=data.x_vec[3])
        bundle = fd_jacobian(cmap, data, np.array([2, 3, 8]))
        assert list(bundle.failures) == [3]
        assert np.all(np.isnan(bundle.columns[:, 1]))
        assert not np.any(np.isnan(bundle.columns[:, [0, 2]]))
        with pytest.raises(ValueError):
            bundle.with_b(vehicle_model(0.1).b, B_SOURCE_TRUE)

    def test_json_round_trip(self, tmp_path):
        data = collect(vehicle_model(0.1), 1, 20, seed=4)
        bundle = fd_jacobian(PinvMap(), data, np.array([1, 7, 30]))
        bundle = bundle.with_b(vehicle_model(0.1).b, B_SOURCE_TRUE)
        path = tmp_path / "bundle.json"
        _write_json(path, bundle.to_json())
        back = _read_json(JacobianBundle, path)
        assert back.map == bundle.map == {"name": "pinv", "hyperparameters": {}}
        assert np.array_equal(back.columns, bundle.columns)
        assert np.array_equal(back.support, bundle.support)
        assert back.bj is None  # products are recomputed by with_b
        restored = back.with_b(vehicle_model(0.1).b, B_SOURCE_TRUE)
        assert np.array_equal(restored.bj, bundle.bj)

    @pytest.mark.parametrize("b, source, message", [
        (np.ones((4, 2)), "guessed", "unknown B source 'guessed'"),
        (np.ones((2, 4)), B_SOURCE_TRUE, "B must be 4x2, got (2, 4)"),
    ], ids=["source", "shape"])
    def test_with_b_refuses_with_its_reason(self, b, source, message):
        bundle = fd_jacobian(PinvMap(), collect(vehicle_model(0.1), 1, 20, seed=4), np.array([1]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bundle.with_b(b, source)

    def test_json_rejects_a_malformed_field(self):
        bundle = fd_jacobian(PinvMap(), collect(vehicle_model(0.1), 1, 20, seed=4), np.array([1]))
        with pytest.raises(ValueError, match="^Jacobian bundle has a malformed field: "):
            JacobianBundle.from_json(bundle.to_json() | {"m": None})

    @pytest.mark.parametrize("field, value", [("m", 2.5), ("n", 4.0), ("m", True), ("n", True)])
    def test_json_refuses_a_shape_that_is_not_an_integer(self, tmp_path, field, value):
        bundle = fd_jacobian(PinvMap(), collect(vehicle_model(0.1), 1, 20, seed=4), np.array([1]))
        path = tmp_path / "jacobian.json"
        _write_json(path, bundle.to_json() | {field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Jacobian bundle has "
                                             "a malformed field: "):
            _read_json(JacobianBundle, path)

    @pytest.mark.parametrize("field, edit, message", MALFORMED_BUNDLES.values(),
                             ids=MALFORMED_BUNDLES.keys())
    def test_json_refuses_arrays_fd_jacobian_cannot_make(self, tmp_path, field, edit, message):
        bundle = fd_jacobian(PinvMap(), collect(vehicle_model(0.1), 1, 20, seed=4), [1, 7])
        doc = bundle.to_json()
        path = tmp_path / "jacobian.json"
        _write_json(path, doc | {field: edit(doc[field])})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Jacobian bundle has "
                                             f"a malformed field: {re.escape(message)}"):
            _read_json(JacobianBundle, path)

    @pytest.mark.parametrize("field, edit, message", [
        MALFORMED_BUNDLES[case] for case in BUILT_MALFORMED], ids=BUILT_MALFORMED)
    def test_construction_refuses_arrays_fd_jacobian_cannot_make(self, field, edit, message):
        # The loader's cases that a bundle built by hand can carry too: the
        # edited arrays as numpy makes them of the JSON lists, null as NaN.
        bundle = fd_jacobian(PinvMap(), collect(vehicle_model(0.1), 1, 20, seed=4), [1, 7])
        doc = bundle.to_json()
        fields = {key: np.array(doc[key], dtype=float) for key in ("columns", "fd_steps", "gain")}
        fields["failures"] = {}
        edited = edit(doc[field])
        fields[field] = ({int(key): reason for key, reason in edited.items()}
                         if field == "failures" else np.array(edited, dtype=float))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JacobianBundle(support=bundle.support, m=2, n=4, **fields)

    def test_json_keeps_the_nan_columns_failures_names(self, tmp_path):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        cmap = FragileMap(PinvMap(), watched=3, nominal=data.x_vec[3])
        bundle = fd_jacobian(cmap, data, np.array([2, 3, 8]))
        path = tmp_path / "jacobian.json"
        _write_json(path, bundle.to_json())
        back = _read_json(JacobianBundle, path)
        assert back.failures == bundle.failures and list(back.failures) == [3]
        assert np.array_equal(back.columns, bundle.columns, equal_nan=True)

    def test_overflowing_central_difference_is_a_failed_column(self):
        # Finite gains of opposite sign near the float maximum: K+ - K- is inf.
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        nominal = data.x_vec[3]

        class CliffMap(ControllerMap):
            name = "cliff-test"

            def evaluate(self, record):
                return np.full((2, 4), 1e308 if record.x_vec[3] >= nominal else -1e308)

        bundle = fd_jacobian(CliffMap(), data, np.array([2, 3]))  # and no numpy warning
        assert bundle.failures == {3: "the central difference overflowed"}
        assert np.isnan(bundle.columns[:, 1]).all() and np.isfinite(bundle.columns[:, 0]).all()

    def test_with_b_keeps_the_checked_arrays_and_forms_each_product(self):
        data = collect(vehicle_model(0.1), 1, 20, seed=4)
        bundle = fd_jacobian(CeLqrMap(), data, np.array([1, 7, 30]))
        b = vehicle_model(0.1).b
        attached = bundle.with_b(b, B_SOURCE_TRUE)
        assert (attached.bj.shape, attached.b_source, bundle.bj) == ((3, 4, 4), "true", None)
        for j in range(3):
            assert np.array_equal(attached.bj[j],
                                  b @ bundle.columns[:, j].reshape((2, 4), order="F"))
        for name in ("support", "columns", "fd_steps", "gain", "failures", "map"):
            assert getattr(attached, name) is getattr(bundle, name)

    def test_gainless_bundle_is_saved_and_falls_back_to_the_map(self, tmp_path):
        # Built as the acceptance tests build one: no gain, so an all-NaN one.
        data = collect(vehicle_model(0.1), 1, 20, seed=4)
        full = fd_jacobian(PinvMap(), data, np.array([1, 7]))
        bundle = JacobianBundle(support=full.support, columns=full.columns,
                                fd_steps=full.fd_steps, m=2, n=4, failures={})
        assert bundle.gain.shape == (2, 4) and np.isnan(bundle.gain).all()
        path = tmp_path / "jacobian.json"
        _write_json(path, bundle.to_json())
        back = _read_json(JacobianBundle, path)
        assert np.array_equal(back.gain, bundle.gain, equal_nan=True)
        assert np.array_equal(back.columns, bundle.columns)
        assert np.array_equal(back.nominal_gain(PinvMap(), data), PinvMap().evaluate(data))

    def test_identified_b_close_to_true_b(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 200, seed=0)
        bundle = fd_jacobian(CeLqrMap(), data, np.array([10, 50, 200]))
        true_bj = bundle.with_b(sys.b, B_SOURCE_TRUE)
        from ddrobust import identify

        ident_bj = bundle.with_b(identify(data).b, B_SOURCE_IDENTIFIED)
        assert true_bj.b_source == "true"
        assert ident_bj.b_source == "identified"
        assert np.allclose(true_bj.bj, ident_bj.bj, atol=1e-6)


def two_k_probe_bundle(cmap, data, support):
    """Columns, steps and failures of the 2k-probe stack that ``fd_jacobian``
    ran before the unperturbed record joined it: probe 2j moves entry j by
    +h_j, probe 2j + 1 by -h_j."""
    k = support.size
    steps = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(data.x_vec[support]))
    deltas = np.zeros((2 * k, k))
    deltas[0::2][np.arange(k), np.arange(k)] = steps
    deltas[1::2][np.arange(k), np.arange(k)] = -steps
    gains = cmap.evaluate_deltas(data, support, deltas)
    ok = np.all(np.isfinite(gains), axis=(1, 2))
    diffs = (gains[0::2] - gains[1::2]) / (2.0 * steps[:, None, None])
    columns = np.swapaxes(diffs, 1, 2).reshape((k, data.m * data.n)).T
    failed = [int(i) for i in support[~(ok[0::2] & ok[1::2])]]
    columns[:, ~(ok[0::2] & ok[1::2])] = np.nan
    return columns, steps, failed


class TestNominalProbe:
    """The first probe of the FD stack is the map on the unperturbed record."""

    @staticmethod
    def check(cmap, data, support):
        bundle = fd_jacobian(cmap, data, support)
        assert np.array_equal(bundle.gain, cmap.evaluate(data))
        columns, steps, failed = two_k_probe_bundle(cmap, data, support)
        assert np.array_equal(bundle.columns, columns, equal_nan=True)
        assert np.array_equal(bundle.fd_steps, steps)
        assert sorted(bundle.failures) == failed
        return bundle

    @pytest.mark.parametrize("cmap", [CeLqrMap(), PinvMap()], ids=["ce-lqr", "pinv"])
    @pytest.mark.parametrize("t_steps", [20, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_shipped_maps(self, cmap, t_steps, seed):
        data = collect(vehicle_model(0.1), 1, t_steps, seed=seed)
        self.check(cmap, data, random_support(data.p, 12, np.random.default_rng(seed)))

    @pytest.mark.parametrize("cmap", [CeLqrMap(), PinvMap()], ids=["ce-lqr", "pinv"])
    def test_record_of_two_experiments(self, cmap):
        data = collect(vehicle_model(0.1), 2, 40, seed=5)
        # Entries 156..163 hold x(T) of the first experiment and x(1) of the second.
        self.check(cmap, data, np.array([0, 77, 156, 159, 160, 163, 250, 319]))

    def test_plugin_map_takes_the_record_path(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        m0 = np.random.default_rng(2).standard_normal((8, data.p))
        self.check(LinearMap(m0, 2, 4), data, np.array([0, 3, 11, 19]))
        # A failed column is the same failed column in both layouts.
        fragile = FragileMap(PinvMap(), watched=3, nominal=data.x_vec[3])
        assert list(self.check(fragile, data, np.array([2, 3, 8])).failures) == [3]

    @pytest.mark.parametrize("cmap", [CeLqrMap(), PinvMap()], ids=["ce-lqr", "pinv"])
    def test_gram_test_failure_takes_the_record_path(self, cmap, monkeypatch):
        # No Gram matrix has lambda_min > lambda_max: every probe, the
        # unperturbed one included, is evaluated on its own record.
        monkeypatch.setattr(ctrlmaps, "_GRAM_RCOND", 1.0)
        evaluated = []
        original = type(cmap).evaluate
        monkeypatch.setattr(type(cmap), "evaluate",
                            lambda self, data: evaluated.append(data) or original(self, data))
        data = collect(vehicle_model(0.1), 1, 30, seed=4)
        support = np.array([1, 40, 90])
        self.check(cmap, data, support)
        # 2k + 1 probes of the bundle, 2k of the oracle and the nominal evaluate.
        assert len(evaluated) == (2 * support.size + 1) + 2 * support.size + 1

    def test_failed_nominal_probe_is_a_nan_gain(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)

        class NominalFails(ControllerMap):
            name = "nominal-fails-test"

            def evaluate(self, record):
                if np.array_equal(record.x, data.x):
                    raise DareError("nominal record")
                return PinvMap().evaluate(record)

        bundle = fd_jacobian(NominalFails(), data, np.array([2, 3]))
        assert np.isnan(bundle.gain).all() and bundle.gain.shape == (2, 4)
        assert not bundle.failures

    def test_gain_survives_a_json_round_trip(self, tmp_path):
        data = collect(vehicle_model(0.1), 1, 20, seed=4)
        bundle = fd_jacobian(CeLqrMap(), data, np.array([1, 7, 30]))
        path = tmp_path / "bundle.json"
        for gain in (bundle.gain, np.full_like(bundle.gain, np.nan)):
            _write_json(path, replace(bundle, gain=gain).to_json())
            back = _read_json(JacobianBundle, path)
            assert np.array_equal(back.gain, gain, equal_nan=True)


class TestFirstOrderAcl:
    def test_zero_perturbation(self):
        bundle = synthetic_bundle(np.stack([np.eye(2)]))
        a_cl = np.array([[0.5, 0.1], [0.0, 0.4]])
        assert np.array_equal(first_order_acl(a_cl, bundle, [0.0]), a_cl)

    def test_identity_product_unit_step(self):
        bundle = synthetic_bundle(np.stack([np.eye(2)]))
        a_cl = np.array([[0.5, 0.1], [0.0, 0.4]])
        assert np.array_equal(first_order_acl(a_cl, bundle, [1.0]), a_cl + np.eye(2))

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(9)
        bj = rng.standard_normal((4, 3, 3))
        bundle = synthetic_bundle(bj)
        a_cl = rng.standard_normal((3, 3)) * 0.3
        z = rng.standard_normal(4)
        oracle = a_cl.copy()
        for i in range(4):
            oracle = oracle + z[i] * bj[i]
        assert np.allclose(first_order_acl(a_cl, bundle, z), oracle, atol=1e-12)

    def test_stack_rows_are_the_left_to_right_sum(self):
        # To rounding: the loops are one matrix product, whose BLAS kernel
        # picks its own summation order and blocking. A row of the stack, the
        # same draw alone and as a one-row stack lie within 2 gamma_(k+1)
        # (|A_cl| + sum |z_i| |BJ_i|) of the sum a_cl + z_1 BJ_1 + ... +
        # z_k BJ_k in support order and of each other, entry by entry,
        # gamma_j = j u / (1 - j u) with u = eps / 2: each is within
        # gamma_(k+1) of the exact sum. Neither a_cl nor the bundle's
        # products are written to.
        rng = np.random.default_rng(17)
        eps = np.finfo(float).eps
        for n, k, trials in ((3, 7, 50), (1, 5, 40), (4, 50, 1000), (2, 1, 3)):
            bundle = synthetic_bundle(rng.standard_normal((k, n, n)))
            a_cl = rng.standard_normal((n, n)) * 0.3
            z = rng.standard_normal((trials, k)) * np.logspace(-3, 3, k)
            a_saved, bj_saved = a_cl.copy(), bundle.bj.copy()
            acl = first_order_acl(a_cl, bundle, z)
            assert acl.shape == (trials, n, n)
            oracle = left_to_right_acl(a_cl, bundle.bj, z)
            scale = np.abs(a_cl) + np.tensordot(np.abs(z), np.abs(bundle.bj), axes=1)
            bound = (k + 1) * eps / (1.0 - (k + 1) * eps / 2.0) * scale
            assert np.all(np.abs(acl - oracle) <= bound)
            for t in range(0, trials, max(1, trials // 25)):
                draw = first_order_acl(a_cl, bundle, z[t])
                one_row = first_order_acl(a_cl, bundle, z[t:t + 1])
                assert draw.shape == (n, n) and one_row.shape == (1, n, n)
                assert np.all(np.abs(draw - one_row[0]) <= bound[t])
                assert np.all(np.abs(draw - acl[t]) <= bound[t])
            assert np.array_equal(a_cl, a_saved) and np.array_equal(bundle.bj, bj_saved)

    @pytest.mark.parametrize("a_cl, shape, message", [
        (np.eye(2), (3,), "z has shape (3,), expected (..., 2)"),
        (np.eye(2), (4, 3), "z has shape (4, 3), expected (..., 2)"),
        (np.eye(2), (2, 4, 2), "z has shape (2, 4, 2), expected (..., 2)"),
        (np.eye(3), (2,), "A_cl has shape (3, 3), but the bundle's B J_i are (2, 2)"),
    ], ids=["draw", "stack", "3-d", "a_cl"])
    def test_refuses_draws_of_another_shape(self, a_cl, shape, message):
        bundle = synthetic_bundle(np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(ValueError, match=re.escape(message)):
            first_order_acl(a_cl, bundle, np.zeros(shape))

    def test_needs_b_attached(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        bundle = fd_jacobian(PinvMap(), data, np.array([0]))
        with pytest.raises(ValueError):
            first_order_acl(np.eye(4), bundle, [0.1])


class TestExpectedVecNorm:
    @pytest.mark.parametrize("sigmas, message", [
        ([], "expected_vec_norm needs at least one sigma"),
        *((bad, "all sigmas must be positive and finite")
          for bad in ([0.0], [-1.0, -1.0], [0.2, math.nan], [math.inf])),
    ], ids=["empty", "zero", "negative", "nan", "inf"])
    def test_refuses_with_its_reason(self, sigmas, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            expected_vec_norm(sigmas)

    def test_single_gaussian_folded_mean(self):
        # E|z| = sigma sqrt(2/pi) for one centered Gaussian.
        assert expected_vec_norm([0.3]) == pytest.approx(0.3 * math.sqrt(2.0 / math.pi),
                                                         rel=1e-12)

    def test_equal_sigmas_match_sampling(self):
        closed = expected_vec_norm(np.full(5, 0.2))
        rng = np.random.default_rng(77)
        sample = np.mean(np.linalg.norm(rng.standard_normal((200_000, 5)) * 0.2, axis=1))
        assert closed == pytest.approx(sample, rel=5e-3)

    def test_mixed_sigmas_between_extremes(self):
        mixed = expected_vec_norm([0.1, 0.4])
        assert expected_vec_norm([0.1, 0.1]) < mixed < expected_vec_norm([0.4, 0.4])

    @pytest.mark.parametrize("k", [1, 2, 50, 5000])
    @pytest.mark.parametrize("sigma", [1e-9, 1.0, 1e6])
    def test_equal_sigmas_match_chi_mean(self, k, sigma):
        log_mean = 0.5 * math.log(2.0) + math.lgamma((k + 1) / 2.0) - math.lgamma(k / 2.0)
        assert expected_vec_norm(np.full(k, sigma)) == pytest.approx(
            sigma * math.exp(log_mean), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("sigmas", [[0.1, 0.4], [1.0, 1e-3]])
    def test_two_sigmas_match_elliptic_integral(self, sigmas):
        # E sqrt(a^2 x^2 + b^2 y^2) = sqrt(2/pi) a E(1 - b^2/a^2) for a >= b,
        # E the complete elliptic integral of the second kind.
        ellipe = pytest.importorskip("scipy.special").ellipe
        b, a = sorted(sigmas)
        oracle = math.sqrt(2.0 / math.pi) * a * ellipe(1.0 - (b / a) ** 2)
        assert expected_vec_norm(sigmas) == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestLemma1Residual:
    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_refuses_a_negative_or_non_finite_scale(self, monkeypatch, scale):
        # A negative scale used to report a mean residual of exactly 0.
        calls = []
        monkeypatch.setattr(CeLqrMap, "evaluate_deltas", lambda *args: calls.append(args))
        data = collect(vehicle_model(0.1), 1, 60, seed=0)
        model = PerturbationModel(np.arange(10), 0.1)
        message = f"sigma scales must be non-negative and finite, got [1.0, {scale}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lemma1_residual(CeLqrMap(), vehicle_model(0.1), data, model, [1.0, scale], trials=5)
        assert calls == []

    def test_zero_scale_zero_residual(self):
        data = collect(vehicle_model(0.1), 1, 60, seed=0)
        model = PerturbationModel(np.arange(10), 0.5)
        stats = lemma1_residual(CeLqrMap(), vehicle_model(0.1), data, model,
                                [0.0], trials=5, seed=0)
        assert stats[0].mean_residual == 0.0

    def test_nominal_gain_comes_from_the_bundle(self, monkeypatch):
        # The FD stack's unperturbed probe is the nominal gain, so the map is
        # never evaluated on the nominal record alone.
        sys, data = vehicle_model(0.1), collect(vehicle_model(0.1), 1, 60, seed=0)
        model = PerturbationModel(np.arange(10), 0.5)
        stats = lemma1_residual(CeLqrMap(), sys, data, model, [1e-2, 1e-3], trials=20, seed=0)

        def refuse(self, data):
            raise AssertionError("nominal gain evaluated alone")

        monkeypatch.setattr(CeLqrMap, "evaluate", refuse)
        assert lemma1_residual(CeLqrMap(), sys, data, model, [1e-2, 1e-3], trials=20,
                               seed=0) == stats

    def test_linear_map_has_no_remainder(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 6, seed=0)
        rng = np.random.default_rng(5)
        m0 = rng.standard_normal((8, data.p)) * 0.05
        cmap = LinearMap(m0, 2, 4)
        # Shift A so the nominal loop of this artificial map is stable.
        sys_stable = LtiSystem(sys.a * 0.2, sys.b)
        model = PerturbationModel(np.array([0, 5, 11]), 0.3)
        stats = lemma1_residual(cmap, sys_stable, data, model,
                                [1e-1, 1e-3], trials=20, seed=1)
        for stat in stats:
            assert stat.mean_residual <= 1e-10

    def test_residual_shrinks_with_scale_on_reference_setup(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 200, seed=3)  # seed with a stable pinv loop
        assert check_a1(sys, PinvMap().evaluate(data)).stable
        support = random_support(data.p, 50, np.random.default_rng(503))
        model = PerturbationModel(support, 1.0)
        stats = lemma1_residual(PinvMap(), sys, data, model,
                                [1e-2, 1e-3, 1e-4], trials=100, seed=42)
        means = [s.mean_residual for s in stats]
        assert means[0] > means[1] > means[2]
        assert all(s.skipped == 0 for s in stats)
