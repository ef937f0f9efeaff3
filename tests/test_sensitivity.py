import math

import numpy as np
import pytest

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
    vec,
    vehicle_model,
)
from ddrobust.ctrlmaps import ControllerMap
from ddrobust.sensitivity import B_SOURCE_IDENTIFIED, B_SOURCE_TRUE
from ddrobust.mc import expected_vec_norm, random_support


class LinearMap(ControllerMap):
    """K with vec(K) = M0 vec(X): its Jacobian is M0 itself."""

    name = "linear-test"

    def __init__(self, m0, m, n):
        self.m0 = np.asarray(m0, dtype=float)
        self.m, self.n = m, n

    def evaluate(self, data):
        return (self.m0 @ data.x_vec).reshape((self.m, self.n), order="F")


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


class TestPerturbationModel:
    def test_scalar_sigma_broadcast(self):
        model = PerturbationModel(np.array([0, 3, 5]), 0.2)
        assert np.array_equal(model.sigmas, [0.2, 0.2, 0.2])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PerturbationModel(np.array([1, 1]), 0.1)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            PerturbationModel(np.array([0, 1]), np.array([0.1, 0.0]))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            PerturbationModel(np.array([-1, 2]), 0.1)


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

    @pytest.mark.parametrize("seed, t_steps, experiments", [(0, 200, 1), (2, 60, 1), (5, 30, 2)])
    def test_ce_lqr_matches_closed_form_derivative(self, seed, t_steps, experiments):
        # Least squares: with W = [X0; U0], G = W W' and C = X1 W', the fit
        # Theta = [A B] = C G^-1 moves by dTheta = (dC - Theta dG) G^-1.
        # Riccati: dP solves the Stein equation dP - Acl' dP Acl = E' P Acl
        # + Acl' P E with E = dA + dB K (the dK terms vanish at the optimum).
        # Gain: K = -M^-1 N with M = R + B'PB and N = B'PA, so
        # dK = -M^-1 (dN + dM K). See Mania, Tu & Recht, arXiv 1902.07826.
        data = collect(vehicle_model(0.1), experiments, t_steps, seed=seed)
        n, m, t = data.n, data.m, data.t
        states = data.x.T.reshape((experiments, t, n))
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
        assert np.abs(k - CeLqrMap().evaluate(data)).max() <= 1e-9 * np.abs(k).max()
        stein = np.eye(n * n) - np.kron(a_cl.T, a_cl.T)

        rng = np.random.default_rng(seed)
        support = np.append(rng.choice(data.p * experiments - 1, 20, replace=False),
                            data.p * experiments - 1)  # the last entry is a final state
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
        columns = fd_jacobian(CeLqrMap(), data, support).columns
        assert np.abs(columns - expected).max() <= 1e-6 * np.abs(columns).max()

    def test_pinv_ignores_final_state(self):
        # The regressor snapshot stops at x(T-1), so the last measured state
        # never enters the pinv gain and its column is exactly zero.
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        last_state = np.arange(data.p - 4, data.p)
        bundle = fd_jacobian(PinvMap(), data, last_state)
        assert np.array_equal(bundle.columns, np.zeros((8, 4)))

    def test_step_halving_is_second_order(self):
        data = collect(vehicle_model(0.1), 1, 40, seed=1)
        support = np.array([5, 17, 60])
        cols = {
            h: fd_jacobian(CeLqrMap(), data, support, step=h).columns
            for h in (1e-3, 5e-4, 2.5e-4)
        }
        d1 = np.linalg.norm(cols[1e-3] - cols[5e-4])
        d2 = np.linalg.norm(cols[5e-4] - cols[2.5e-4])
        assert 2.5 < d1 / d2 < 6.0

    def test_out_of_range_support(self):
        data = collect(vehicle_model(0.1), 1, 5, seed=0)
        with pytest.raises(ValueError):
            fd_jacobian(PinvMap(), data, np.array([data.p]))

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
        bundle.save(path)
        back = JacobianBundle.load(path)
        assert np.array_equal(back.columns, bundle.columns)
        assert np.array_equal(back.support, bundle.support)
        assert back.bj is None  # products are recomputed by with_b
        restored = back.with_b(vehicle_model(0.1).b, B_SOURCE_TRUE)
        assert np.array_equal(restored.bj, bundle.bj)

    def test_with_b_refuses_columns_of_another_shape(self):
        # Two support entries of a 2 x 4 gain: columns must be 8 x 2. Their
        # transpose holds as many numbers and must not be read as columns.
        data = collect(vehicle_model(0.1), 1, 20, seed=4)
        bundle = fd_jacobian(PinvMap(), data, np.array([1, 7]))
        flipped = JacobianBundle(support=bundle.support, columns=bundle.columns.T,
                                 fd_steps=bundle.fd_steps, m=2, n=4, failures={})
        with pytest.raises(ValueError, match="columns must be 8x2"):
            flipped.with_b(vehicle_model(0.1).b, B_SOURCE_TRUE)

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

    def test_needs_b_attached(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        bundle = fd_jacobian(PinvMap(), data, np.array([0]))
        with pytest.raises(ValueError):
            first_order_acl(np.eye(4), bundle, [0.1])


class TestExpectedVecNorm:
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


class TestLemma1Residual:
    def test_zero_scale_zero_residual(self):
        data = collect(vehicle_model(0.1), 1, 60, seed=0)
        model = PerturbationModel(np.arange(10), 0.5)
        stats = lemma1_residual(CeLqrMap(), vehicle_model(0.1), data, model,
                                [0.0], trials=5, seed=0)
        assert stats[0].mean_residual == 0.0

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
