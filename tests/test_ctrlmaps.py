import math
import re

import numpy as np
import pytest

from ddrobust import (
    CeLqrMap,
    DareError,
    LqrWeights,
    LtiSystem,
    PinvMap,
    check_a1,
    collect,
    dare_solve,
    identify,
    lqr_gain,
    map_from_descriptor,
    vehicle_model,
)
from ddrobust import ctrlmaps
from ddrobust.lti import snapshot_batch

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def zero_inputs(rng, m, t):
    return np.zeros((m, t))


class TestPinvMap:
    def test_scalar_single_step(self):
        sys = LtiSystem(np.array([[0.7]]), np.array([[1.0]]))
        data = collect(sys, 1, 1, seed=0, x0=np.array([2.5]))
        k = PinvMap().evaluate(data)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(data.u[0, 0] / 2.5, abs=1e-12)

    def test_zero_inputs_give_zero_gain(self):
        data = collect(vehicle_model(0.1), 1, 30, input_law=zero_inputs, seed=0,
                       x0=np.array([1.0, 0.0, -1.0, 0.5]))
        assert np.array_equal(PinvMap().evaluate(data), np.zeros((2, 4)))

    def test_closed_loop_identity_full_row_rank(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 500, seed=0)
        result = PinvMap().evaluate_flagged(data)
        assert not result.rank_deficient
        [x0], [x1], _ = snapshot_batch(data, data.x_vec[None])
        closed_loop = sys.a + sys.b @ result.k
        reference = x1 @ np.linalg.pinv(x0)
        assert np.linalg.norm(closed_loop - reference, 2) <= 1e-8

    def test_rank_deficiency_flagged(self):
        data = collect(vehicle_model(0.1), 1, 2, seed=0)
        assert PinvMap().evaluate_flagged(data).rank_deficient


class TestIdentify:
    def test_recovers_ground_truth(self):
        sys = vehicle_model(0.1)
        model = identify(collect(sys, 1, 500, seed=0))
        err = np.linalg.norm(model.a - sys.a, 2) + np.linalg.norm(model.b - sys.b, 2)
        assert err <= 1e-6
        assert not model.rank_deficient

    def test_short_record_flagged(self):
        # Fewer than n + m snapshot columns cannot have full row rank.
        model = identify(collect(vehicle_model(0.1), 1, 5, seed=0))
        assert model.rank_deficient

    def test_recovers_ground_truth_from_three_experiments(self):
        # Each 4-step experiment alone is too short (4 < n + m columns);
        # side by side the three give 12 columns and an exact fit.
        sys = vehicle_model(0.1)
        model = identify(collect(sys, 3, 4, seed=0))
        assert not model.rank_deficient
        assert np.abs(model.a - sys.a).max() <= 1e-10
        assert np.abs(model.b - sys.b).max() <= 1e-10

    def test_stack_matches_single_records(self):
        data = collect(vehicle_model(0.1), 1, 30, seed=1)
        rng = np.random.default_rng(4)
        x_vecs = data.x_vec + 0.1 * rng.standard_normal((3, data.x_vec.size))
        model = identify(data, x_vecs)
        assert model.a.shape == (3, 4, 4) and model.b.shape == (3, 4, 2)
        for i, x_vec in enumerate(x_vecs):
            one = identify(data.with_x_vec(x_vec))
            assert np.array_equal(model.a[i], one.a) and np.array_equal(model.b[i], one.b)
            assert model.rank_deficient[i] == one.rank_deficient

    def test_difference_quotients_converge(self):
        data = collect(vehicle_model(0.1), 1, 30, seed=1)
        idx = 7

        def a_hat(step):
            bumped_hi = data.x_vec
            bumped_hi[idx] += step
            bumped_lo = data.x_vec
            bumped_lo[idx] -= step
            hi = identify(data.with_x_vec(bumped_hi)).a
            lo = identify(data.with_x_vec(bumped_lo)).a
            return (hi - lo) / (2.0 * step)

        quotients = [a_hat(h) for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        gaps = [np.linalg.norm(q1 - q0) for q0, q1 in zip(quotients, quotients[1:])]
        assert gaps[1] <= gaps[0] and gaps[2] <= gaps[1]


class TestDare:
    def test_memoryless_scalar(self):
        p = dare_solve(np.array([[0.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        k = lqr_gain(np.array([[0.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
        assert k[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_fixed_point_is_golden_ratio(self):
        # The scalar recursion reduces to P^2 = P + 1.
        a = b = q = r = np.array([[1.0]])
        p = dare_solve(a, b, q, r)
        assert abs(p[0, 0] - GOLDEN) <= 1e-9
        k = lqr_gain(a, b, q, r)
        assert abs(k[0, 0] + 1.0 / GOLDEN) <= 1e-9

    def test_matches_lyapunov_series_with_zero_input(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
        q_half = rng.standard_normal((4, 4))
        q = q_half.T @ q_half
        b = np.zeros((4, 1))
        p = dare_solve(a, b, q, np.eye(1))

        series = np.zeros((4, 4))
        term = q.copy()
        while np.linalg.norm(term) > 1e-14:
            series += term
            term = a.T @ term @ a
        assert np.linalg.norm(p - series, 2) <= 1e-8

    def test_residual_on_random_stabilizable_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 2))
            q, r = np.eye(3), np.eye(2)
            p = dare_solve(a, b, q, r)
            gain_term = a.T @ p @ b @ np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
            residual = p - (q + a.T @ p @ a - gain_term)
            assert np.linalg.norm(residual, 2) <= 1e-8

    def test_divergence_is_loud(self):
        with pytest.raises(DareError):
            dare_solve(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))

    def test_uncontrollable_unstable_mode_is_loud(self):
        # The mode at 2 is unstable and B cannot reach it.
        with pytest.raises(DareError):
            dare_solve(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1))

    def test_residual_gate_rejects_a_converged_iterate(self, monkeypatch):
        model = identify(collect(vehicle_model(0.1), 1, 200, seed=0))
        dare_solve(model.a, model.b, np.eye(4), np.eye(2))
        # The accepted residual is ~1e-15 of max|P|; this gate rejects it.
        monkeypatch.setattr(ctrlmaps, "_DARE_RESIDUAL_RTOL", 1e-300)
        with pytest.raises(DareError):
            dare_solve(model.a, model.b, np.eye(4), np.eye(2))

    def test_batch_matches_single_solves(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3, 3))
        b = rng.standard_normal((6, 3, 2))
        p = dare_solve(a, b, np.eye(3), np.eye(2))
        for i in range(6):
            assert np.array_equal(p[i], dare_solve(a[i], b[i], np.eye(3), np.eye(2)))

    def test_failed_items_do_not_fail_the_batch(self):
        # Item 0 diverges; with Q = -1, item 1 makes W = I + G H exactly
        # singular in the first step, which numpy reports for the whole
        # stack. Item 2 is the golden-ratio problem, item 3 a stable pair.
        a = np.array([[[2.0]], [[0.0]], [[1.0]], [[0.5]]])
        b = np.array([[[0.0]], [[1.0]], [[1.0]], [[2.0]]])
        q = np.array([[[1.0]], [[-1.0]], [[1.0]], [[3.0]]])
        p = dare_solve(a, b, q, np.eye(1))
        assert np.isnan(p[:2]).all()
        assert abs(p[2, 0, 0] - GOLDEN) <= 1e-12
        # The stacked gain fails the same items and no other.
        k = lqr_gain(a, b, q, np.eye(1))
        assert k.shape == (4, 1, 1) and np.isnan(k[:2]).all()
        for i in (2, 3):
            assert np.array_equal(p[i], dare_solve(a[i], b[i], q[i], np.eye(1)))
            assert np.array_equal(k[i], lqr_gain(a[i], b[i], q[i], np.eye(1)))

    def test_weights_must_fit_the_pair(self):
        # A 1 x 1 weight would otherwise broadcast to the all-ones matrix.
        sys = vehicle_model(0.1)
        for q, r in ((np.eye(1), np.eye(2)), (np.eye(4), np.eye(1)), (np.eye(1), np.eye(1))):
            with pytest.raises(ValueError, match=re.escape(f"Q {q.shape} and R {r.shape}")):
                dare_solve(sys.a, sys.b, q, r)
        with pytest.raises(ValueError, match=re.escape("Q (1, 1, 1) and R (2, 2)")):
            dare_solve(sys.a[None], sys.b[None], np.ones((1, 1, 1)), np.eye(2))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LqrWeights(q=np.array([[1.0, 0.2], [0.0, 1.0]]), r=np.eye(2))
        with pytest.raises(ValueError):
            LqrWeights(q=np.eye(2), r=np.zeros((2, 2)))


class TestDareOracle:
    """The doubling solver against scipy's Schur-method DARE solver."""

    @staticmethod
    def check(a, b, q, r):
        linalg = pytest.importorskip("scipy.linalg")
        expected = linalg.solve_discrete_are(a, b, q, r)
        p = dare_solve(a, b, q, r, max_iter=30)
        assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_random_stabilizable_pairs(self):
        rng = np.random.default_rng(2004)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            # Random pairs are controllable with probability one; the scale
            # puts some open-loop eigenvalues outside the unit circle.
            a = 1.2 * rng.standard_normal((n, n)) / np.sqrt(n)
            b = rng.standard_normal((n, m))
            q_half = rng.standard_normal((n, n))
            r_half = rng.standard_normal((m, m))
            self.check(a, b, q_half @ q_half.T + 0.1 * np.eye(n),
                       r_half @ r_half.T + 0.1 * np.eye(m))

    def test_identified_vehicle_pair(self):
        model = identify(collect(vehicle_model(0.1), 1, 200, seed=0))
        self.check(model.a, model.b, np.eye(4), np.eye(2))


class TestCeLqr:
    def test_vehicle_stabilized_across_seeds(self):
        sys = vehicle_model(0.1)
        for seed in range(5):
            data = collect(sys, 1, 200, seed=seed)
            k = CeLqrMap(LqrWeights.identity(4, 2)).evaluate(data)
            assert check_a1(sys, k).stable

    def test_scalar_gain_via_exact_identification(self):
        sys = LtiSystem(np.array([[1.0]]), np.array([[1.0]]))
        data = collect(sys, 1, 10, seed=0)
        k = CeLqrMap(LqrWeights.identity(1, 1)).evaluate(data)
        assert abs(k[0, 0] + 1.0 / GOLDEN) <= 1e-6

    def test_zero_input_data_degenerates_to_zero_gain(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 30, input_law=zero_inputs, seed=0,
                       x0=np.array([1.0, -0.5, 2.0, 0.25]))
        result = CeLqrMap(LqrWeights.identity(4, 2)).evaluate_flagged(data)
        assert result.rank_deficient
        assert np.allclose(result.k, np.zeros((2, 4)), atol=1e-12)
        chk = check_a1(sys, result.k)
        assert not chk.stable and chk.rho >= 1.0

    def test_nominal_riccati_failure_raises(self, monkeypatch):
        # One record is the N = 1 case of the batch kernel, where a failed
        # Riccati solve is a NaN item; the map must still raise for it.
        data = collect(vehicle_model(0.1), 1, 200, seed=0)
        monkeypatch.setattr(ctrlmaps, "_DARE_RESIDUAL_RTOL", 1e-300)
        with pytest.raises(DareError, match="did not converge in 100 steps"):
            CeLqrMap().evaluate(data)


class TestCheckA1:
    def test_zero_gain_vehicle_is_marginal(self):
        chk = check_a1(vehicle_model(0.1), np.zeros((2, 4)))
        assert not chk.stable
        assert chk.rho == pytest.approx(1.0, abs=1e-12)

    def test_lqr_on_true_model_is_stable(self):
        sys = vehicle_model(0.1)
        k = lqr_gain(sys.a, sys.b, np.eye(4), np.eye(2))
        assert check_a1(sys, k).stable

    def test_overdriven_gain_is_flagged(self):
        sys = vehicle_model(0.1)
        k = 100.0 * lqr_gain(sys.a, sys.b, np.eye(4), np.eye(2))
        chk = check_a1(sys, k)
        assert not chk.stable and chk.rho > 1.0


class TestMapInterface:
    def test_descriptor_round_trip(self):
        for name in ("pinv", "ce-lqr"):
            cmap = map_from_descriptor(name)
            assert cmap.descriptor()["name"] == name
            again = map_from_descriptor(**{"name": cmap.descriptor()["name"],
                                           "hyperparameters": cmap.descriptor()["hyperparameters"]})
            assert type(again) is type(cmap)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            map_from_descriptor("sdp")

    def test_pinv_rejects_hyperparameters(self):
        with pytest.raises(ValueError):
            map_from_descriptor("pinv", {"q": [[1.0]]})

    def test_ce_lqr_weights_honored(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 200, seed=0)
        heavy_r = map_from_descriptor(
            "ce-lqr", {"q": np.eye(4).tolist(), "r": (100.0 * np.eye(2)).tolist()})
        default = map_from_descriptor("ce-lqr")
        k_heavy = heavy_r.evaluate(data)
        k_default = default.evaluate(data)
        # Pricier inputs mean a gentler controller.
        assert np.linalg.norm(k_heavy, 2) < np.linalg.norm(k_default, 2)

    def test_ce_lqr_rejects_unknown_hyperparameters(self):
        with pytest.raises(ValueError):
            map_from_descriptor("ce-lqr", {"horizon": 10})

    def test_evaluate_is_deterministic(self):
        data = collect(vehicle_model(0.1), 1, 100, seed=6)
        for cmap in (PinvMap(), CeLqrMap()):
            assert np.array_equal(cmap.evaluate(data), cmap.evaluate(data))
