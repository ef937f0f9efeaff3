import math

import numpy as np
import pytest

from ddrobust import (
    CeLqrMap,
    StabilityError,
    bauer_fike_check,
    collect,
    fd_jacobian,
    jmax_envelope,
    q_function,
    theorem1_bounds,
    theorem2_rate,
    variance_params,
    vehicle_model,
)
from ddrobust import bounds
from ddrobust.cli import EPS_FLOOR
from ddrobust.mc import random_support
from ddrobust.sensitivity import B_SOURCE_TRUE, JacobianBundle


def synthetic_bundle(bj_stack) -> JacobianBundle:
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


def vehicle_bundle(t_steps=200, k=50, seed=0):
    sys = vehicle_model(0.1)
    data = collect(sys, 1, t_steps, seed=seed)
    support = random_support(data.p, k, np.random.default_rng(seed + 100))
    bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
    a_cl = sys.a + sys.b @ CeLqrMap().evaluate(data)
    return bundle, a_cl


class TestVarianceParams:
    def test_identity_product_single_index(self):
        bundle = synthetic_bundle(np.stack([np.eye(3)]))
        v_bar, v_lower = variance_params(bundle, np.array([1.0]))
        assert v_bar == pytest.approx(1.0, abs=1e-14)
        assert v_lower == pytest.approx(9.0, abs=1e-14)

    def test_zero_sigmas_boundary(self):
        bundle = synthetic_bundle(np.stack([np.eye(2), 2.0 * np.eye(2)]))
        assert variance_params(bundle, np.zeros(2)) == (0.0, 0.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(15)
        bj = rng.standard_normal((3, 4, 4))
        bundle = synthetic_bundle(bj)
        sigmas = np.array([0.3, 1.1, 0.7])
        v_bar, v_lower = variance_params(bundle, sigmas)

        left = sum(s**2 * m @ m.T for s, m in zip(sigmas, bj))
        right = sum(s**2 * m.T @ m for s, m in zip(sigmas, bj))
        oracle_bar = max(np.linalg.norm(left, 2), np.linalg.norm(right, 2))
        oracle_lower = sum(s**2 * np.trace(m) ** 2 for s, m in zip(sigmas, bj))
        assert v_bar == pytest.approx(oracle_bar, abs=1e-12)
        assert v_lower == pytest.approx(oracle_lower, abs=1e-12)


class TestTheorem1:
    def test_zero_variance_limits(self):
        a_cl = np.diag([0.5, 0.25])
        report = theorem1_bounds(a_cl, 0.0, 0.0)
        assert report.upper_raw == 0.0
        assert report.lower == 0.0  # |mu| < n: both Q arguments are +inf

    def test_huge_variance_saturates_lower(self):
        report = theorem1_bounds(np.diag([0.5, 0.25]), 1.0, 1e16)
        assert 1.0 - 1e-6 <= report.lower <= 1.0

    def test_zero_trace_symmetry(self):
        a_cl = np.array([[0.0, 0.5], [0.5, 0.0]])
        v_lower = 0.7
        report = theorem1_bounds(a_cl, 0.1, v_lower)
        assert report.mu == pytest.approx(0.0, abs=1e-15)
        assert report.lower == pytest.approx(2.0 * q_function(2.0 / math.sqrt(v_lower)),
                                             abs=1e-15)

    def test_underflowed_tail_is_reported_as_computed(self):
        # (n - mu)/sqrt(v) = 9 puts the sum of tails near 1e-19, below the
        # floor that fig1 plots at, and the report keeps it as computed.
        a_cl = np.diag([0.5, 0.5])
        report = theorem1_bounds(a_cl, 1e-6, (1.0 / 9.0) ** 2)
        assert report.lower == pytest.approx(q_function(9.0) + q_function(27.0), rel=1e-12)
        assert 0 < report.lower < EPS_FLOOR

    def test_upper_clamping_keeps_raw(self):
        a_cl = np.diag([0.9, 0.8])
        report = theorem1_bounds(a_cl, 50.0, 1.0)
        assert report.upper_raw > 1.0
        assert report.upper_clamped == 1.0

    def test_rejects_unstable_nominal(self):
        with pytest.raises(StabilityError):
            theorem1_bounds(np.eye(2), 0.1, 0.1)

    def test_rejects_singular_nominal(self):
        # Stable but singular: the condition number is infinite.
        with pytest.raises(StabilityError, match="A_cl is singular"):
            theorem1_bounds(np.diag([0.5, 0.0]), 0.1, 0.1)

    def test_lower_monotone_in_sigma(self):
        bundle, a_cl = vehicle_bundle(t_steps=80, k=10)
        lowers = []
        for sigma in [1.0, 2.0, 4.0, 8.0]:
            v_bar, v_lower = variance_params(bundle, np.full(10, sigma))
            lowers.append(theorem1_bounds(a_cl, v_bar, v_lower).lower)
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))

    def test_upper_monotone_in_v_bar(self):
        a_cl = np.diag([0.5, 0.25])
        uppers = [theorem1_bounds(a_cl, v, 0.1).upper_raw for v in (0.01, 0.1, 1.0)]
        assert uppers[0] < uppers[1] < uppers[2]

    def test_report_serializes(self):
        report = theorem1_bounds(np.diag([0.5, 0.25]), 0.1, 0.1)
        doc = report.to_json()
        assert set(doc) == {"v_bar", "v_lower", "kappa", "mu", "rho_nominal", "lower",
                            "upper_raw", "upper_clamped", "n"}
        assert doc["rho_nominal"] == pytest.approx(0.5)


class TestTheorem2:
    def test_identity_with_erf_form(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(2, 5))
            bj = rng.standard_normal((k, n, n))
            sigmas = rng.uniform(0.05, 2.0, size=k)
            bundle = synthetic_bundle(bj)
            rate = theorem2_rate(bundle, sigmas)
            erf_form = 1.0 - math.erf(
                1.0 / math.sqrt(0.5 * rate.gamma**2 * rate.support_size))
            assert rate.bound == pytest.approx(erf_form, abs=1e-12)

    def test_zero_gamma_zero_bound(self):
        bj = np.stack([np.diag([1.0, 0.0])])  # min diagonal entry is zero
        rate = theorem2_rate(synthetic_bundle(bj), np.array([0.5]))
        assert rate.gamma == 0.0
        assert rate.bound == 0.0

    def test_bound_grows_with_support(self):
        bounds = []
        for k in (4, 100, 4000):
            bj = np.stack([np.eye(2)] * k)
            rate = theorem2_rate(synthetic_bundle(bj), np.full(k, 0.1))
            bounds.append(rate.bound)
        assert bounds[0] < bounds[1] < bounds[2] < 1.0

    def test_chain_inequality_on_aligned_signs(self):
        # All products equal to the identity: v_lower equals n^2 gamma^2 k,
        # the boundary case the derivation presumes.
        k, n = 5, 3
        bj = np.stack([np.eye(n)] * k)
        bundle = synthetic_bundle(bj)
        sigmas = np.full(k, 0.3)
        rate = theorem2_rate(bundle, sigmas)
        assert rate.chain_holds
        _, v_lower = variance_params(bundle, sigmas)
        assert rate.bound <= 2.0 * q_function(2.0 * n / math.sqrt(v_lower)) + 1e-15

    def test_chain_inequality_fails_on_mixed_signs(self):
        bj = np.stack([np.diag([1.0, -3.0])])
        rate = theorem2_rate(synthetic_bundle(bj), np.array([1.0]))
        assert not rate.chain_holds


class TestJmaxEnvelope:
    def test_single_index_dominates(self):
        bj = np.stack([np.array([[0.5, 0.1], [0.0, 0.2]])])
        bundle = synthetic_bundle(bj)
        sigmas = np.array([0.7])
        env = jmax_envelope(bundle, sigmas)
        v_bar, _ = variance_params(bundle, sigmas)
        assert v_bar <= env.envelope + 1e-10
        assert env.envelope == pytest.approx(0.7**2 * env.j_max**2, abs=1e-14)

    def test_homogeneous_in_sigma(self):
        rng = np.random.default_rng(8)
        bundle = synthetic_bundle(rng.standard_normal((4, 3, 3)))
        sigmas = rng.uniform(0.1, 1.0, size=4)
        env1 = jmax_envelope(bundle, sigmas)
        env2 = jmax_envelope(bundle, 2.0 * sigmas)
        assert env2.envelope == pytest.approx(4.0 * env1.envelope, rel=1e-14)

    def test_holds_on_vehicle_bundle(self):
        bundle, _ = vehicle_bundle(t_steps=120, k=20)
        sigmas = np.full(20, 0.05)
        env = jmax_envelope(bundle, sigmas)
        v_bar, _ = variance_params(bundle, sigmas)
        assert v_bar <= env.envelope + 1e-10

    def test_single_index_at_large_sigma(self):
        # With one support entry v_bar equals the envelope in exact
        # arithmetic. Both scale as sigma^2, so at sigma = 1e6 they differ by
        # ulps far above 1e-10, and that rounding is no violation.
        rng = np.random.default_rng(12)
        for _ in range(20):
            env = jmax_envelope(synthetic_bundle(rng.standard_normal((1, 3, 3))), [1e6])
            assert env.v_bar == pytest.approx(env.envelope, rel=1e-14)

    def test_violation_raises(self, monkeypatch):
        bundle = synthetic_bundle(np.stack([np.array([[0.5, 0.1], [0.0, 0.2]])]))
        original = bounds.variance_params

        def inflated(bundle, sigmas):
            v_bar, v_lower = original(bundle, sigmas)
            return v_bar * (1.0 + 1e-8), v_lower

        monkeypatch.setattr(bounds, "variance_params", inflated)
        with pytest.raises(ArithmeticError, match="envelope violated"):
            jmax_envelope(bundle, np.array([0.7]))


class TestBauerFike:
    @staticmethod
    def deltas(count, n, scale, seed):
        rng = np.random.default_rng(seed)
        return [scale * rng.standard_normal((n, n)) for _ in range(count)]

    def test_zero_delta(self):
        a_cl = np.array([[0.3, 0.2], [0.2, 0.1]])
        result = bauer_fike_check(a_cl, [np.zeros((2, 2))])
        assert result.violations_kappa_v == 0

    def test_normal_matrix_unit_condition(self):
        a_cl = np.array([[0.3, 0.2], [0.2, 0.1]])  # symmetric, kappa(V) = 1
        result = bauer_fike_check(a_cl, self.deltas(1000, 2, 0.2, seed=1))
        assert result.kappa_v == pytest.approx(1.0, abs=1e-8)
        assert result.violations_kappa_v == 0

    def test_vehicle_closed_loop_no_violations(self):
        _, a_cl = vehicle_bundle(t_steps=200, k=5)
        result = bauer_fike_check(a_cl, self.deltas(1000, 4, 0.1, seed=2))
        assert result.samples == 1000
        assert result.violations_kappa_v == 0
        assert 0 <= result.violations_kappa_paper <= 1000

    @pytest.mark.parametrize("delta", [np.full((2, 2), np.nan), np.zeros((3, 3)),
                                       np.zeros((1, 1)), np.zeros(4)],
                             ids=["nan", "too-large", "broadcastable", "flat"])
    def test_delta_must_be_a_finite_matrix_of_the_loop_shape(self, delta):
        a_cl = np.array([[0.3, 0.2], [0.2, 0.1]])
        with pytest.raises(ValueError):
            bauer_fike_check(a_cl, [np.zeros((2, 2)), delta])

    def test_defective_matrix_rejected(self):
        with pytest.raises(ValueError):
            bauer_fike_check(np.array([[1.0, 1.0], [0.0, 1.0]]), [])
