import math
import re

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
    theorem1_sweep,
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

    @pytest.mark.parametrize("with_b, sigmas, message", [
        (False, [1.0, 1.0], "bundle has no B attached; call with_b first"),
        (True, [1.0], "need 2 sigmas, got 1"),
    ], ids=["no-b", "sigma-count"])
    def test_refuses_with_its_reason(self, with_b, sigmas, message):
        bundle = synthetic_bundle(np.stack([np.eye(2), np.eye(2)]))
        if not with_b:
            bundle = JacobianBundle(support=bundle.support, columns=bundle.columns,
                                    fd_steps=bundle.fd_steps, m=2, n=2, failures={})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            variance_params(bundle, sigmas)


def trace_pair(c, d) -> JacobianBundle:
    """The 2x2 bundle of c I and d diag(1, -1): at scale 1, v_bar = c^2 + d^2
    and v_lower = 4 c^2."""
    return synthetic_bundle(np.stack([c * np.eye(2), d * np.diag([1.0, -1.0])]))


def report_at_unit_scale(a_cl, c, d):
    return theorem1_sweep(a_cl, trace_pair(c, d), [1.0])[0]


class TestTheorem1:
    def test_zero_variance_limits(self):
        a_cl = np.diag([0.5, 0.25])
        report = report_at_unit_scale(a_cl, 0.0, 0.0)
        assert (report.v_bar, report.v_lower) == (0.0, 0.0)
        assert report.upper_raw == 0.0
        assert report.lower == 0.0  # |mu| < n: both Q arguments are +inf

    def test_huge_variance_saturates_lower(self):
        report = report_at_unit_scale(np.diag([0.5, 0.25]), 5e7, 0.0)
        assert report.v_lower == 1e16
        assert 1.0 - 1e-6 <= report.lower <= 1.0

    def test_zero_trace_symmetry(self):
        a_cl = np.array([[0.0, 0.5], [0.5, 0.0]])
        report = report_at_unit_scale(a_cl, 0.375, 0.0)
        v_lower = 4.0 * 0.375**2
        assert report.v_lower == v_lower
        assert report.mu == pytest.approx(0.0, abs=1e-15)
        assert report.lower == pytest.approx(2.0 * q_function(2.0 / math.sqrt(v_lower)),
                                             abs=1e-15)

    def test_underflowed_tail_is_reported_as_computed(self):
        # (n - mu)/sqrt(v) = 9 puts the sum of tails near 1e-19, below the
        # floor that fig1 plots at, and the report keeps it as computed.
        a_cl = np.diag([0.5, 0.5])
        report = report_at_unit_scale(a_cl, 1.0 / 18.0, 0.0)
        assert report.v_lower == pytest.approx((1.0 / 9.0) ** 2, rel=1e-15)
        assert report.lower == pytest.approx(q_function(9.0) + q_function(27.0), rel=1e-12)
        assert 0 < report.lower < EPS_FLOOR

    def test_upper_clamping_keeps_raw(self):
        a_cl = np.diag([0.9, 0.8])
        report = report_at_unit_scale(a_cl, 0.5, 7.0)
        assert report.v_bar == 49.25
        assert report.upper_raw > 1.0
        assert report.upper_clamped == 1.0

    def test_rejects_unstable_nominal(self):
        with pytest.raises(StabilityError):
            report_at_unit_scale(np.eye(2), 0.1, 0.1)

    def test_rejects_singular_nominal(self):
        # Stable but singular: the condition number is infinite.
        with pytest.raises(StabilityError, match="A_cl is singular"):
            report_at_unit_scale(np.diag([0.5, 0.0]), 0.1, 0.1)

    def test_lower_monotone_in_sigma(self):
        bundle, a_cl = vehicle_bundle(t_steps=80, k=10)
        lowers = [report.lower for report in theorem1_sweep(a_cl, bundle, [1.0, 2.0, 4.0, 8.0])]
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))

    def test_upper_monotone_in_v_bar(self):
        a_cl = np.diag([0.5, 0.25])
        uppers = [report_at_unit_scale(a_cl, 0.05, d).upper_raw for d in (0.0, 0.3, 1.0)]
        assert uppers[0] < uppers[1] < uppers[2]

    def test_report_serializes(self):
        report = report_at_unit_scale(np.diag([0.5, 0.25]), 0.1, 0.1)
        doc = report.to_json()
        assert set(doc) == {"v_bar", "v_lower", "kappa", "mu", "rho_nominal", "lower",
                            "upper_raw", "upper_clamped", "n"}
        assert doc["rho_nominal"] == pytest.approx(0.5)


class TestTheorem1Sweep:
    SCALES = (1e-5, 1e-3, 0.1, 1.0, 30.0)

    @staticmethod
    def oracle(a_cl, bundle, scale) -> dict:
        """Theorem 1's report at sigmas all ``scale``, written out from its formulas."""
        v_bar, v_lower = variance_params(bundle, np.full(bundle.size, scale))
        n = a_cl.shape[0]
        mu = np.trace(a_cl)
        rho = np.max(np.abs(np.linalg.eigvals(a_cl)))
        kappa = np.linalg.cond(a_cl)
        upper_raw = 2.0 * n * math.exp(-((1.0 - rho) ** 2) / (2.0 * v_bar * kappa**2))
        return {
            "v_bar": v_bar,
            "v_lower": v_lower,
            "kappa": kappa,
            "mu": mu,
            "rho_nominal": rho,
            "lower": (q_function((n + mu) / math.sqrt(v_lower))
                      + q_function((n - mu) / math.sqrt(v_lower))),
            "upper_raw": upper_raw,
            "upper_clamped": min(1.0, upper_raw),
            "n": n,
        }

    def assert_equals_oracle(self, a_cl, bundle):
        reports = theorem1_sweep(a_cl, bundle, self.SCALES)
        assert len(reports) == len(self.SCALES)
        for scale, report in zip(self.SCALES, reports):
            assert report.to_json() == pytest.approx(self.oracle(a_cl, bundle, scale),
                                                     rel=1e-14, abs=0.0)

    def test_equals_oracle_on_the_vehicle_bundle(self):
        bundle, a_cl = vehicle_bundle(t_steps=80, k=10)
        self.assert_equals_oracle(a_cl, bundle)

    def test_equals_oracle_on_synthetic_bundles(self):
        rng = np.random.default_rng(21)
        a_cl = np.array([[0.6, 0.2], [-0.1, 0.3]])
        for _ in range(10):
            self.assert_equals_oracle(a_cl, synthetic_bundle(rng.standard_normal((3, 2, 2))))

    def test_calls_variance_params_once_per_scale(self, monkeypatch):
        bundle, a_cl = vehicle_bundle(t_steps=80, k=10)
        calls = []
        original = bounds.variance_params
        monkeypatch.setattr(bounds, "variance_params",
                            lambda *args: calls.append(args) or original(*args))
        theorem1_sweep(a_cl, bundle, self.SCALES)
        assert len(calls) == len(self.SCALES)

    @pytest.mark.parametrize("a_cl, message", [
        (np.eye(2), "nominal closed loop is not stable: rho = 1"),
        (np.diag([0.5, 0.0]), "A_cl is singular; its condition number is undefined"),
    ], ids=["unstable", "singular"])
    def test_refuses_the_loop_before_any_scale(self, a_cl, message):
        bundle = synthetic_bundle(np.stack([np.eye(2)]))
        # Refused once, before any scale, so an empty sweep refuses too.
        for scales in (self.SCALES, ()):
            with pytest.raises(StabilityError) as got:
                theorem1_sweep(a_cl, bundle, scales)
            assert str(got.value) == message

    def test_refuses_a_broken_envelope_as_jmax_envelope_does(self, monkeypatch):
        bundle = synthetic_bundle(np.stack([np.array([[0.5, 0.1], [0.0, 0.2]])]))
        original = bounds.variance_params

        def inflated(bundle, sigmas):
            v_bar, v_lower = original(bundle, sigmas)
            return v_bar * (1.0 + 1e-8), v_lower

        monkeypatch.setattr(bounds, "variance_params", inflated)
        with pytest.raises(bounds.EnvelopeError) as expected:
            jmax_envelope(bundle, np.array([0.7]))
        with pytest.raises(bounds.EnvelopeError) as got:
            theorem1_sweep(np.diag([0.5, 0.25]), bundle, [0.7])
        assert str(got.value) == str(expected.value)


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


class TestJmax:
    """j_max screens items by Frobenius norm before its SVD; the maximum must
    be the float of the whole stack's SVD."""

    @staticmethod
    def assert_matches_full_svd(bj):
        bj = np.asarray(bj, dtype=float)
        full = np.linalg.svd(bj, compute_uv=False)[:, 0].max()
        assert bounds.j_max(synthetic_bundle(bj)) == full

    @staticmethod
    def rotated(diagonals, seed):
        """Items Q diag(s) Q' with random orthogonal Q: sigma_max = max |s|."""
        rng = np.random.default_rng(seed)
        n = len(diagonals[0])
        items = []
        for s in diagonals:
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            items.append(q @ np.diag(s) @ q.T)
        return np.stack(items)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_stacks(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            k = int(rng.integers(1, 60))
            scales = np.exp(rng.uniform(-2.0, 2.0, size=k))[:, None, None]
            self.assert_matches_full_svd(scales * rng.standard_normal((k, n, n)))

    def test_zero_and_one_item_stacks(self):
        self.assert_matches_full_svd(np.zeros((5, 3, 3)))
        self.assert_matches_full_svd(np.random.default_rng(4).standard_normal((1, 4, 4)))

    def test_rank_one_items(self):
        # ||M||_F = sigma_max, the top of the interval.
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((2, 30, 4))
        self.assert_matches_full_svd(u[:, :, None] * v[:, None, :])

    def test_equal_frobenius_norms(self):
        # Each diagonal has norm 1, from sigma_max = 1 down to 1 / 2.
        diagonals = [[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], [0.8, 0.6, 0, 0],
                     [0.6, 0.6, 0.4, 0.34641016151377546]]
        self.assert_matches_full_svd(self.rotated(diagonals, seed=6))

    def test_item_at_the_cut(self):
        # Item 0 is c I, so its ||M||_F / sqrt(n) = sigma_max = c; the
        # rank-one item 1 has ||M||_F = sigma_max = c too and ties it. On
        # this seed item 1's computed norm falls an ulp below the cut, and
        # its computed sigma_max an ulp above c.
        rng = np.random.default_rng(23)
        c, n = 0.7, 4
        u, v = (x / np.linalg.norm(x) for x in rng.standard_normal((2, n)))
        stack = np.stack([c * np.eye(n), c * np.outer(u, v), 0.1 * rng.standard_normal((n, n))])
        self.assert_matches_full_svd(stack)
        self.assert_matches_full_svd(stack[[1, 0, 2]])

    def test_vehicle_bundle(self):
        bundle, _ = vehicle_bundle()
        assert bounds.j_max(bundle) == np.linalg.svd(bundle.bj, compute_uv=False)[:, 0].max()


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
