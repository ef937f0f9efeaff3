import math
import re

import numpy as np
import pytest

from conftest import (
    char_poly_roots_3x3,
    gauss_inverse,
    match_complex_sets,
    power_norm,
    q_quadrature,
    spy_eigvals,
)
from ddrobust.bounds import theorem1_sweep, variance_params
from ddrobust.linalg import (
    EigensolverError,
    as_matrix,
    eigenvalues,
    pseudoinverse,
    q_function,
    spectral_radius,
    unstable,
)
from ddrobust.sensitivity import B_SOURCE_TRUE, JacobianBundle


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues(np.eye(2))
        assert spec.spectral_radius == 1.0
        assert sorted(ev.real for ev in spec.eigenvalues) == [1.0, 1.0]

    def test_vehicle_a_is_marginal(self):
        # Upper triangular with unit diagonal: the spectrum is the diagonal.
        from ddrobust import vehicle_model

        assert eigenvalues(vehicle_model(0.1).a).spectral_radius == pytest.approx(1.0, abs=1e-12)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = rng.standard_normal((3, 3))
            spec = eigenvalues(m)
            match_complex_sets(spec.eigenvalues, char_poly_roots_3x3(m), 1e-8)

    def test_diagonalizable_flag(self):
        sym = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert eigenvalues(sym).diagonalizable
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert not eigenvalues(jordan).diagonalizable

    def test_kappa_v_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = eigenvalues(rng.standard_normal((4, 4)))
            assert spec.kappa_v >= 1.0 - 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[1.0, np.nan], [0.0, 1.0]]))


def one_entry_bundle(bj) -> JacobianBundle:
    """A bundle on one support entry whose B J product is the square ``bj``."""
    n = len(bj)
    bundle = JacobianBundle(support=np.arange(1), columns=np.reshape(bj, (-1, 1), order="F"),
                            fd_steps=np.ones(1), m=n, n=n, failures={})
    return bundle.with_b(np.eye(n), B_SOURCE_TRUE)


def kappa(m) -> float:
    """The condition number theorem1_sweep reports for the loop m, scaled
    to rho = 1/2 (kappa is scale-free)."""
    bundle = one_entry_bundle(np.zeros((len(m), len(m))))
    return theorem1_sweep(m / (2.0 * spectral_radius(m)), bundle, [1.0])[0].kappa


class TestNorms:
    """The spectral norm and condition number that the bounds take from numpy."""

    def test_identity_norm_and_condition(self):
        assert variance_params(one_entry_bundle(np.eye(3)), [1.0])[0] == pytest.approx(
            1.0, abs=1e-14)
        assert kappa(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_case(self):
        d = np.diag([2.0, 0.5])
        assert variance_params(one_entry_bundle(d), [1.0])[0] == pytest.approx(4.0, abs=1e-14)
        assert kappa(d) == pytest.approx(4.0, abs=1e-12)

    def test_spectral_norm_vs_power_iteration(self):
        # One entry at sigma: v_bar = sigma^2 ||BJ||^2.
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            v_bar, _ = variance_params(one_entry_bundle(m), [0.5])
            assert v_bar == pytest.approx(0.25 * power_norm(m) ** 2, rel=1e-8)

    def test_condition_vs_gauss_inverse_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            m = rng.standard_normal((4, 4))
            oracle = power_norm(m) * power_norm(gauss_inverse(m))
            if oracle > 1e6:
                continue
            assert kappa(m) == pytest.approx(oracle, rel=1e-8)
            checked += 1

    def test_radius_bounded_by_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.standard_normal((4, 4))
            assert spectral_radius(m) <= np.linalg.norm(m, 2) + 1e-12

    def test_gram_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = rng.standard_normal((3, 5))
            for ev in eigenvalues(m.T @ m).eigenvalues:
                assert ev.real >= -1e-10


class TestPseudoinverse:
    def test_identity(self):
        pinv, rank = pseudoinverse(np.eye(3))
        assert np.allclose(pinv, np.eye(3), atol=1e-14)
        assert rank == 3

    def test_rank_deficient_diagonal(self):
        pinv, rank = pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(pinv, np.diag([0.5, 0.0]), atol=1e-14)
        assert rank == 1

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(13)
        shapes = [(5, 3, 3), (3, 5, 2), (4, 4, 2), (6, 2, 2)]
        for rows, cols, rank in shapes:
            m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            p, r = pseudoinverse(m)
            assert r == rank
            assert np.allclose(m @ p @ m, m, atol=1e-8)
            assert np.allclose(p @ m @ p, p, atol=1e-8)
            assert np.allclose((m @ p).T, m @ p, atol=1e-8)
            assert np.allclose((p @ m).T, p @ m, atol=1e-8)

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.standard_normal((5, 3))
            oracle = gauss_inverse(m.T @ m) @ m.T
            assert np.allclose(pseudoinverse(m)[0], oracle, atol=1e-7)


class TestSpectralRadii:
    @pytest.mark.parametrize("shape", [(2, 3), (5, 2, 3)], ids=["matrix", "stack"])
    def test_refuses_non_square_matrices(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"spectral_radius requires square matrices, got {shape}")):
            spectral_radius(np.zeros(shape))

    def test_matches_spectral_radius(self):
        stack = np.random.default_rng(21).standard_normal((5, 3, 3))
        rho = spectral_radius(stack)
        assert rho.tolist() == [spectral_radius(m) for m in stack]

    def test_non_finite_item_masked(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.inf), 0.5 * np.eye(2)])
        rho = spectral_radius(stack)
        assert rho[0] == 1.0 and np.isnan(rho[1]) and rho[2] == 0.5

    def test_eigensolver_failure_masks_its_item_alone(self, monkeypatch):
        # numpy fails the whole stack when one item does not converge; the
        # marked matrix plays that item here.
        eigvals = np.linalg.eigvals

        def failing_eigvals(a):
            if np.any(a == 7.0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        stack = np.stack([0.5 * np.eye(2), np.full((2, 2), 7.0), 2.0 * np.eye(2),
                          np.eye(2)])
        rho = spectral_radius(stack)
        assert np.isnan(rho[1])
        assert rho[[0, 2, 3]].tolist() == [0.5, 2.0, 1.0]
        # One matrix is no stack: its failure raises.
        with pytest.raises(EigensolverError):
            spectral_radius(stack[1])


def radius_verdict(stack):
    """What ``unstable`` must return: spectral_radius >= 1, NaN where rho is NaN."""
    rho = spectral_radius(stack)
    return np.where(np.isnan(rho), np.nan, rho >= 1.0)


def on_the_edge(stack, deltas):
    """Each matrix scaled to rho = 1 + d for every d of ``deltas``."""
    unit = stack / spectral_radius(stack)[:, None, None]
    return np.concatenate([unit * (1.0 + d) for d in deltas])


def repeated(*items):
    """The items, stacked and repeated 8 times: enough for the polynomial test."""
    return np.tile(np.stack(items), (8, 1, 1))


EDGE = np.concatenate([-np.logspace(-16, -3, 27), [0.0], np.logspace(-16, -3, 27)])


class TestUnstable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_stacks_match_the_radius(self, n):
        # At large scales the power sums tr(A^k) grow like ||A||^k and cancel
        # in Newton's identities; the margin, ~||A||_F^n, must cover that.
        rng = np.random.default_rng(30 + n)
        for count, scale in [(2000, 0.3), (2000, 1.0), (2000, 3.0), (10, 1.0),
                             (2000, 10.0), (2000, 1e3), (2000, 1e5)]:
            stack = rng.standard_normal((count, n, n)) * scale / math.sqrt(n)
            np.testing.assert_array_equal(unstable(stack), radius_verdict(stack))

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cancelling_power_sums_near_the_edge(self, n, cond):
        # Real spectra of both signs and complex pairs, behind eigenvectors of
        # condition number cond, scaled to rho = 1 +- 1e-7 and 1 +- 1e-3.
        rng = np.random.default_rng(80 + n)
        count = 250
        u = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        basis = u * np.logspace(0, math.log10(cond), n) @ v
        lam = rng.uniform(-1.0, 1.0, (count, n))
        for inner in (basis * lam[:, None, :], basis @ rng.standard_normal((count, n, n))):
            stack = on_the_edge(inner @ np.linalg.inv(basis), [-1e-3, -1e-7, 1e-7, 1e-3])
            np.testing.assert_array_equal(unstable(stack), radius_verdict(stack))

    def test_vehicle_lqr_loop_on_the_edge(self):
        # Each eigenvalue of this loop is double.
        from ddrobust import LqrWeights, lqr_gain, vehicle_model

        sys = vehicle_model(0.1)
        w = LqrWeights.identity(4, 2)
        stack = on_the_edge((sys.a + sys.b @ lqr_gain(sys.a, sys.b, w.q, w.r))[None], EDGE)
        np.testing.assert_array_equal(unstable(stack), radius_verdict(stack))

    def test_jordan_block_on_the_edge(self):
        stack = on_the_edge((np.eye(4) + np.eye(4, k=1))[None], EDGE)
        np.testing.assert_array_equal(unstable(stack), radius_verdict(stack))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonal_matrices_on_the_edge(self, n):
        q = np.linalg.qr(np.random.default_rng(40 + n).standard_normal((40, n, n)))[0]
        stack = on_the_edge(q, EDGE)
        np.testing.assert_array_equal(unstable(stack), radius_verdict(stack))

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    def test_ill_conditioned_eigenvectors_on_the_edge(self, cond):
        # Large entries around a spectrum near |z| = 1: the characteristic
        # polynomial's rounding error grows with ||A||^n, and the margin with it.
        rng = np.random.default_rng(50)
        n, count = 4, 300
        u = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        basis = u * np.logspace(0, math.log10(cond), n) @ v
        lam = rng.uniform(-1.0, 1.0, (count, n))
        stack = basis * lam[:, None, :] @ np.linalg.inv(basis)
        stack = on_the_edge(stack, [-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
        np.testing.assert_array_equal(unstable(stack), radius_verdict(stack))

    def test_non_finite_item_is_nan(self):
        stack = repeated(0.5 * np.eye(2), np.full((2, 2), np.nan),
                         np.array([[1.0, np.inf], [0.0, 0.5]]), 2.0 * np.eye(2))
        np.testing.assert_array_equal(unstable(stack).reshape(-1, 4),
                                      np.tile([0.0, np.nan, np.nan, 1.0], (8, 1)))

    def test_finite_item_whose_radius_overflows_is_unstable(self):
        stack = repeated(np.full((2, 2), 1e308), 0.5 * np.eye(2))
        assert np.isinf(spectral_radius(stack)[0])
        assert unstable(stack).tolist() == [1.0, 0.0] * 8

    def test_eigensolver_failure_masks_its_item_alone(self, monkeypatch):
        # Only an item on the edge reaches eigvals, and so can fail there:
        # the marked one has eigenvalues +-1.
        eigvals = np.linalg.eigvals

        def failing_eigvals(a):
            if np.any(a == 7.0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        stack = repeated(0.5 * np.eye(2), np.array([[0.0, 7.0], [1.0 / 7.0, 0.0]]),
                         2.0 * np.eye(2), np.eye(2))
        verdict = unstable(stack)
        np.testing.assert_array_equal(verdict.reshape(-1, 4),
                                      np.tile([0.0, np.nan, 1.0, 1.0], (8, 1)))
        np.testing.assert_array_equal(verdict, radius_verdict(stack))

    @pytest.mark.parametrize("count, n, reaching", [(500, 4, 0), (15, 4, 15), (500, 5, 500)])
    def test_what_reaches_eigvals(self, monkeypatch, count, n, reaching):
        # No item of these stacks is near |z| = 1; larger n and stacks of
        # fewer than 16 items go to eigvals whole.
        stack = np.random.default_rng(60).standard_normal((count, n, n)) / math.sqrt(n)
        expected = radius_verdict(stack)
        items = spy_eigvals(monkeypatch)
        np.testing.assert_array_equal(unstable(stack), expected)
        assert sum(items) == reaching

    def test_refuses_one_matrix(self):
        with pytest.raises(ValueError):
            unstable(np.eye(2))


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_limits(self):
        assert q_function(math.inf) == 0.0
        assert q_function(-math.inf) == 1.0

    def test_tail_value(self):
        assert abs(q_function(1.6449) - 0.0500) <= 1e-4

    def test_against_quadrature(self):
        for x in [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.6449, 2.0, 3.0]:
            assert q_function(x) == pytest.approx(q_quadrature(x), abs=1e-10)

    def test_symmetry(self):
        for x in np.linspace(-4.0, 4.0, 33):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(-6.0, 6.0, 49)
        values = [q_function(x) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="^q_function is undefined for NaN$"):
            q_function(math.nan)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]), "M")
    with pytest.raises(ValueError, match="^M must be non-empty$"):
        as_matrix(np.zeros((0, 2)), "M")
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]), "M")
