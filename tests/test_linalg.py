import math

import numpy as np
import pytest

from conftest import (
    char_poly_roots_3x3,
    gauss_inverse,
    match_complex_sets,
    power_norm,
    q_quadrature,
)
from ddrobust.linalg import (
    EPS_FLOOR,
    EigensolverError,
    as_matrix,
    condition_number_spectral,
    eigenvalues,
    pseudoinverse,
    q_function,
    spectral_norm,
    spectral_radius,
    vec,
    vec_inverse,
)


class TestVec:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_scalar_matrix(self):
        assert np.array_equal(vec(np.array([[5.0]])), [5.0])

    def test_round_trip_random_shapes(self):
        rng = np.random.default_rng(0)
        for rows, cols in [(3, 2), (1, 7), (5, 5), (2, 1)]:
            m = rng.standard_normal((rows, cols))
            assert np.array_equal(vec_inverse(vec(m), rows, cols), m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vec_inverse(np.zeros(5), 2, 3)


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


class TestNorms:
    def test_identity_norm_and_condition(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
        assert condition_number_spectral(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_case(self):
        d = np.diag([2.0, 0.5])
        assert spectral_norm(d) == pytest.approx(2.0, abs=1e-14)
        assert condition_number_spectral(d) == pytest.approx(4.0, abs=1e-12)

    def test_singular_condition_is_infinite(self):
        assert math.isinf(condition_number_spectral(np.diag([1.0, 0.0])))

    def test_spectral_norm_vs_power_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.standard_normal((4, 3))
            assert spectral_norm(m) == pytest.approx(power_norm(m), abs=1e-8)

    def test_condition_vs_gauss_inverse_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            m = rng.standard_normal((4, 4))
            kappa = condition_number_spectral(m)
            if kappa > 1e6:
                continue
            oracle = power_norm(m) * power_norm(gauss_inverse(m))
            assert kappa == pytest.approx(oracle, rel=1e-8)
            checked += 1

    def test_radius_bounded_by_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.standard_normal((4, 4))
            assert spectral_radius(m) <= spectral_norm(m) + 1e-12

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


    def test_stack_is_one_pinv_per_item(self):
        rng = np.random.default_rng(19)
        stack = np.stack([rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6)),
                          rng.standard_normal((4, 6))])
        pinvs, ranks = pseudoinverse(stack)
        assert ranks.tolist() == [2, 4]
        for m, p in zip(stack, pinvs):
            assert np.array_equal(p, pseudoinverse(m)[0])


class TestSpectralRadii:
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


def test_eps_floor_value():
    assert EPS_FLOOR == 2.2e-16


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]), "M")
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]), "M")
