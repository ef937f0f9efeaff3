import re
from dataclasses import replace

import numpy as np
import pytest

from ddrobust import (
    LtiSystem,
    TrainingData,
    collect,
    simulate,
    vehicle_model,
)
from ddrobust.cli import _read_json, _write_json
from ddrobust.lti import snapshots


def zero_inputs(rng, m, t):
    return np.zeros((m, t))


class TestVehicleModel:
    def test_matrices(self):
        sys = vehicle_model(0.1)
        expected_a = np.array(
            [
                [1.0, 0.1, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.1],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        expected_b = np.array(
            [
                [0.0, 0.0],
                [0.1, 0.0],
                [0.0, 0.0],
                [0.0, 0.1],
            ]
        )
        assert np.array_equal(sys.a, expected_a)
        assert np.array_equal(sys.b, expected_b)
        assert (sys.n, sys.m) == (4, 2)

    def test_rejects_nonpositive_sampling(self):
        with pytest.raises(ValueError):
            vehicle_model(0.0)


def step_oracle(sys, x0, u):
    """x(t+1) = A x(t) + B u(t), one step at a time; returns x(1..T) as n x T."""
    states = np.empty((sys.n, u.shape[1]))
    x = np.asarray(x0, dtype=float)
    for t in range(u.shape[1]):
        x = sys.a @ x + sys.b @ u[:, t]
        states[:, t] = x
    return states


def random_plant(seed, n, m):
    rng = np.random.default_rng(seed)
    return LtiSystem(0.4 * rng.standard_normal((n, n)), rng.standard_normal((n, m)))


PLANTS = [
    pytest.param(vehicle_model(0.1), False, id="vehicle-x0-zero"),
    pytest.param(vehicle_model(0.1), True, id="vehicle-x0-nonzero"),
    pytest.param(LtiSystem(np.array([[0.9, 0.3], [-0.2, 0.7]]), np.array([[0.0], [1.0]])),
                 True, id="single-input"),
] + [pytest.param(random_plant(10 * n + m, n, m), True, id=f"random-n{n}-m{m}")
     for n in (3, 4, 5) for m in (2, 3)]


class TestSimulate:
    @pytest.mark.parametrize("sys, nonzero_x0", PLANTS)
    @pytest.mark.parametrize("t_steps", [1, 400])
    def test_matches_step_recursion_bit_for_bit(self, sys, nonzero_x0, t_steps):
        rng = np.random.default_rng(t_steps)
        x0 = rng.standard_normal(sys.n) if nonzero_x0 else np.zeros(sys.n)
        u = rng.standard_normal((sys.m, t_steps))
        states = simulate(sys, x0, u)
        assert states.shape == (sys.n, t_steps)
        assert np.array_equal(states, step_oracle(sys, x0, u))

    def test_zero_everything(self):
        sys = vehicle_model(0.1)
        states = simulate(sys, np.zeros(4), np.zeros((2, 5)))
        assert states.shape == (4, 5)
        assert np.array_equal(states, np.zeros((4, 5)))

    def test_vehicle_single_step(self):
        sys = vehicle_model(0.1)
        states = simulate(sys, np.zeros(4), np.array([[1.0], [0.0]]))
        assert np.array_equal(states[:, 0], [0.0, 0.1, 0.0, 0.0])

    def test_memoryless_plant(self):
        rng = np.random.default_rng(0)
        sys = LtiSystem(np.zeros((3, 3)), rng.standard_normal((3, 2)))
        u = rng.standard_normal((2, 6))
        states = simulate(sys, rng.standard_normal(3), u)
        for t in range(6):
            assert np.allclose(states[:, t], sys.b @ u[:, t], atol=1e-14)

    def test_prefix_of_longer_run_matches(self):
        rng = np.random.default_rng(1)
        sys = vehicle_model(0.1)
        u = rng.standard_normal((2, 10))
        full = simulate(sys, np.zeros(4), u)
        half = simulate(sys, np.zeros(4), u[:, :5])
        assert np.array_equal(full[:, :5], half)

    def test_dimension_mismatch(self):
        sys = vehicle_model(0.1)
        with pytest.raises(ValueError):
            simulate(sys, np.zeros(3), np.zeros((2, 4)))
        # Inputs are m x T only; a T x m or flat sequence is rejected.
        for u in (np.zeros((4, 2)), np.zeros(4)):
            with pytest.raises(ValueError):
                simulate(sys, np.zeros(4), u)


class TestCollect:
    def test_paper_scale_vector_length(self):
        data = collect(vehicle_model(0.1), 1, 500, seed=0)
        assert data.p == 2000
        assert data.x_vec.shape == (2000,)

    def test_seed_determinism(self):
        a = collect(vehicle_model(0.1), 2, 40, seed=9)
        b = collect(vehicle_model(0.1), 2, 40, seed=9)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.x, b.x)
        c = collect(vehicle_model(0.1), 2, 40, seed=10)
        assert not np.array_equal(a.x, c.x)

    @pytest.mark.parametrize("sys, nonzero_x0", PLANTS)
    @pytest.mark.parametrize("t_steps", [1, 150])
    def test_each_experiment_matches_step_recursion(self, sys, nonzero_x0, t_steps):
        x0 = np.linspace(-1.0, 1.0, sys.n) if nonzero_x0 else None
        data = collect(sys, 2, t_steps, seed=5, x0=x0)
        # The default input law draws each experiment's m x T block in turn.
        rng = np.random.default_rng(5)
        start = np.zeros(sys.n) if x0 is None else x0
        for i in range(2):
            u = rng.standard_normal((sys.m, t_steps))
            assert np.array_equal(data.u[:, i], u.flatten(order="F"))
            states = data.x[:, i].reshape((sys.n, t_steps), order="F")
            assert np.array_equal(states, step_oracle(sys, start, u))

    def test_default_initial_state_is_zero(self):
        data = collect(vehicle_model(0.1), 2, 10, seed=0)
        assert np.array_equal(data.x0s, np.zeros((4, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            collect(vehicle_model(0.1), 0, 10)

    def test_json_round_trip_exact(self):
        data = collect(vehicle_model(0.1), 2, 30, seed=4)
        back = TrainingData.from_json(data.to_json())
        assert np.array_equal(back.u, data.u)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.x0s, data.x0s)
        assert (back.t, back.n, back.m) == (data.t, data.n, data.m)

    @pytest.mark.parametrize("field, cut, message", [
        ("u", slice(-1), "U has 19 rows, expected m*T = 20"),
        ("x", (slice(None), [0, 0]), "U, X and x0s must have the same number of columns"),
        ("x0s", slice(-1), "x0s has 3 rows, expected n = 4"),
        ("x", slice(-1), "X has 39 rows, expected n*T = 40"),
    ], ids=["u-rows", "columns", "x0s-rows", "x-rows"])
    def test_record_of_inconsistent_shapes_is_refused(self, field, cut, message):
        data = collect(vehicle_model(0.1), 1, 10, seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(data, **{field: getattr(data, field)[cut]})

    def test_json_rejects_a_malformed_field(self):
        doc = collect(vehicle_model(0.1), 1, 5, seed=0).to_json()
        with pytest.raises(ValueError, match="^training record has a malformed field: "):
            TrainingData.from_json(doc | {"t": None})

    @pytest.mark.parametrize("field, value", [("t", 60.7), ("n", 4.0), ("m", "2")])
    def test_json_refuses_a_count_that_is_not_an_integer(self, tmp_path, field, value):
        # int() would load "t": 60.7 as a record of 60 steps.
        path = tmp_path / "data.json"
        _write_json(path, collect(vehicle_model(0.1), 1, 5, seed=0).to_json() | {field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: training record has "
                                             "a malformed field: "):
            _read_json(TrainingData, path)

    def test_json_rejects_other_selectors(self):
        doc = collect(vehicle_model(0.1), 1, 5, seed=0).to_json()
        assert doc["selector"] == {"kind": "full_trajectory"}
        with pytest.raises(ValueError, match="selector"):
            TrainingData.from_json(doc | {"selector": {"kind": "final_state"}})

    def test_save_load_round_trip(self, tmp_path):
        data = collect(vehicle_model(0.1), 1, 25, seed=8)
        path = tmp_path / "data.json"
        _write_json(path, data.to_json())
        back = _read_json(TrainingData, path)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.u, data.u)

    def test_with_x_vec_touches_one_entry(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=2)
        bumped = data.x_vec
        bumped[7] += 0.5
        other = data.with_x_vec(bumped)
        assert other.x[7, 0] == bumped[7]
        assert np.count_nonzero(other.x != data.x) == 1


class TestVecX:
    """vec(X) stacks the columns of X, one experiment after another."""

    @staticmethod
    def record(x, n, t) -> TrainingData:
        x = np.asarray(x, dtype=float)
        e = x.shape[1]
        return TrainingData(u=np.zeros((t, e)), x=x, x0s=np.zeros((n, e)), t=t, n=n, m=1)

    def test_column_stacking_order(self):
        data = self.record([[1.0, 2.0], [3.0, 4.0]], n=1, t=2)
        assert np.array_equal(data.x_vec, [1.0, 3.0, 2.0, 4.0])

    def test_scalar_record(self):
        assert np.array_equal(self.record([[5.0]], n=1, t=1).x_vec, [5.0])

    def test_round_trip_random_shapes(self):
        rng = np.random.default_rng(0)
        for n, t, e in [(3, 2, 2), (1, 7, 3), (4, 5, 4), (2, 1, 5)]:
            data = self.record(rng.standard_normal((n * t, e)), n=n, t=t)
            assert np.array_equal(data.with_x_vec(data.x_vec).x, data.x)
            v = rng.standard_normal(n * t * e)
            assert np.array_equal(data.with_x_vec(v).x_vec, v)

    def test_dimension_mismatch(self):
        data = self.record(np.zeros((6, 2)), n=3, t=2)
        with pytest.raises(ValueError):
            data.with_x_vec(np.zeros(11))


class TestSnapshots:
    def test_single_step_layout(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 1, seed=0, x0=np.array([1.0, 2.0, 3.0, 4.0]))
        x0, x1, u0 = snapshots(data)
        assert np.array_equal(x0[:, 0], [1.0, 2.0, 3.0, 4.0])
        assert x1.shape == (4, 1) and u0.shape == (2, 1)
        assert np.allclose(x1, sys.a @ x0 + sys.b @ u0, atol=1e-12)

    def test_consistency_identity(self):
        rng = np.random.default_rng(21)
        sys = LtiSystem(rng.standard_normal((3, 3)) * 0.4, rng.standard_normal((3, 2)))
        data = collect(sys, 1, 60, seed=5)
        x0, x1, u0 = snapshots(data)
        assert np.linalg.norm(x1 - sys.a @ x0 - sys.b @ u0) <= 1e-10

    def test_perturbed_entries_land_in_both_snapshots(self):
        data = collect(vehicle_model(0.1), 1, 5, seed=1)
        bump = data.x_vec
        bump[4] += 1.0  # first entry of x(2)
        x0, x1, _ = snapshots(data.with_x_vec(bump))
        x0_ref, x1_ref, _ = snapshots(data)
        assert x1[0, 1] - x1_ref[0, 1] == 1.0
        assert x0[0, 2] - x0_ref[0, 2] == 1.0

    def test_experiments_side_by_side(self):
        t = 6
        data = collect(vehicle_model(0.1), 3, t, seed=3)
        data = replace(data, x0s=np.arange(12.0).reshape(4, 3))
        x0, x1, u0 = snapshots(data)
        assert x0.shape == x1.shape == (4, 3 * t) and u0.shape == (2, 3 * t)
        assert np.array_equal(x0[:, [0, t, 2 * t]], data.x0s)
        for i in range(3):
            cols = slice(i * t, (i + 1) * t)
            states = data.x[:, i].reshape((4, t), order="F")
            assert np.array_equal(x1[:, cols], states)
            assert np.array_equal(x0[:, cols][:, 1:], states[:, :-1])
            assert np.array_equal(u0[:, cols], data.u[:, i].reshape((2, t), order="F"))
