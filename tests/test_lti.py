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
from ddrobust.lti import snapshot_batch


def zero_inputs(rng, m, t):
    return np.zeros((m, t))


def snapshots(data):
    """The (X0, X1, U0) snapshots of the record itself: the batch of one."""
    [x0], [x1], u0 = snapshot_batch(data, data.x_vec[None])
    return x0, x1, u0


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


class TestSimulate:
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

    def test_json_rejects_other_selectors(self):
        doc = collect(vehicle_model(0.1), 1, 5, seed=0).to_json()
        assert doc["selector"] == {"kind": "full_trajectory"}
        with pytest.raises(ValueError, match="selector"):
            TrainingData.from_json(doc | {"selector": {"kind": "final_state"}})

    def test_save_load_round_trip(self, tmp_path):
        data = collect(vehicle_model(0.1), 1, 25, seed=8)
        path = tmp_path / "data.json"
        data.save(path)
        back = TrainingData.load(path)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.u, data.u)

    def test_with_x_vec_touches_one_entry(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=2)
        bumped = data.x_vec
        bumped[7] += 0.5
        other = data.with_x_vec(bumped)
        assert other.x[7, 0] == bumped[7]
        assert np.count_nonzero(other.x != data.x) == 1


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

    def test_batch_matches_per_record_snapshots(self):
        data = collect(vehicle_model(0.1), 3, 6, seed=3)
        rng = np.random.default_rng(8)
        x_vecs = data.x_vec + rng.standard_normal((4, data.x_vec.size))
        x0s, x1s, u0 = snapshot_batch(data, x_vecs)
        for x_vec, x0, x1 in zip(x_vecs, x0s, x1s):
            ref = snapshots(data.with_x_vec(x_vec))
            assert np.array_equal(x0, ref[0]) and np.array_equal(x1, ref[1])
            assert np.array_equal(u0, ref[2])
        with pytest.raises(ValueError):
            snapshot_batch(data, x_vecs[:, 1:])
