import re
from dataclasses import replace

import numpy as np
import pytest

from ddrobust import (
    LtiSystem,
    PinvMap,
    TrainingData,
    collect,
    lti,
    vehicle_model,
)
from ddrobust.cli import _read_json, _write_json
from ddrobust.lti import _roll_out, collect_records, snapshots


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


def one_run(sys, x0, u):
    """The states x(1..T) of one experiment of ``collect`` with inputs ``u``, n x T."""
    data = collect(sys, 1, u.shape[1], input_law=lambda rng, m, t: u, x0=x0)
    return data.x.reshape((sys.n, -1), order="F")


class TestSimulate:
    """One experiment of ``collect``, which rolls out alone through
    ``_roll_out``'s one-record branch, is the step recursion."""

    @pytest.mark.parametrize("sys, nonzero_x0", PLANTS)
    @pytest.mark.parametrize("t_steps", [1, 400])
    def test_matches_step_recursion_bit_for_bit(self, sys, nonzero_x0, t_steps):
        rng = np.random.default_rng(t_steps)
        x0 = rng.standard_normal(sys.n) if nonzero_x0 else np.zeros(sys.n)
        u = rng.standard_normal((sys.m, t_steps))
        states = one_run(sys, x0, u)
        assert states.shape == (sys.n, t_steps)
        assert np.array_equal(states, step_oracle(sys, x0, u))

    def test_zero_everything(self):
        data = collect(vehicle_model(0.1), 1, 5, input_law=zero_inputs)
        assert np.array_equal(data.x, np.zeros((20, 1)))

    def test_vehicle_single_step(self):
        states = one_run(vehicle_model(0.1), np.zeros(4), np.array([[1.0], [0.0]]))
        assert np.array_equal(states[:, 0], [0.0, 0.1, 0.0, 0.0])

    def test_memoryless_plant(self):
        rng = np.random.default_rng(0)
        sys = LtiSystem(np.zeros((3, 3)), rng.standard_normal((3, 2)))
        u = rng.standard_normal((2, 6))
        states = one_run(sys, rng.standard_normal(3), u)
        for t in range(6):
            assert np.allclose(states[:, t], sys.b @ u[:, t], atol=1e-14)

    def test_prefix_of_longer_run_matches(self):
        rng = np.random.default_rng(1)
        sys = vehicle_model(0.1)
        u = rng.standard_normal((2, 10))
        full = one_run(sys, np.zeros(4), u)
        half = one_run(sys, np.zeros(4), u[:, :5])
        assert np.array_equal(full[:, :5], half)


def roll_out_stack(sys, x0s, us):
    """Each record's states as n x T from one _roll_out of the records stacked
    longest first, whatever order ``us`` gives them in."""
    order = sorted(range(len(us)), key=lambda r: -us[r].shape[1])
    lengths = [us[r].shape[1] for r in order]
    states = np.full((lengths[0], len(us), sys.n, 1), np.nan)
    for pos, r in enumerate(order):
        states[:lengths[pos], pos] = np.matmul(sys.b, us[r].T[:, :, None])
    _roll_out(sys, np.array([x0s[r] for r in order])[:, :, None], states, lengths)
    return {r: states[:lengths[pos], pos, :, 0].T for pos, r in enumerate(order)}


class TestRollOut:
    """The stacked rollout is the step recursion of each record, bit for bit:
    a stack of k records makes one gemv per record per step, as ndarray.dot
    makes for one."""

    @pytest.mark.parametrize("n", [1, 4, 20])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("lengths", [
        [1, 400, 2, 7], [7, 2, 400, 1, 400, 7], [7, 7, 7], [400], [1],
    ], ids=["ragged", "ragged-pairs", "equal", "one-long", "one-step"])
    def test_matches_step_recursion_bit_for_bit(self, n, m, lengths):
        sys = random_plant(100 * n + m, n, m)
        rng = np.random.default_rng(len(lengths))
        x0s = rng.standard_normal((len(lengths), n))
        us = [rng.standard_normal((m, t)) for t in lengths]
        states = roll_out_stack(sys, x0s, us)
        for r, (x0, u) in enumerate(zip(x0s, us)):
            assert np.array_equal(states[r], step_oracle(sys, x0, u))


def fields(data):
    return (data.u, data.x, data.x0s, data.t, data.n, data.m, data.seed)


def assert_same_records(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for x, y in zip(fields(a), fields(b)):
            assert np.array_equal(x, y) and np.shape(x) == np.shape(y)


RUNS = [(7, 3), (400, 1), (1, 4), (400, 9), (2, 0), (7, 5)]


class TestCollectRecords:
    @pytest.mark.parametrize("n_experiments", [1, 2])
    @pytest.mark.parametrize("sys, nonzero_x0", PLANTS[:3])
    def test_each_run_is_its_collect(self, sys, nonzero_x0, n_experiments):
        x0 = np.linspace(-1.0, 1.0, sys.n) if nonzero_x0 else None
        records = list(collect_records(sys, n_experiments, RUNS, x0=x0))
        assert_same_records(records, [collect(sys, n_experiments, t, seed=seed, x0=x0)
                                      for t, seed in RUNS])

    def test_a_small_budget_splits_the_runs_into_groups(self, monkeypatch):
        sys = vehicle_model(0.1)
        expected = list(collect_records(sys, 2, RUNS))
        stacks = []
        roll_out = lti._roll_out
        monkeypatch.setattr(lti, "_roll_out", lambda sys, x0s, states, lengths:
                            stacks.append(lengths) or roll_out(sys, x0s, states, lengths))
        # The budget holds four records of 400 steps: two runs of two experiments.
        monkeypatch.setattr(lti, "_ROLLOUT_FLOATS", 400 * 2 * 2 * (sys.n + sys.m))
        assert_same_records(list(collect_records(sys, 2, RUNS)), expected)
        # Consecutive runs, each group's records longest first.
        assert stacks == [[400, 400, 7, 7], [400, 400, 1, 1], [7, 7, 2, 2]]

    def test_a_run_longer_than_the_budget_rolls_out_alone(self, monkeypatch):
        sys = vehicle_model(0.1)
        expected = list(collect_records(sys, 1, RUNS))
        monkeypatch.setattr(lti, "_ROLLOUT_FLOATS", 1)
        assert_same_records(list(collect_records(sys, 1, RUNS)), expected)

    def test_no_runs_make_no_records(self):
        assert list(collect_records(vehicle_model(0.1), 1, [])) == []

    @pytest.mark.parametrize("kwargs, message", [
        ({"runs": [(10, 0), (0, 1)]}, "collect requires N >= 1 and T >= 1"),
        ({"n_experiments": 0}, "collect requires N >= 1 and T >= 1"),
        ({"x0": np.zeros(3)}, "x0 has length 3, expected 4"),
        ({"input_law": lambda rng, m, t: np.zeros((3, t))},
         "input sequence has shape (3, 10), expected 2 x T"),
        ({"input_law": lambda rng, m, t: np.zeros((m, t - 1))},
         "input sequence has shape (2, 9), expected 2 x T"),
        ({"input_law": lambda rng, m, t: np.zeros(m * t)},
         "input sequence has shape (20,), expected 2 x T"),
    ], ids=["t", "n", "x0", "input-rows", "input-steps", "input-flat"])
    def test_refusals(self, kwargs, message):
        args = {"n_experiments": 1, "runs": [(10, 0)]} | kwargs
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            list(collect_records(vehicle_model(0.1), **args))

    def test_a_diverging_record_is_refused_without_a_warning(self):
        # pytest turns warnings into errors here, so numpy's overflow warning
        # would replace the refusal.
        sys = LtiSystem(np.array([[2.0]]), np.array([[1.0]]))
        # One experiment takes the rollout's one-record branch, two its stacked one.
        for n_experiments in (1, 2):
            with pytest.raises(ValueError, match="^X contains non-finite entries$"):
                collect(sys, n_experiments, 1200)


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

    @pytest.mark.parametrize("field, value", [("t", 60.7), ("n", 4.0), ("m", "2"),
                                              ("t", True), ("n", True), ("m", False)])
    def test_json_refuses_a_count_that_is_not_an_integer(self, tmp_path, field, value):
        # int() would load "t": 60.7 as a record of 60 steps.
        path = tmp_path / "data.json"
        _write_json(path, collect(vehicle_model(0.1), 1, 5, seed=0).to_json() | {field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: training record has "
                                             "a malformed field: "):
            _read_json(TrainingData, path)

    @pytest.mark.parametrize("field, value", [
        ("x", [[1.0], [2.0, 3.0]]), ("x", [["a"]]), ("u", "abc"), ("x0s", {"a": 1.0})],
        ids=["x-ragged", "x-string", "u-string", "x0s-object"])
    def test_json_names_an_array_that_is_not_numbers(self, tmp_path, field, value):
        path = tmp_path / "data.json"
        _write_json(path, collect(vehicle_model(0.1), 1, 5, seed=0).to_json() | {field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: training record has a "
                                             f"malformed field: '{field}' must be an array of "
                                             "numbers: "):
            _read_json(TrainingData, path)

    @pytest.mark.parametrize("value, message", [
        (7, "'n_experiments' is 7, but the arrays hold 1 experiments"),
        ("x", "'n_experiments' must be an integer, got 'x'"),
        (True, "'n_experiments' must be an integer, got True"),
    ], ids=["mismatch", "string", "bool"])
    def test_json_refuses_an_experiment_count_that_is_not_the_arrays(self, value, message):
        doc = collect(vehicle_model(0.1), 1, 5, seed=0).to_json() | {"n_experiments": value}
        with pytest.raises(ValueError, match=f"^training record has a malformed field: "
                                             f"{re.escape(message)}$"):
            TrainingData.from_json(doc)

    @pytest.mark.parametrize("seed", ["abc", 1.5, -1, True, [3]],
                             ids=["string", "float", "negative", "bool", "list"])
    def test_json_refuses_a_seed_that_is_not_a_count(self, tmp_path, seed):
        path = tmp_path / "data.json"
        _write_json(path, collect(vehicle_model(0.1), 1, 5, seed=0).to_json() | {"seed": seed})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: training record has "
                                             "a malformed field: 'seed' must be "):
            _read_json(TrainingData, path)

    @pytest.mark.parametrize("seed", [None, 0, 2**64 - 1])
    def test_json_keeps_a_seed_that_is_null_or_a_count(self, seed):
        doc = collect(vehicle_model(0.1), 1, 5, seed=0).to_json() | {"seed": seed}
        assert TrainingData.from_json(doc).to_json() == doc

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


class TestReadOnly:
    """A record cannot change, so the fit the Gram kernel keeps on it cannot
    go stale."""

    @pytest.mark.parametrize("field", ["x", "u", "x0s"])
    def test_writing_into_a_record_raises(self, field):
        data = collect(vehicle_model(0.1), 2, 10, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, field)[0, 0] = 1.0
        loaded = TrainingData.from_json(data.to_json())
        with pytest.raises(ValueError, match="read-only"):
            getattr(loaded, field)[0, 0] = 1.0

    def test_the_vector_given_to_with_x_vec_is_copied(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=2)
        v = data.x_vec
        other = data.with_x_vec(v)
        v[3] += 1.0
        assert np.array_equal(other.x_vec, data.x_vec)

    def test_a_record_shares_memory_with_nothing_it_was_given(self):
        data = collect(vehicle_model(0.1), 2, 10, seed=2)
        given = {"u": np.array(data.u), "x": data.x, "x0s": data.x0s}
        assert not given["x"].flags.writeable  # read-only arrays are copied too
        other = replace(data, **given)
        for field, a in given.items():
            assert not np.shares_memory(getattr(other, field), a)
            assert np.array_equal(getattr(other, field), a)
        given["u"][0, 0] += 1.0
        assert np.array_equal(other.u, data.u)

    def test_a_read_only_view_of_writeable_memory_is_copied(self):
        data = collect(vehicle_model(0.1), 1, 10, seed=2)
        x = np.array(data.x)
        view = x[:]
        view.flags.writeable = False
        other = replace(data, x=view)
        x[0, 0] += 1.0
        assert np.array_equal(other.x, data.x)

    @pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
    def test_a_vector_is_copied_and_x_stays_column_major(self, writeable):
        data = collect(vehicle_model(0.1), 2, 10, seed=2)
        v = data.x_vec
        v.flags.writeable = writeable
        other = data.with_x_vec(v)
        assert not np.shares_memory(other.x, v)
        assert other.x.flags.f_contiguous and not other.x.flags.c_contiguous

    def test_new_records_start_with_no_fit(self):
        data = collect(vehicle_model(0.1), 1, 30, seed=1)
        PinvMap().evaluate_deltas(data, [1, 6], np.ones((1, 2)))
        assert data._fits
        assert data.with_x_vec(data.x_vec)._fits == {}
        assert replace(data, seed=3)._fits == {}
        assert TrainingData.from_json(data.to_json())._fits == {}


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
