import math
import re
import tracemalloc

import numpy as np
import pytest

from ddrobust import (
    CeLqrMap,
    DareError,
    LqrWeights,
    LtiSystem,
    PinvMap,
    TrainingData,
    check_a1,
    collect,
    dare_solve,
    fd_jacobian,
    identify,
    lqr_gain,
    map_from_descriptor,
    vehicle_model,
)
from ddrobust import ctrlmaps
from ddrobust.ctrlmaps import ControllerMap
from ddrobust.lti import snapshots

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
        assert not PinvMap().rank_deficient(data)
        x0, x1, _ = snapshots(data)
        closed_loop = sys.a + sys.b @ PinvMap().evaluate(data)
        reference = x1 @ np.linalg.pinv(x0)
        assert np.linalg.norm(closed_loop - reference, 2) <= 1e-8

    def test_rank_deficiency_flagged(self):
        data = collect(vehicle_model(0.1), 1, 2, seed=0)
        assert PinvMap().rank_deficient(data)


def record_path(cmap, data, support, deltas):
    """The gains of the base record path: one evaluate per perturbed record.
    The public evaluate_deltas would run the map's own kernel instead."""
    return ControllerMap._evaluate_finite(cmap, data, support, deltas)


def traced_peak(call):
    """The result of ``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MAPS = pytest.mark.parametrize("cmap", [PinvMap(), CeLqrMap()], ids=["pinv", "ce-lqr"])


@MAPS
class TestGramKernel:
    """The low-rank Gram update of both shipped maps' evaluate_deltas against
    the record path."""

    @staticmethod
    def probes(support, scale, seed):
        """The 2k one-entry probes of an FD bundle at h = 6e-6, then eight dense
        draws at ``scale``."""
        k = support.size
        fd = np.vstack([6e-6 * np.eye(k), -6e-6 * np.eye(k)])
        dense = scale * np.random.default_rng(seed).standard_normal((8, k))
        return np.vstack([fd, dense])

    @pytest.mark.parametrize("t_steps", [20, 200, 1600])
    @pytest.mark.parametrize("experiments", [1, 2])
    def test_matches_record_path(self, cmap, t_steps, experiments):
        data = collect(vehicle_model(0.1), experiments, t_steps, seed=t_steps + experiments)
        n, p = data.n, data.p
        rng = np.random.default_rng(t_steps)
        support = [rng.choice(data.x_vec.size, 6, replace=False)]
        for e in range(experiments):
            # States 0 and 1 of x(1) share one X0 column; x(T) is in none.
            support.append(e * p + np.array([0, 1, p - n, p - 1]))
        support = np.unique(np.concatenate(support))
        for scale in (6e-6, 30.0):
            deltas = self.probes(support, scale, seed=experiments)
            reference = record_path(cmap, data, support, deltas)
            gains = cmap.evaluate_deltas(data, support, deltas)
            assert np.abs(gains - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_rank_deficient_record_takes_the_record_path(self, cmap):
        # T = 3 < n: X0 and every perturbed X0 have rank 3 at most.
        data = collect(vehicle_model(0.1), 1, 3, seed=0, x0=np.array([1.0, -0.5, 0.3, 2.0]))
        support = np.arange(data.p)
        deltas = self.probes(support, 30.0, seed=1)
        assert np.array_equal(cmap.evaluate_deltas(data, support, deltas),
                              record_path(cmap, data, support, deltas), equal_nan=True)

    def test_zero_input_record_takes_the_record_path(self, cmap):
        # U0 = 0 leaves the orbit of x0 under A, of rank 2 on the vehicle, so
        # G is singular for both maps, and the gain is zero.
        data = collect(vehicle_model(0.1), 1, 30, input_law=zero_inputs, seed=0,
                       x0=np.array([1.0, -0.5, 2.0, 0.25]))
        support = np.arange(0, data.p, 7)
        deltas = self.probes(support, 30.0, seed=1)
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert np.array_equal(gains, record_path(cmap, data, support, deltas))
        assert np.array_equal(gains, np.zeros_like(gains))

    def test_singular_item_takes_the_record_path_alone(self, cmap, monkeypatch):
        # T = 6 from x0 = 0: item 1 zeroes x(1..5) in state 0, so X0 has a
        # zero row, and so has W = [X0; U0].
        data = collect(vehicle_model(0.1), 1, 6, seed=0)
        support = np.arange(0, 5 * data.n, data.n)
        deltas = 0.01 * np.random.default_rng(2).standard_normal((3, support.size))
        deltas[1] = -data.x_vec[support]
        gram_only = cmap.evaluate_deltas(data, support, deltas[[0, 2]])
        seen = []
        original = type(cmap).evaluate

        def evaluate(self, data):
            seen.append(data.x_vec)
            return original(self, data)

        monkeypatch.setattr(type(cmap), "evaluate", evaluate)
        gains = cmap.evaluate_deltas(data, support, deltas)
        [record] = seen
        assert np.array_equal(record[support], np.zeros(support.size))
        assert np.array_equal(gains[1], record_path(cmap, data, support, deltas[1:2])[0])
        assert np.array_equal(gains[[0, 2]], gram_only)

    def test_overflowing_item_takes_the_record_path(self, cmap):
        # Item 0's record is finite, but its Gram update overflows; no numpy
        # warning escapes (pytest turns any into an error).
        data = collect(vehicle_model(0.1), 1, 50, seed=0)
        support = np.array([5, 9])
        deltas = np.array([[1e200, 0.0], [0.01, 0.02]])
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert np.array_equal(gains[0], record_path(cmap, data, support, deltas[:1])[0])
        assert np.array_equal(gains[1], cmap.evaluate_deltas(data, support, deltas[1:])[0])

    def test_items_take_the_record_path_by_the_per_item_rule(self, cmap, monkeypatch):
        # The support is state 0 of x(1..T), so item 6, which zeroes it,
        # leaves X0 and W with a zero row. Items 0-2 move G by far less than
        # lambda_min(G), so the Weyl screen clears them without eigvalsh;
        # items 3-5 move it by more and are checked; item 7's G' overflows.
        data = collect(vehicle_model(0.1), 1, 200, seed=0)
        support = np.arange(0, data.p, data.n)
        rng = np.random.default_rng(1)
        deltas = np.vstack([1e-3 * rng.standard_normal((3, support.size)),
                            rng.standard_normal((3, support.size)),
                            -data.x_vec[support], np.zeros(support.size)])
        deltas[7, 3] = 1e200
        grams = []
        for delta in deltas:
            x_vec = data.x_vec
            x_vec[support] += delta
            x0, _, u0 = snapshots(data.with_x_vec(x_vec))
            w = x0 if cmap.name == "pinv" else np.vstack([x0, u0])
            with np.errstate(over="ignore", invalid="ignore"):
                grams.append(w @ w.T)

        def rule(gram):
            if not np.all(np.isfinite(gram)):
                return True
            lam = np.linalg.eigvalsh(gram)
            return lam[0] <= ctrlmaps._GRAM_RCOND * lam[-1]

        expected = np.array([rule(gram) for gram in grams])
        reference = record_path(cmap, data, support, deltas[expected])
        received, checked = [], []
        base, eigvalsh = ControllerMap._evaluate_finite, np.linalg.eigvalsh

        def spy(self, data, support, deltas):
            received.append(deltas)
            return base(self, data, support, deltas)

        def eigvalsh_spy(m):
            if np.ndim(m) == 3:
                checked.extend(m)
            return eigvalsh(m)

        monkeypatch.setattr(ControllerMap, "_evaluate_finite", spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        gains = cmap.evaluate_deltas(data, support, deltas)
        [seen] = received
        assert expected.tolist() == [False] * 6 + [True, True]
        assert np.array_equal(seen, deltas[expected])
        assert np.array_equal(gains[expected], reference, equal_nan=True)
        # The checked stack holds the kernel's G' of items 3-6: items 0-2
        # were cleared, and item 7 is not finite.
        assert len(checked) == 4
        for i, gram in enumerate(grams[:7]):
            near = any(np.abs(m - gram).max() <= 1e-9 * np.abs(gram).max() for m in checked)
            assert near == (i >= 3)

    def test_no_eigensolve_when_the_screen_clears_every_item(self, cmap, monkeypatch):
        # Items 0-2 of the test above: the Weyl screen clears them all, so no
        # stacked eigvalsh runs, not even on an empty stack.
        data = collect(vehicle_model(0.1), 1, 200, seed=0)
        support = np.arange(0, data.p, data.n)
        deltas = 1e-3 * np.random.default_rng(1).standard_normal((3, support.size))
        reference = record_path(cmap, data, support, deltas)
        stacks, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: stacks.append(np.shape(m)) or eigvalsh(m))
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert [shape for shape in stacks if len(shape) == 3] == []
        assert np.abs(gains - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_record_whose_gram_overflows_takes_the_record_path(self, cmap):
        # A finite record of 1e160-sized states overflows the nominal G, on
        # which eigvalsh does not converge; every item takes the record path.
        data = collect(vehicle_model(0.1), 1, 50, seed=0)
        data = data.with_x_vec(1e160 * data.x_vec)
        support = np.array([5, 9])
        deltas = np.array([[1.0, 0.0], [0.01, 0.02]])
        assert np.array_equal(cmap.evaluate_deltas(data, support, deltas),
                              record_path(cmap, data, support, deltas), equal_nan=True)

    @pytest.mark.parametrize("t_steps, experiments", [(4, 1), (200, 2)])
    def test_items_do_not_depend_on_the_stack(self, cmap, t_steps, experiments):
        data = collect(vehicle_model(0.1), experiments, t_steps, seed=0,
                       x0=np.array([1.0, -0.5, 0.3, 2.0]))
        support = np.arange(0, data.x_vec.size, max(1, data.x_vec.size // 30))
        deltas = self.probes(support, 30.0, seed=3)
        deltas[-1, :4] = -data.x_vec[support[:4]]  # singular at T = 4
        gains = cmap.evaluate_deltas(data, support, deltas)
        for i, delta in enumerate(deltas):
            assert np.array_equal(gains[i], cmap.evaluate_deltas(data, support, delta[None])[0],
                                  equal_nan=True)

    @pytest.mark.parametrize("chunk_items", [1, 7])
    def test_chunks_change_no_gain(self, cmap, chunk_items, monkeypatch):
        # T = 6 from x0 = 0: item 4 zeroes x(1..5) in state 0 and takes the
        # record path. The support moves X0 columns 1..5 and, for ce-lqr,
        # X1 columns 0..4. One item holds D_w and D_y on those columns, and
        # G' and the fit: 4 x 5 + 4 x (4 + 2) floats for pinv (W = X0,
        # Y = U0) and (6 + 4) x 6 + 6 x (6 + 4) for ce-lqr (W = [X0; U0],
        # Y = X1).
        data = collect(vehicle_model(0.1), 1, 6, seed=0)
        support = np.arange(0, 5 * data.n, data.n)
        deltas = 0.01 * np.random.default_rng(2).standard_normal((20, support.size))
        deltas[4] = -data.x_vec[support]
        whole = cmap.evaluate_deltas(data, support, deltas)
        item_floats = 4 * 5 + 4 * (4 + 2) if cmap.name == "pinv" else (6 + 4) * 6 + 6 * (6 + 4)
        monkeypatch.setattr(ctrlmaps, "_GRAM_CHUNK_FLOATS", chunk_items * item_floats)
        stacks, gain_stacks = [], []
        eigvalsh, lqr_gain = np.linalg.eigvalsh, ctrlmaps.lqr_gain

        def spy(m):
            if np.ndim(m) == 3:
                stacks.append(len(m))
            return eigvalsh(m)

        def gain_spy(a, b, q, r):
            gain_stacks.append(len(a))
            return lqr_gain(a, b, q, r)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        monkeypatch.setattr(ctrlmaps, "lqr_gain", gain_spy)
        chunked = cmap.evaluate_deltas(data, support, deltas)
        sizes = [min(chunk_items, 20 - i) for i in range(0, 20, chunk_items)]
        assert stacks == sizes
        if cmap.name == "ce-lqr":
            # Each chunk solves its kernel items; the one holding item 4
            # then solves item 4 alone on the record path.
            first = 4 // chunk_items
            sizes[first] -= 1
            sizes.insert(first + 1, 1)
            assert gain_stacks == sizes
        assert np.array_equal(chunked, whole)
        assert np.array_equal(whole[4], record_path(cmap, data, support, deltas[4:5])[0])

    def test_memory_does_not_grow_with_the_item_count(self, cmap):
        # 2000 exact trials on a record of the default length (T = 200, k = 50):
        # with the perturbations of all items held at once the ce-lqr call
        # peaked at 21.8 MB; with the whole kernel chunked it peaks at 10.4 MB.
        data = collect(vehicle_model(0.1), 1, 200, seed=0)
        support = np.sort(np.random.default_rng(0).choice(data.x_vec.size, 50, replace=False))
        deltas = 0.01 * np.random.default_rng(1).standard_normal((2000, support.size))
        gains, peak = traced_peak(lambda: cmap.evaluate_deltas(data, support, deltas))
        assert np.all(np.isfinite(gains))
        assert peak <= 12e6

    def test_memory_stays_flat_on_a_platoon(self, cmap, monkeypatch):
        # n = 20: five vehicles, T = 200, k = 50. With only D_w and D_y
        # chunked, 1000 ce-lqr items peaked at 88.6 MB; with the whole kernel
        # chunked, the Riccati solves included, they peak at 21.3 MB.
        vehicle = vehicle_model(0.1)
        platoon = LtiSystem(np.kron(np.eye(5), vehicle.a), np.kron(np.eye(5), vehicle.b))
        data = collect(platoon, 1, 200, seed=0)
        support = np.sort(np.random.default_rng(0).choice(data.x_vec.size, 50, replace=False))
        deltas = 0.01 * np.random.default_rng(1).standard_normal((1000, support.size))
        gains, peak = traced_peak(lambda: cmap.evaluate_deltas(data, support, deltas))
        monkeypatch.setattr(ctrlmaps, "_GRAM_CHUNK_FLOATS", 2**40)
        assert np.array_equal(gains, cmap.evaluate_deltas(data, support, deltas))
        assert peak <= 30e6


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls in the
    returned list."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or original(*args))
    return calls


@MAPS
class TestFitSlot:
    """The nominal fit a record keeps for the Gram kernel: every call after the
    first equals the call on a fresh copy of the record, and a repeat on the
    same support derives nothing again."""

    @staticmethod
    def rows(support, seed):
        """FD probes at +-h, dense Gaussian draws and a zero row."""
        k = support.size
        rng = np.random.default_rng(seed)
        return np.vstack([6e-6 * np.eye(k), -6e-6 * np.eye(k),
                          0.05 * rng.standard_normal((6, k)), np.zeros((1, k))])

    def test_later_calls_equal_a_fresh_record(self, cmap):
        data = collect(vehicle_model(0.1), 2, 60, seed=5)
        support = np.array([3, 40, 121, 238, 300, 477])
        other = np.array([0, 7, 250])
        deltas = self.rows(support, seed=1)

        def fresh():
            return cmap.evaluate_deltas(TrainingData.from_json(data.to_json()), support, deltas)

        first = cmap.evaluate_deltas(data, support, deltas)
        assert np.array_equal(first, fresh())
        for _ in range(2):
            assert np.array_equal(cmap.evaluate_deltas(data, support, deltas), fresh())
        # After a call on another support, whose columns replace the slot's,
        # and one of the other map, which keeps a fit of its own there.
        cmap.evaluate_deltas(data, other, self.rows(other, seed=2))
        assert np.array_equal(cmap.evaluate_deltas(data, support, deltas), fresh())
        other_map = CeLqrMap() if cmap.name == "pinv" else PinvMap()
        other_map.evaluate_deltas(data, support, deltas)
        assert np.array_equal(cmap.evaluate_deltas(data, support, deltas), fresh())

    def test_a_repeat_makes_no_svd_and_reads_no_snapshots(self, cmap, monkeypatch):
        data = collect(vehicle_model(0.1), 1, 80, seed=2)
        support, other = np.array([5, 9, 100, 301]), np.array([6, 200])
        svds = counting(monkeypatch, ctrlmaps, "pseudoinverse")
        reads = counting(monkeypatch, ctrlmaps, "snapshots")
        counts = []
        # The same support twice, then by content in another dtype; then a
        # new support, which builds its column map from the snapshots alone.
        for sup in (support, support, support.astype(np.int32), other, other):
            before = len(svds), len(reads)
            cmap.evaluate_deltas(data, sup, self.rows(sup, seed=3))
            counts.append((len(svds) - before[0], len(reads) - before[1]))
        assert counts == [(1, 1), (0, 0), (0, 0), (0, 1), (0, 0)]

    def test_slot_holds_no_t_long_array(self, cmap):
        data = collect(vehicle_model(0.1), 1, 1600, seed=0)
        support = np.arange(0, data.p, 400)
        cmap.evaluate_deltas(data, support, self.rows(support, seed=4))
        arrays = [a for fit in data._fits.values() for a in fit if isinstance(a, np.ndarray)]
        assert arrays
        width = data.n + data.m
        # theta, G, and W and Y on the at most 2k columns the support touches.
        assert max(a.size for a in arrays) <= width * max(width, 2 * support.size)


def test_evaluate_after_fd_jacobian_identifies_and_solves_anew(monkeypatch):
    # The record path does not read the Gram kernel's slot: the nominal
    # evaluate after an FD bundle on the record fits it again.
    data = collect(vehicle_model(0.1), 1, 40, seed=0)
    fd_jacobian(CeLqrMap(), data, [0, 5])
    identified = counting(monkeypatch, ctrlmaps, "identify")
    svds = counting(monkeypatch, ctrlmaps, "pseudoinverse")
    CeLqrMap().evaluate(data)
    assert (len(identified), len(svds)) == (1, 1)


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

    @staticmethod
    def stack_sizes(monkeypatch):
        """The stack size of every ``np.linalg.solve`` call, one per doubling step."""
        sizes, solve = [], np.linalg.solve

        def recording_solve(w, rhs):
            sizes.append(len(w))
            return solve(w, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        return sizes

    def test_identical_items_run_without_compaction(self, monkeypatch):
        # Every item stops on the same step, so no step drops an item
        # before the last.
        model = identify(collect(vehicle_model(0.1), 1, 200, seed=0))
        single = dare_solve(model.a, model.b, np.eye(4), np.eye(2))
        a, b = np.repeat(model.a[None], 5, axis=0), np.repeat(model.b[None], 5, axis=0)
        sizes = self.stack_sizes(monkeypatch)
        p = dare_solve(a, b, np.eye(4), np.eye(2))
        assert len(sizes) > 1 and set(sizes) == {5}
        for item in p:
            assert np.array_equal(item, single)

    def test_items_leaving_on_different_steps_compact_the_stack(self, monkeypatch):
        # Item 0 diverges (A = 2I, no input); items 1-3 are stable pairs
        # that converge in different numbers of steps.
        sys = vehicle_model(0.1)
        model = identify(collect(sys, 1, 200, seed=0))
        a = np.stack([2.0 * np.eye(4), model.a, 0.5 * sys.a, np.zeros((4, 4))])
        b = np.stack([np.zeros((4, 2)), model.b, sys.b, sys.b])
        sizes = self.stack_sizes(monkeypatch)
        p = dare_solve(a, b, np.eye(4), np.eye(2))
        monkeypatch.undo()
        # The stack shrinks once per step on which an item leaves.
        assert sizes[0] == 4 and len(set(sizes)) == 4
        assert sizes == sorted(sizes, reverse=True)
        assert np.isnan(p[0]).all()
        for i in (1, 2, 3):
            assert np.array_equal(p[i], dare_solve(a[i], b[i], np.eye(4), np.eye(2)))

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
        with pytest.raises(ValueError, match="^Q must be square$"):
            LqrWeights(q=np.ones((2, 3)), r=np.eye(2))
        with pytest.raises(ValueError, match="^Q must be positive semidefinite$"):
            LqrWeights(q=np.diag([1.0, -1.0]), r=np.eye(2))


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

    def test_badly_scaled_identified_pair(self):
        # A 1e5 error in one entry of a T = 60 record gives identified A
        # entries of 7e3 and A'PA entries 1e5 times those of P. scipy's P
        # then has a Riccati residual of 1e-6 of max|P|, 6e-12 of the
        # equation's largest term, and the gate accepts the doubling P.
        data = collect(vehicle_model(0.1), 1, 60, seed=0)
        x_vec = data.x_vec
        x_vec[100] += 1e5
        model = identify(data.with_x_vec(x_vec))
        assert np.abs(model.a).max() > 1e3
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
        cmap = CeLqrMap(LqrWeights.identity(4, 2))
        assert cmap.rank_deficient(data)
        k = cmap.evaluate(data)
        assert np.allclose(k, np.zeros((2, 4)), atol=1e-12)
        chk = check_a1(sys, k)
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
