import re

import numpy as np
import pytest

from conftest import left_to_right_acl, spy_eigvals
from ddrobust import (
    B_SOURCE_TRUE,
    CeLqrMap,
    PerturbationModel,
    PinvMap,
    StabilityError,
    collect,
    estimate_instability,
    fd_jacobian,
    first_order_acl,
    random_support,
    sample_z,
    spectral_radius,
    unstable,
    vehicle_model,
    wilson_interval,
)
from ddrobust import DareError, lemma1_residual, mc
from ddrobust.ctrlmaps import ControllerMap
from ddrobust.lti import LtiSystem
from ddrobust.mc import NoEstimateError


class LinearMap(ControllerMap):
    """K with vec(K) = M0 vec(X); exact and linearized closed loops agree."""

    name = "linear-test"

    def __init__(self, m0, m, n):
        self.m0 = np.asarray(m0, dtype=float)
        self.m, self.n = m, n

    def evaluate(self, data):
        return (self.m0 @ data.x_vec).reshape((self.m, self.n), order="F")


class FlakyMap(ControllerMap):
    """Delegates to an inner map but fails when a watched entry drifts."""

    name = "flaky-test"

    def __init__(self, inner, watched, nominal, width):
        self.inner = inner
        self.watched = watched
        self.nominal = nominal
        self.width = width

    def evaluate(self, data):
        if abs(data.x_vec[self.watched] - self.nominal) > self.width:
            raise DareError("watched entry out of tolerance")
        return self.inner.evaluate(data)


class NanMap(ControllerMap):
    """Returns a NaN gain, without raising, when a watched entry drifts."""

    name = "nan-test"

    def __init__(self, inner, watched, nominal, width):
        self.inner = inner
        self.watched = watched
        self.nominal = nominal
        self.width = width

    def evaluate(self, data):
        k = self.inner.evaluate(data)
        if abs(data.x_vec[self.watched] - self.nominal) > self.width:
            k[0, 0] = np.nan
        return k


class BuggyMap(ControllerMap):
    """A map with a programming error: it raises ``error`` off the nominal data."""

    name = "buggy-test"

    def __init__(self, inner, nominal_x, error):
        self.inner = inner
        self.nominal_x = nominal_x
        self.error = error

    def evaluate(self, data):
        if not np.array_equal(data.x_vec, self.nominal_x):
            raise self.error("unsupported operand")
        return self.inner.evaluate(data)


class FiniteOnlyMap(ControllerMap):
    """Delegates its finite records to an inner map's hook and keeps each
    stack; a plugin that refuses any non-finite record."""

    name = "finite-only-test"

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def evaluate(self, data):
        return self.inner.evaluate(data)

    def _evaluate_finite(self, data, support, deltas):
        if not np.isfinite(data.x_vec[support] + deltas).all():
            raise AssertionError("the map was handed a non-finite record")
        self.seen.append(np.array(deltas))
        return self.inner._evaluate_finite(data, support, deltas)


def finite_items(gains):
    """Which items of a gain stack hold no failure (every entry finite)."""
    return np.all(np.isfinite(gains), axis=(1, 2))


@pytest.fixture(scope="module")
def vehicle_setup():
    sys = vehicle_model(0.1)
    data = collect(sys, 1, 100, seed=0)
    support = random_support(data.p, 20, np.random.default_rng(77))
    return sys, data, support


@pytest.fixture(scope="module")
def k_ce(vehicle_setup):
    """Nominal ce-lqr gain on the vehicle record."""
    _, data, _ = vehicle_setup
    return CeLqrMap().evaluate(data)


class TestWilsonInterval:
    def test_zero_successes_pins_low_end(self):
        lo, hi = wilson_interval(0, 2000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_all_successes_pins_high_end(self):
        lo, hi = wilson_interval(2000, 2000)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_brackets_the_point_estimate(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            s = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0

    def test_mirror_symmetry(self):
        lo, hi = wilson_interval(30, 400)
        lo_m, hi_m = wilson_interval(370, 400)
        assert lo == pytest.approx(1.0 - hi_m, abs=1e-15)
        assert hi == pytest.approx(1.0 - lo_m, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_coverage_near_nominal(self):
        # 95% interval should cover the true p = 0.1 in at least ~93% of
        # repeated binomial experiments at n = 2000.
        rng = np.random.default_rng(2024)
        hits = 0
        for _ in range(500):
            s = int(rng.binomial(2000, 0.1))
            lo, hi = wilson_interval(s, 2000)
            hits += lo <= 0.1 <= hi
        assert hits / 500 >= 0.93


class TestSampleZ:
    def test_moments_match_model(self):
        sigmas = np.array([0.5, 2.0, 0.1])
        model = PerturbationModel(np.array([0, 1, 2]), sigmas)
        draws = sample_z(model, 6, 20000)
        assert draws.shape == (20000, 3)
        mean_tol = 4.0 * sigmas / np.sqrt(20000)
        assert np.all(np.abs(draws.mean(axis=0)) < mean_tol)
        assert np.allclose(draws.std(axis=0), sigmas, rtol=0.05)

    def test_tiny_sigma_stays_tiny(self):
        model = PerturbationModel(np.array([0, 1]), np.full(2, 1e-30))
        z = sample_z(model, 0, 1)
        assert np.all(np.abs(z) < 1e-28)


class TestRandomSupport:
    def test_full_draw_is_every_index(self):
        support = random_support(12, 12, np.random.default_rng(0))
        assert np.array_equal(support, np.arange(12))

    def test_draw_properties(self):
        support = random_support(500, 50, np.random.default_rng(1))
        assert support.shape == (50,)
        assert len(np.unique(support)) == 50
        assert np.all(np.diff(support) > 0)
        assert support.min() >= 0 and support.max() < 500

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            random_support(10, 11, np.random.default_rng(0))

    def test_uniform_over_indices(self):
        # chi-square goodness of fit at alpha = 0.001, df = 39.
        rng = np.random.default_rng(31)
        counts = np.zeros(40)
        for _ in range(20000):
            counts[random_support(40, 5, rng)] += 1
        expected = 20000 * 5 / 40
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 72.055


class TestTrialStreams:
    """Trial t draws numpy's SeedSequence(seed, spawn_key=(t,)) stream."""

    @staticmethod
    def oracle_z(seed, trials, k):
        return np.stack([
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,))).standard_normal(k)
            for t in range(trials)])

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5,
                                      2**99 + 12345, 2**200 + 3])
    def test_vectorised_streams_match_seed_sequence(self, seed):
        model = PerturbationModel(np.arange(6), 1.0)
        z = sample_z(model, seed, 2000)
        assert np.array_equal(z, self.oracle_z(seed, 2000, 6))
        # Row t depends on (seed, t) alone: a shorter draw is a prefix, other
        # trials and the next seed give other rows.
        assert np.array_equal(sample_z(model, seed, 3), z[:3])
        assert len(np.unique(z, axis=0)) == len(z)
        assert not np.any(sample_z(model, seed + 1, 3) == z[:3])

    @pytest.mark.parametrize("k", [1, mc._LOCKSTEP_MAX_K, mc._LOCKSTEP_MAX_K + 1, 50])
    def test_both_sides_of_each_gate_match_seed_sequence(self, k, monkeypatch):
        # The lockstep branch draws from _LOCKSTEP_MIN_TRIALS trials on, on at
        # most _LOCKSTEP_MAX_K entries, in chunks; the per-trial loop elsewhere.
        stepped, draw = [], mc._lockstep_normals
        monkeypatch.setattr(mc, "_lockstep_normals",
                            lambda words, out: stepped.append(len(words)) or draw(words, out))
        seed, gate = 2**64 + 5, mc._LOCKSTEP_MIN_TRIALS
        model = PerturbationModel(np.arange(k), 1.0)
        oracle = self.oracle_z(seed, 3000, k)
        for trials in (1, gate - 1, gate, 3000):
            stepped.clear()
            assert np.array_equal(sample_z(model, seed, trials), oracle[:trials])
            lockstep = trials >= gate and k <= mc._LOCKSTEP_MAX_K
            assert sum(stepped) == (trials if lockstep else 0)
            assert len(stepped) == (-(-trials // mc._LOCKSTEP_MAX_CHUNK) if lockstep else 0)

    def test_rows_off_the_fast_branch_are_drawn_again(self, monkeypatch):
        # A row with a draw off the ziggurat's fast branch holds other values
        # after the lockstep pass; the per-trial loop draws it again.
        passes, draw = [], mc._lockstep_normals
        monkeypatch.setattr(mc, "_lockstep_normals",
                            lambda words, out: passes.append((draw(words, out), out.copy()))
                            or passes[-1][0])
        k, trials = mc._LOCKSTEP_MAX_K, 1000
        z = sample_z(PerturbationModel(np.arange(k), 1.0), 3, trials)
        oracle = self.oracle_z(3, trials, k)
        assert np.array_equal(z, oracle)
        [(kept, stepped)] = passes
        assert 0 < np.sum(~kept) < trials
        assert np.array_equal(stepped[kept], oracle[kept])
        assert np.any(stepped[~kept] != oracle[~kept])

    def test_few_rows_leave_the_lockstep(self, monkeypatch):
        # Every layer but layer 1 keeps its fast region: at k = 10 about 14%
        # of rows have a draw outside it, and 19% if layers 0 and 2 kept none.
        kept = []
        draw = mc._lockstep_normals
        monkeypatch.setattr(mc, "_lockstep_normals",
                            lambda words, out: kept.append(draw(words, out)) or kept[-1])
        sample_z(PerturbationModel(np.arange(10), 1.0), 11, 2000)
        redrawn = np.sum(~np.concatenate(kept))
        assert 0 < redrawn <= 0.15 * 2000

    @pytest.mark.parametrize("trials", [-1, 2.5, "3"])
    def test_trial_count_must_be_a_non_negative_integer(self, trials):
        message = f"trials must be a non-negative integer, got {trials!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_z(PerturbationModel([0], 1.0), 0, trials)
        assert sample_z(PerturbationModel([0, 1], 1.0), 0, np.int64(0)).shape == (0, 2)

    def test_negative_seed_or_trial_is_refused(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            sample_z(PerturbationModel([0], 1.0), -1, 1)
        with pytest.raises(ValueError):
            mc._spawn_words(0, [-1])

    def test_seed_words_serve_only_four_uint64_words(self):
        # PCG64 passes the np.uint64 class itself; any other spelling of the
        # request still goes through np.dtype, and every other one is refused.
        words = mc._spawn_words(3, [0])[0]
        holder = mc._SeedWords(words)
        assert holder.generate_state(4, np.uint64) is words
        assert holder.generate_state(4, np.dtype("uint64")) is words
        for args in ((2, np.uint64), (4, np.uint32), (4,)):
            with pytest.raises(ValueError):
                holder.generate_state(*args)

    def test_estimate_draws_trial_t_from_stream_t(self):
        # Linear map, first-order mode: whether trial t is unstable is read off
        # the count difference between t + 1 and t trials, and must match the
        # loop built from stream t's z.
        sys = LtiSystem(a=np.array([[0.5, 0.1], [0.0, 0.4]]),
                        b=np.array([[0.0], [1.0]]))
        m0 = 0.05 * np.random.default_rng(0).standard_normal((2, 12))
        data = collect(sys, 1, 6, seed=50)
        cmap = LinearMap(m0, 1, 2)
        k_nom = cmap.evaluate(data)
        model = PerturbationModel(np.arange(12), np.linspace(2.0, 6.0, 12))
        bundle = fd_jacobian(cmap, data, model.support).with_b(sys.b, B_SOURCE_TRUE)
        seed, trials = 2**40 + 3, 40
        counts = [0] + [estimate_instability(sys, data, cmap, k_nom, model, n, seed=seed,
                                             bundle=bundle).unstable_count
                        for n in range(1, trials + 1)]
        z = self.oracle_z(seed, trials, 12) * model.sigmas
        loops = sys.a + sys.b @ k_nom + np.tensordot(z, bundle.bj, axes=1)
        rho = np.abs(np.linalg.eigvals(loops)).max(axis=1)
        assert np.all(np.abs(rho - 1.0) > 1e-9)  # no trial on the edge
        assert np.array_equal(np.diff(counts), rho >= 1.0)
        assert 0 < counts[-1] < trials


class TestZigguratTables:
    """The lockstep branch's layer widths and bounds, against numpy's sampler."""

    @staticmethod
    def bit_generator(output):
        bitgen = np.random.PCG64(0)
        mc._set_next_output(bitgen, output)
        return bitgen

    def test_words_give_the_chosen_first_output(self):
        for output in (0, 1, 0x1FF, 2**63 + 12345, 2**64 - 1):
            assert self.bit_generator(output).random_raw() == output

    def test_every_kept_draw_is_numpys(self):
        # For each layer and sign, the largest rabs that the lockstep branch
        # keeps, bound - 1, comes back from numpy as (bound - 1) * width after
        # one output: the kept region lies inside numpy's fast branch.
        # Only layer 1, whose bound in numpy is 0 too, keeps nothing.
        widths, bounds = mc._ZIG_WIDTHS, mc._ZIG_BOUNDS
        assert np.flatnonzero(bounds == 0).tolist() == [1, 257]
        for branch in [0, *range(2, 256), 256, *range(258, 512)]:
            assert 0 < bounds[branch] < 2**52
            rabs = int(bounds[branch]) - 1
            bitgen, twin = (self.bit_generator(rabs << 9 | branch) for _ in range(2))
            assert np.random.Generator(bitgen).standard_normal() == rabs * widths[branch]
            assert bitgen.random_raw() == twin.random_raw(2)[1]


class TestEstimateInstability:
    def test_deterministic_given_seed(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        model = PerturbationModel(support, np.full(20, 3.0))
        bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
        first = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 100,
                                     seed=5, bundle=bundle)
        second = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 100,
                                      seed=5, bundle=bundle)
        assert first == second
        shifted = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 100,
                                       seed=6, bundle=bundle)
        assert shifted.unstable_count != first.unstable_count or shifted != first

    def test_refuses_unstable_nominal_loop(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 200, seed=0)  # pinv loop is unstable here
        support = random_support(data.p, 10, np.random.default_rng(0))
        model = PerturbationModel(support, np.full(10, 0.01))
        with pytest.raises(StabilityError):
            estimate_instability(sys, data, PinvMap(), PinvMap().evaluate(data),
                                 model, 10)

    def test_argument_validation(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        model = PerturbationModel(support, np.full(20, 0.1))
        with pytest.raises(ValueError):
            estimate_instability(sys, data, CeLqrMap(), k_ce, model, 0)
        bad = PerturbationModel(np.array([data.p * 2]), np.array([0.1]))
        with pytest.raises(ValueError):
            estimate_instability(sys, data, CeLqrMap(), k_ce, bad, 10)

    def test_tiny_sigma_never_destabilizes(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        model = PerturbationModel(support, np.full(20, 1e-6))
        exact = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 200,
                                     seed=1)
        assert exact.p_hat == 0.0
        assert exact.ci_low == 0.0
        bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
        fo = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 2000,
                                  seed=1, bundle=bundle)
        assert fo.p_hat == 0.0

    def test_huge_sigma_destabilizes(self):
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 200, seed=3)
        support = random_support(data.p, 50, np.random.default_rng(503))
        model = PerturbationModel(support, np.full(50, 1e3))
        report = estimate_instability(sys, data, PinvMap(), PinvMap().evaluate(data),
                                      model, 200, seed=11)
        assert report.p_hat >= 0.9

    def test_modes_agree_exactly_on_linear_map(self):
        # For a map linear in vec(X) the linearized closed loop equals the
        # re-evaluated one, so the two modes must count the same trials.
        sys = LtiSystem(a=np.array([[0.5, 0.1], [0.0, 0.4]]),
                        b=np.array([[0.0], [1.0]]))
        rng = np.random.default_rng(0)
        m0 = 0.05 * rng.standard_normal((2, 12))
        data = collect(sys, 1, 6, seed=50)
        cmap = LinearMap(m0, 1, 2)
        model = PerturbationModel(np.arange(12), np.full(12, 4.0))
        exact = estimate_instability(sys, data, cmap, cmap.evaluate(data), model, 200,
                                     seed=9)
        bundle = fd_jacobian(cmap, data, model.support).with_b(sys.b, B_SOURCE_TRUE)
        fo = estimate_instability(sys, data, cmap, cmap.evaluate(data), model, 200,
                                  seed=9, bundle=bundle)
        assert exact.unstable_count == fo.unstable_count
        assert 0.0 < exact.p_hat < 1.0
        # The mode is read off the bundle: none means the map is re-evaluated.
        assert (exact.mode, fo.mode) == ("exact", "first_order")

    def test_estimate_rises_with_sigma(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
        p_hats = []
        for sigma in (1.0, 3.0, 10.0, 30.0):
            model = PerturbationModel(support, np.full(20, sigma))
            report = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 200,
                                          seed=5, bundle=bundle)
            p_hats.append(report.p_hat)
        assert all(a < b for a, b in zip(p_hats, p_hats[1:]))

    def test_first_order_needs_b(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        model = PerturbationModel(support, np.full(20, 3.0))
        bundle = fd_jacobian(CeLqrMap(), data, support)  # no B attached
        with pytest.raises(ValueError):
            estimate_instability(sys, data, CeLqrMap(), k_ce, model, 10,
                                 seed=5, bundle=bundle)

    def test_bundle_must_match_the_model_support(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
        other = support.copy()
        other[0] = np.setdiff1d(np.arange(data.p), support)[0]
        model = PerturbationModel(other, np.full(support.size, 0.1))
        with pytest.raises(ValueError, match="model's support"):
            estimate_instability(sys, data, CeLqrMap(), k_ce, model, 10, seed=0, bundle=bundle)

    def test_map_failures_are_skipped_and_counted(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        watched = int(support[0])
        sigma = 0.5
        flaky = FlakyMap(CeLqrMap(), watched, float(data.x_vec[watched]),
                         width=sigma)
        model = PerturbationModel(support, np.full(20, sigma))
        report = estimate_instability(sys, data, flaky, k_ce, model, 100,
                                      seed=2)
        assert report.trials == 100
        assert 0 < report.skipped < 100
        effective = report.trials - report.skipped
        assert report.p_hat == report.unstable_count / effective
        assert wilson_interval(report.unstable_count, effective) == (
            report.ci_low, report.ci_high)

    def test_all_failures_is_an_error(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        watched = int(support[0])
        always_fails = FlakyMap(CeLqrMap(), watched,
                                float(data.x_vec[watched]), width=0.0)
        model = PerturbationModel(support, np.full(20, 0.5))
        with pytest.raises(RuntimeError):
            estimate_instability(sys, data, always_fails, k_ce, model, 20,
                                 seed=2)
        with pytest.raises(NoEstimateError):
            estimate_instability(sys, data, always_fails, k_ce, model, 20,
                                 seed=2)


class TestStabilityVerdict:
    """Trials are judged from their characteristic polynomials: eigvals sees
    only the trials that test leaves undecided, and every trial when n > 4."""

    def test_vehicle_trials_rarely_reach_eigvals(self, vehicle_setup, k_ce, monkeypatch):
        sys, data, _ = vehicle_setup
        support = random_support(data.p, 10, np.random.default_rng(10))
        model = PerturbationModel(support, np.full(10, 3.0))
        bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
        items = spy_eigvals(monkeypatch)
        report = estimate_instability(sys, data, CeLqrMap(), k_ce, model, 1000,
                                      seed=3, bundle=bundle)
        assert 0.0 < report.p_hat < 1.0
        assert items[0] == 1  # the nominal loop
        assert sum(items[1:]) <= 10

    def test_five_state_trials_all_reach_eigvals(self, monkeypatch):
        rng = np.random.default_rng(4)
        sys = LtiSystem(a=0.6 * np.eye(5) + 0.1 * rng.standard_normal((5, 5)),
                        b=rng.standard_normal((5, 2)))
        data = collect(sys, 1, 40, seed=4)
        k_nom = CeLqrMap().evaluate(data)
        model = PerturbationModel(np.arange(10), np.full(10, 0.1))
        bundle = fd_jacobian(CeLqrMap(), data, model.support).with_b(sys.b, B_SOURCE_TRUE)
        items = spy_eigvals(monkeypatch)
        estimate_instability(sys, data, CeLqrMap(), k_nom, model, 200,
                             seed=1, bundle=bundle)
        assert items == [1, 200]


class TestFirstOrderVerdicts:
    """first_order_acl forms the loops in one matrix product, equal to the
    entry-by-entry sum only to rounding; the verdicts on them must not move."""

    @staticmethod
    def bundle_on(record, k):
        """Vehicle record ``record``, a random support of k entries and the
        ce-lqr bundle on it with the true B."""
        sys = vehicle_model(0.1)
        data = collect(sys, 1, 100, seed=record)
        support = random_support(data.p, k, np.random.default_rng(k + record))
        bundle = fd_jacobian(CeLqrMap(), data, support).with_b(sys.b, B_SOURCE_TRUE)
        return sys, data, support, bundle

    def test_product_and_left_to_right_loops_get_the_same_verdicts(self):
        # 24 000 trials on two vehicle records, at sigmas where some but
        # not all trials are unstable; BLAS keeps its default threads.
        compared = 0
        for record in (0, 1):
            for k, sigmas in ((10, (1.0, 3.0, 10.0)), (50, (0.3, 1.0, 3.0))):
                sys, data, support, bundle = self.bundle_on(record, k)
                a_cl = sys.a + sys.b @ bundle.gain
                for sigma in sigmas:
                    z = sample_z(PerturbationModel(support, np.full(k, sigma)), record, 2000)
                    verdict = unstable(first_order_acl(a_cl, bundle, z))
                    oracle = unstable(left_to_right_acl(a_cl, bundle.bj, z))
                    assert 0 < np.sum(oracle) < z.shape[0]
                    assert np.array_equal(verdict, oracle, equal_nan=True)
                    compared += z.shape[0]
        assert compared == 24_000

    @pytest.mark.parametrize("k, sigmas, counts", [
        (10, (1.0, 3.0, 10.0), [26, 977, 1777]),
        (50, (0.3, 1.0, 3.0), [120, 971, 1702]),
    ], ids=["k10", "k50"])
    def test_first_order_counts_are_pinned(self, k, sigmas, counts):
        # The counts the entry-by-entry sum gave, on a fixed record and seed.
        sys, data, support, bundle = self.bundle_on(0, k)
        reports = [estimate_instability(sys, data, CeLqrMap(), bundle.gain,
                                        PerturbationModel(support, np.full(k, sigma)), 2000,
                                        seed=5, bundle=bundle) for sigma in sigmas]
        assert [r.unstable_count for r in reports] == counts
        assert [r.skipped for r in reports] == [0] * len(sigmas)


class TestEvaluateBatch:
    """evaluate_deltas, the one batched entry, against per-item evaluate, and
    its failed items."""

    @staticmethod
    def probes(data, count, scale, seed=0):
        """Dense deltas on every entry of vec(X), and that support."""
        rng = np.random.default_rng(seed)
        return np.arange(data.x_vec.size), scale * rng.standard_normal((count, data.x_vec.size))

    @staticmethod
    def evaluate_each(cmap, data, support, deltas):
        """evaluate on every perturbed record, one at a time."""
        records = data.x_vec + np.zeros((len(deltas), 1))
        records[:, support] += deltas
        return np.array([cmap.evaluate(data.with_x_vec(x_vec)) for x_vec in records])

    @pytest.mark.parametrize("cmap", [CeLqrMap(), PinvMap()], ids=["ce-lqr", "pinv"])
    def test_matches_per_item_evaluate(self, vehicle_setup, cmap):
        _, data, _ = vehicle_setup
        support, deltas = self.probes(data, 9, 0.05)
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert finite_items(gains).all()
        for gain, single in zip(gains, self.evaluate_each(cmap, data, support, deltas)):
            assert np.abs(gain - single).max() <= 1e-12 * np.abs(single).max()

    def test_linear_map_fallback_matches(self):
        data = collect(vehicle_model(0.1), 1, 6, seed=1)
        cmap = LinearMap(np.random.default_rng(3).standard_normal((8, data.p)), 2, 4)
        support, deltas = self.probes(data, 5, 1.0)
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert finite_items(gains).all()
        for gain, single in zip(gains, self.evaluate_each(cmap, data, support, deltas)):
            assert np.abs(gain - single).max() <= 1e-12 * np.abs(single).max()

    @pytest.mark.parametrize("failing", [FlakyMap, NanMap], ids=["raises", "nan"])
    def test_failed_items_are_masked_alone(self, vehicle_setup, failing):
        _, data, support = vehicle_setup
        watched = int(support[0])
        cmap = failing(CeLqrMap(), watched, float(data.x_vec[watched]), width=0.5)
        deltas = np.zeros((4, support.size))
        deltas[[1, 3], 0] = [2.0, -2.0]  # items 1 and 3 leave the tolerance
        deltas[:, 1] = 0.01
        gains = cmap.evaluate_deltas(data, support, deltas)
        ok = finite_items(gains)
        assert ok.tolist() == [True, False, True, False]
        assert np.isnan(gains[~ok]).all()
        reference = ControllerMap._evaluate_finite(CeLqrMap(), data, support, deltas[ok])
        assert np.array_equal(gains[ok], reference)

    @staticmethod
    def one_bad_delta(support, bad):
        """Three small deltas; the middle one has the entry ``bad``."""
        deltas = 0.01 * np.random.default_rng(5).standard_normal((3, support.size))
        deltas[1, 2] = bad
        return deltas

    def test_non_finite_record_masked_in_vectorised_map(self, vehicle_setup):
        _, data, support = vehicle_setup
        deltas = self.one_bad_delta(support, np.nan)
        for cmap in (CeLqrMap(), PinvMap()):
            gains = cmap.evaluate_deltas(data, support, deltas)
            assert finite_items(gains).tolist() == [True, False, True]
            assert np.isnan(gains[1]).all()
            assert np.array_equal(gains[[0, 2]],
                                  cmap.evaluate_deltas(data, support, deltas[[0, 2]]))

    def test_non_finite_record_fails_its_item_in_fallback(self, vehicle_setup):
        # A non-finite record is a failed item, not a ValueError out of
        # with_x_vec.
        _, data, support = vehicle_setup
        cmap = LinearMap(np.random.default_rng(3).standard_normal((8, data.p)), 2, 4)
        deltas = self.one_bad_delta(support, np.inf)
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert finite_items(gains).tolist() == [True, False, True]
        assert np.array_equal(gains[[0, 2]],
                              cmap.evaluate_deltas(data, support, deltas[[0, 2]]))

    def test_map_never_sees_a_non_finite_record(self, vehicle_setup):
        _, data, support = vehicle_setup
        cmap = FiniteOnlyMap(CeLqrMap())
        deltas = self.one_bad_delta(support, np.nan)
        gains = cmap.evaluate_deltas(data, support, deltas)
        assert finite_items(gains).tolist() == [True, False, True]
        [seen] = cmap.seen
        assert len(seen) == 2

    @pytest.mark.parametrize("cmap", [CeLqrMap(), "flaky"], ids=["ce-lqr", "flaky"])
    def test_estimate_does_not_depend_on_chunking(self, vehicle_setup, k_ce, cmap):
        # Trial t's outcome is that of its record evaluated alone.
        sys, data, support = vehicle_setup
        if cmap == "flaky":
            watched = int(support[0])
            cmap = FlakyMap(CeLqrMap(), watched, float(data.x_vec[watched]), width=3.0)
        model = PerturbationModel(support, np.full(20, 3.0))
        report = estimate_instability(sys, data, cmap, k_ce, model, 60, seed=4)
        z = sample_z(model, 4, 60)
        gains = np.concatenate([cmap.evaluate_deltas(data, support, row[None]) for row in z])
        rho = spectral_radius(sys.a + sys.b @ gains)
        assert report.skipped == np.isnan(rho).sum()
        assert report.unstable_count == np.sum(rho >= 1.0) > 0

    def test_pinv_batch_does_not_depend_on_chunking(self, vehicle_setup):
        # The pinv loop on the vehicle is not stable, so estimate_instability
        # refuses it; the gains themselves are the stronger check.
        _, data, support = vehicle_setup
        deltas = 3.0 * np.random.default_rng(4).standard_normal((60, support.size))
        deltas[7, 0] = np.nan  # one failed item inside the stack
        gains = PinvMap().evaluate_deltas(data, support, deltas)
        assert finite_items(gains).tolist() == [i != 7 for i in range(60)]
        alone = np.concatenate([PinvMap().evaluate_deltas(data, support, row[None])
                                for row in deltas])
        assert np.array_equal(gains, alone, equal_nan=True)


class TestProgrammingErrorsSurface:
    """A map bug raises out of every batched caller instead of counting as a skip.

    Each test checks a TypeError and a ValueError, the error numpy raises for
    a shape bug.
    """

    ERRORS = (TypeError, ValueError)

    @staticmethod
    def buggy(data, error):
        return BuggyMap(CeLqrMap(), data.x_vec, error)

    def test_fd_jacobian(self, vehicle_setup):
        _, data, support = vehicle_setup
        for error in self.ERRORS:
            with pytest.raises(error, match="unsupported operand"):
                fd_jacobian(self.buggy(data, error), data, support)

    def test_estimate_instability(self, vehicle_setup, k_ce):
        sys, data, support = vehicle_setup
        model = PerturbationModel(support, np.full(20, 0.1))
        for error in self.ERRORS:
            with pytest.raises(error, match="unsupported operand"):
                estimate_instability(sys, data, self.buggy(data, error), k_ce, model, 10,
                                     seed=0)

    def test_lemma1_residual(self, vehicle_setup):
        sys, data, support = vehicle_setup
        model = PerturbationModel(support, 0.1)
        for error in self.ERRORS:
            with pytest.raises(error, match="unsupported operand"):
                lemma1_residual(self.buggy(data, error), sys, data, model, [1.0], trials=5)
