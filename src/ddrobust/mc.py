"""Monte Carlo estimation of the instability probability under Gaussian
perturbation of the training data.

Each trial draws the perturbation from its own generator keyed by
(seed, trial index), so estimates are reproducible and independent of
execution order; trials may be evaluated concurrently without changing the
result. Trial t's stream is numpy's ``SeedSequence(seed, spawn_key=(t,))``
stream, a stable contract, with the seeds of all trials hashed in one pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import spectral_radius
from .lti import LtiSystem, TrainingData
from .ctrlmaps import ControllerMap, evaluate_perturbed
from .sensitivity import B_SOURCE_TRUE, JacobianBundle, PerturbationModel, fd_jacobian, first_order_acl
from .bounds import StabilityError

MODE_EXACT = "exact"
MODE_FIRST_ORDER = "first_order"

_WILSON_Z95 = 1.959963984540054

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _POOL_SIZE, _MASK32 = 0xCA01F9DD, 0x4973F715, 4, 0xFFFFFFFF


class NoEstimateError(RuntimeError):
    """Every Monte Carlo trial failed, so no estimate exists."""


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    unstable_count: int
    skipped: int
    p_hat: float
    ci_low: float
    ci_high: float
    mode: str
    seed: int
    b_source: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


def wilson_interval(successes: int, n: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if n <= 0:
        raise ValueError("Wilson interval needs at least one observation")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    # The endpoints bracket p analytically; rounding can leave a ~1e-18
    # residue at the boundary cases, so pin them to the bracket exactly.
    low = min(max(0.0, center - half), p)
    high = max(min(1.0, center + half), p)
    return low, high


def _hashmix(value, const, mult: int = _MULT_A):
    """SeedSequence's hashmix of uint32 words (ints or arrays); returns the next const too."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    mixed = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return mixed ^ mixed >> 16


def _successive(const: int, mult: int, n: int) -> np.ndarray:
    """The hash constants of n successive hashmix calls from ``const``."""
    return np.array([const * pow(mult, i, 1 << 32) & _MASK32 for i in range(n)], dtype=np.uint32)


def _spawn_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)`` for every t
    in ``trials``, as (N, 4) uint64: numpy's hash with the seed's 32-bit words (low
    first, zero-padded to the pool size) and then t as the entropy words."""
    seed, trials = operator.index(seed), np.asarray(trials, dtype=np.int64)
    lanes = trials.astype(np.uint32)
    if seed < 0 or (lanes != trials).any():
        raise ValueError(f"need a seed >= 0 and trial indices in [0, 2**32), got seed {seed}")
    run = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 32 * _POOL_SIZE), 32)]
    # The seed's words are the same for every trial, so they are mixed as ints.
    const, pool = _INIT_A, []
    for word in run[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(len(run)):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src] if src < _POOL_SIZE else run[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    # t mixes into pool word d at the d-th next constant: one (N, 4) step.
    hashed, _ = _hashmix(lanes[:, None], _successive(const, _MULT_A, _POOL_SIZE))
    pool = _mix(np.array(pool, dtype=np.uint32), hashed)
    state, _ = _hashmix(np.tile(pool, 2), _successive(_INIT_B, _MULT_B, 8), _MULT_B)
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32  # little-endian word pairs


@dataclass(frozen=True)
class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the seed words ``_spawn_words`` computed for one trial."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("these seed words serve generate_state(4, np.uint64) only")
        return self.words


def _trial_rngs(seed: int, trials: np.ndarray):
    """Lazily, the stream of every trial in ``trials`` (see ``trial_rng``)."""
    return (np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _spawn_words(seed, trials))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Trial ``trial``'s stream: numpy's ``SeedSequence(seed, spawn_key=(trial,))`` stream."""
    return next(_trial_rngs(seed, [trial]))


def sample_z(model: PerturbationModel, rng: np.random.Generator) -> np.ndarray:
    """Draw the perturbation values on the support, z_i ~ N(0, sigma_i^2)."""
    return rng.standard_normal(model.size) * model.sigmas


def random_support(p_n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct uniform indices into vec(X), sorted ascending."""
    if k > p_n:
        raise ValueError(f"cannot pick {k} distinct indices out of {p_n}")
    return np.sort(rng.choice(p_n, size=k, replace=False))


def estimate_instability(
    sys: LtiSystem,
    data: TrainingData,
    cmap: ControllerMap,
    k_nom: np.ndarray,
    model: PerturbationModel,
    trials: int,
    mode: str = MODE_EXACT,
    seed: int = 0,
    bundle: JacobianBundle | None = None,
) -> MonteCarloReport:
    """Estimate P[rho of the perturbed closed loop >= 1].

    ``k_nom`` is the map's gain on the unperturbed data, which the caller
    has already evaluated. ``exact`` mode re-runs the controller map on
    every perturbed copy of the data (one batched evaluation);
    ``first_order`` tests the linearized closed loop instead (the bundle is
    computed with the true B when not supplied). Numerical map failures on a
    sample are skipped and counted; the estimate conditions on success.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode not in (MODE_EXACT, MODE_FIRST_ORDER):
        raise ValueError(f"unknown mode {mode!r}")
    a_cl = sys.a + sys.b @ k_nom
    rho_nom = spectral_radius(a_cl)
    if rho_nom >= 1.0:
        raise StabilityError(
            f"nominal closed loop is unstable (rho = {rho_nom:.6g}); refusing to estimate"
        )
    if np.any(model.support >= data.p * data.n_experiments):
        raise ValueError("perturbation support out of range for vec(X)")

    if mode == MODE_FIRST_ORDER and bundle is None:
        bundle = fd_jacobian(cmap, data, model.support).with_b(sys.b, B_SOURCE_TRUE)
    if mode == MODE_FIRST_ORDER and not np.array_equal(bundle.support, model.support):
        raise ValueError("first-order mode needs a bundle on the model's support")

    # sample_z for every trial, without a public call per trial.
    z = model.sigmas * [g.standard_normal(model.size) for g in _trial_rngs(seed, np.arange(trials))]
    if mode == MODE_EXACT:
        # A failed evaluation is a non-finite gain, so its loop gets rho NaN.
        loops = sys.a + sys.b @ evaluate_perturbed(cmap, data, model.support, z)
    else:
        loops = first_order_acl(a_cl, bundle, z)
    rho = spectral_radius(loops)
    # A NaN rho is a failed trial; an infinite rho of a finite loop is unstable.
    measured = ~np.isnan(rho)
    unstable = int(np.sum(rho[measured] >= 1.0))
    effective = int(np.sum(measured))
    if effective == 0:
        raise NoEstimateError("every trial failed; no estimate available")
    p_hat = unstable / effective
    ci_low, ci_high = wilson_interval(unstable, effective)
    return MonteCarloReport(
        trials=trials,
        unstable_count=unstable,
        skipped=trials - effective,
        p_hat=p_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        mode=mode,
        seed=seed,
        b_source=bundle.b_source if bundle is not None else None,
    )
