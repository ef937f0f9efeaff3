"""Monte Carlo estimators under Gaussian perturbation of the training data:
the instability probability and the Lemma-1 remainder of the linearization.

Both draw through ``sample_z``: trial t's row comes from numpy's
``SeedSequence(seed, spawn_key=(t,))`` stream, a stable contract. The seeds
of all trials are hashed in one pass that starts from the pool of
``SeedSequence(seed)``, which the trials share. So estimates are reproducible,
and a row depends neither on how many trials are drawn nor on their
evaluation order. Nothing else is drawn: ``expected_vec_norm`` is exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import spectral_radius, unstable
from .lti import LtiSystem, TrainingData, as_support
from .ctrlmaps import ControllerMap
from .sensitivity import B_SOURCE_TRUE, JacobianBundle, PerturbationModel, fd_jacobian, first_order_acl
from .bounds import StabilityError

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

    def to_json(self) -> dict:
        return asdict(self)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("Wilson interval needs at least one observation")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    p = successes / n
    z = _WILSON_Z95
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    # The endpoints bracket p analytically; rounding can leave a ~1e-18
    # residue at the boundary cases, so pin them to the bracket exactly.
    low = min(max(0.0, center - half), p)
    high = max(min(1.0, center + half), p)
    return low, high


def _hashmix(value: np.ndarray, const: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, each with its own hash constant."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    mixed = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return mixed ^ mixed >> 16


def _successive(const: int, mult: int, start: int, n: int) -> np.ndarray:
    """The hash constants of hashmix calls start .. start + n - 1 from ``const``."""
    return np.array([const * pow(mult, i, 1 << 32) & _MASK32 for i in range(start, start + n)],
                    dtype=np.uint32)


def _spawn_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)`` for every t
    in ``trials``, as (N, 4) uint64. numpy mixes the seed's 32-bit words into the
    pool first, which leaves ``SeedSequence(seed).pool`` after
    _POOL_SIZE * max(_POOL_SIZE, words) hashmix calls; t is then the next entropy
    word, mixed into every pool word."""
    seed, trials = operator.index(seed), np.asarray(trials, dtype=np.int64)
    lanes = trials.astype(np.uint32)
    if seed < 0 or (lanes != trials).any():
        raise ValueError(f"need a seed >= 0 and trial indices in [0, 2**32), got seed {seed}")
    words = max(1, -(-seed.bit_length() // 32))
    # t mixes into pool word d at the d-th next constant: one (N, 4) step.
    consts = _successive(_INIT_A, _MULT_A, _POOL_SIZE * max(_POOL_SIZE, words), _POOL_SIZE)
    pool = _mix(np.random.SeedSequence(seed).pool, _hashmix(lanes[:, None], consts))
    state = _hashmix(np.tile(pool, 2), _successive(_INIT_B, _MULT_B, 0, 8), _MULT_B)
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32  # little-endian word pairs


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the seed words ``_spawn_words`` computed for one trial.

    A plain class: as a frozen dataclass, whose ``__init__`` sets the field
    through ``object.__setattr__``, it made ``sample_z`` 1.6x slower (1000
    trials, k = 10). ``sample_z`` sets ``words`` anew for each trial on one
    holder, as PCG64 copies the words into its own state when it is built.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself; the identity test spares it np.dtype().
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("these seed words serve generate_state(4, np.uint64) only")
        return self.words


def sample_z(model: PerturbationModel, seed: int, trials: int) -> np.ndarray:
    """(trials, k) perturbation values on the support, z_i ~ N(0, sigma_i^2).

    Row t is drawn from trial t's stream, numpy's ``SeedSequence(seed,
    spawn_key=(t,))`` stream, so it does not depend on how many rows are drawn.
    """
    z = np.empty((trials, model.size))
    holder = _SeedWords(None)
    for row, words in zip(z, _spawn_words(seed, np.arange(trials))):
        holder.words = words
        np.random.Generator(np.random.PCG64(holder)).standard_normal(out=row)
    return z * model.sigmas


def random_support(p_n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct uniform indices into vec(X), sorted ascending."""
    if k > p_n:
        raise ValueError(f"cannot pick {k} distinct indices out of vec(X) of length {p_n}")
    return np.sort(rng.choice(p_n, size=k, replace=False))


def estimate_instability(
    sys: LtiSystem,
    data: TrainingData,
    cmap: ControllerMap,
    k_nom: np.ndarray,
    model: PerturbationModel,
    trials: int,
    seed: int = 0,
    bundle: JacobianBundle | None = None,
) -> MonteCarloReport:
    """Estimate P[rho of the perturbed closed loop >= 1].

    ``k_nom`` is the map's gain on the unperturbed data, which the caller
    has already evaluated. With no ``bundle`` (mode ``exact``) the controller
    map is evaluated at every perturbed vec(X) in one ``evaluate_deltas`` call
    (the shipped maps update their nominal fit and build no perturbed record).
    With one (mode ``first_order``) the linearized closed loop
    A_cl + sum_i z_i B J_i of ``bundle`` is tested, which the caller builds on
    the model's support with the B of its choice. Numerical map failures on a
    sample are skipped and counted; the estimate conditions on success.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a_cl = sys.a + sys.b @ k_nom
    rho_nom = spectral_radius(a_cl)
    if rho_nom >= 1.0:
        raise StabilityError(f"nominal closed loop is not stable: rho = {rho_nom:.6g}")
    as_support(model.support, data.x.size)
    if bundle is not None and not np.array_equal(bundle.support, model.support):
        raise ValueError("the bundle must be on the model's support")

    z = sample_z(model, seed, trials)
    if bundle is None:
        # A failed evaluation is a non-finite gain, so its loop gets rho NaN.
        loops = sys.a + sys.b @ cmap.evaluate_deltas(data, model.support, z)
    else:
        loops = first_order_acl(a_cl, bundle, z)
    # A NaN verdict is a failed trial; an infinite rho of a finite loop is unstable.
    verdict = unstable(loops)
    count = int(np.nansum(verdict))
    effective = int(np.sum(~np.isnan(verdict)))
    if effective == 0:
        raise NoEstimateError("every trial failed; no estimate available")
    p_hat = count / effective
    ci_low, ci_high = wilson_interval(count, effective)
    return MonteCarloReport(
        trials=trials,
        unstable_count=count,
        skipped=trials - effective,
        p_hat=p_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        mode="exact" if bundle is None else "first_order",
        seed=seed,
    )


def expected_vec_norm(sigmas) -> float:
    """E ||vec(Z)|| for independent zero-mean Gaussians with these positive sigmas.

    E sqrt(Q) = int_0^inf (1 - E exp(-tQ)) t^(-3/2) dt / (2 sqrt(pi)) with
    E exp(-tQ) = prod_i (1 + 2 t sigma_i^2)^(-1/2). With t = e^u / s^2, s the
    largest sigma, the integrand decays like e^(-|u|/2), and one uniform-grid
    sum over u in [-60, 60] holds it to ~1e-12 relative for any k and scale.
    Equal sigmas share one column of the log-mgf sum.
    """
    values, counts = np.unique(np.asarray(sigmas, dtype=float), return_counts=True)
    if values.size == 0:
        raise ValueError("expected_vec_norm needs at least one sigma")
    if not 0.0 < values[0] <= values[-1] < math.inf:
        raise ValueError("all sigmas must be positive and finite")
    scale = values[-1]
    u, du = np.linspace(-60.0, 60.0, 2401, retstep=True)
    log_mgf = -0.5 * (np.log1p(2.0 * np.outer(np.exp(u), (values / scale) ** 2)) @ counts)
    integrand = -np.expm1(log_mgf) * np.exp(-0.5 * u)  # (1 - E exp(-tQ)) t^(-3/2) dt/du, over s
    return float(scale * np.sum(integrand) * du / (2.0 * math.sqrt(math.pi)))


@dataclass(frozen=True)
class ResidualStat:
    """Normalized first-order remainder at one perturbation scale."""

    scale: float
    mean_residual: float
    trials: int
    skipped: int


def lemma1_residual(
    cmap,
    sys: LtiSystem,
    data: TrainingData,
    model: PerturbationModel,
    sigma_scales,
    trials: int,
    seed: int = 0,
) -> list[ResidualStat]:
    """Compare the exact perturbed closed loop against its linearization.

    For each scale s the statistic is
    mean ||A~_exact - A~_first_order|| / sqrt(E ||vec Z||) over ``trials``
    draws of Z with sigmas scaled by s. Every scale scales the same draws
    (common random numbers), row t from trial t's stream as in ``sample_z``.
    Numerical map failures are skipped and counted. Every scale must be
    non-negative and finite.
    """
    sigma_scales = list(sigma_scales)
    if not all(0.0 <= scale < math.inf for scale in sigma_scales):
        raise ValueError(f"sigma scales must be non-negative and finite, got {sigma_scales}")
    bundle = fd_jacobian(cmap, data, model.support)
    a_cl = sys.a + sys.b @ bundle.nominal_gain(cmap, data)
    bundle = bundle.with_b(sys.b, B_SOURCE_TRUE)
    z_unit = sample_z(model, seed, trials)
    norm_unit = expected_vec_norm(model.sigmas)  # E ||vec sZ|| = s E ||vec Z||
    stats = []
    for scale in sigma_scales:
        z = z_unit * scale
        gains = cmap.evaluate_deltas(data, model.support, z)
        ok = np.all(np.isfinite(gains), axis=(1, 2))
        exact = sys.a + sys.b @ gains[ok]
        approx = first_order_acl(a_cl, bundle, z[ok])
        if scale > 0:
            residuals = (np.linalg.norm(exact - approx, 2, axis=(-2, -1))
                         / math.sqrt(scale * norm_unit))
        else:
            residuals = np.zeros(int(np.sum(ok)))
        stats.append(
            ResidualStat(
                scale=float(scale),
                mean_residual=float(np.mean(residuals)) if residuals.size else math.nan,
                trials=trials,
                skipped=int(trials - np.sum(ok)),
            )
        )
    return stats
