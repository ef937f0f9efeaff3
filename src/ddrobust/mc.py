"""Monte Carlo estimators under Gaussian perturbation of the training data:
the instability probability and the Lemma-1 remainder of the linearization.

Both draw through ``sample_z``: trial t's row comes from numpy's
``SeedSequence(seed, spawn_key=(t,))`` stream, a stable contract. The seeds
of all trials are hashed in one pass that starts from the pool of
``SeedSequence(seed)``, which the trials share. On a large enough draw the
streams are then stepped in lockstep: numpy's PCG64 (XSL-RR output; O'Neill,
HMC-CS-2014-0905) on uint64 halves, each output decoded by the fast branch
of numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000), whose
layer widths are read off numpy's own sampler at import; every layer but
layer 1, which numpy never keeps, has one. numpy draws every other row
itself, one ``Generator`` per trial: a row with a draw off that branch
(about 14% of the rows at k = 10), and every row of a draw too small or too
wide for the lockstep.
So estimates are reproducible, and a row depends neither on how many trials
are drawn nor on their evaluation order. Nothing else is drawn:
``expected_vec_norm`` is exact. First-order loops are one matrix product
(``first_order_acl``), equal to the support-order sum to rounding only; the
draws, verdicts and counts stay bit-stable, bar a loop within that of rho = 1.
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
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64). The lockstep step
# takes its 64-bit halves, its low half's 32-bit limbs and the limbs' shift
# and mask as 0-d uint64 arrays, which ufuncs take faster than numpy scalars
# (a step over 1000 trials: 16 against 20 us).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MULT_HI, _MULT_LO, _MULT_LO1, _MULT_LO0, _U32, _LOW32 = (np.array(v, dtype=np.uint64) for v in (
    _PCG_MULT >> 64, _PCG_MULT & (1 << 64) - 1, _PCG_MULT >> 32 & _MASK32, _PCG_MULT & _MASK32,
    32, _MASK32))
# sample_z draws in lockstep from this many trials on, on supports of at most
# this many entries, this many trials at a time. Measured on one thread, the
# per-trial loop is faster below about 100 trials at k = 10 and 280 at k = 20,
# and above k = 33 at 1000 trials.
_LOCKSTEP_MIN_TRIALS, _LOCKSTEP_MAX_K, _LOCKSTEP_MAX_CHUNK = 256, 20, 2048
# The right edge of the ziggurat's base strip (numpy's ziggurat_nor_r).
_ZIG_NOR_R = 3.6541528853610088


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


# Seed-independent: the spawn key's constants for seeds of up to _POOL_SIZE
# 32-bit words, and generate_state's.
_SPAWN_CONSTS = _successive(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE, _POOL_SIZE)
_STATE_CONSTS = _successive(_INIT_B, _MULT_B, 0, 8)


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
    consts = (_SPAWN_CONSTS if words <= _POOL_SIZE
              else _successive(_INIT_A, _MULT_A, _POOL_SIZE * words, _POOL_SIZE))
    pool = _mix(np.random.SeedSequence(seed).pool, _hashmix(lanes[:, None], consts))
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTS, _MULT_B).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32  # little-endian word pairs


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the seed words of one trial's stream, which ``_spawn_words``
    computed, in ``sample_z``'s per-trial loop.

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


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * _PCG_MULT + inc mod 2**128, on uint64 halves;
    the high half of lo * _MULT_LO comes from 32-bit limbs."""
    lo1, lo0 = lo >> _U32, lo & _LOW32
    low = lo0 * _MULT_LO0
    mid = lo1 * _MULT_LO0 + (low >> _U32)
    cross = (mid & _LOW32) + lo0 * _MULT_LO1
    hi = lo1 * _MULT_LO1 + (mid >> _U32) + (cross >> _U32) + lo * _MULT_HI + hi * _MULT_LO + inc_hi
    lo = lo * _MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _set_next_output(bitgen: np.random.PCG64, output: int) -> None:
    """Set ``bitgen``'s documented state so that its next output is ``output``:
    inc = 1, and the state after the step is ``output`` (high half 0, so no
    rotation)."""
    bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                    "state": {"state": (output - 1) * _PCG_MULT_INV % (1 << 128), "inc": 1}}


def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard-normal ziggurat fast branch, indexed by an output's low
    9 bits (layer, then sign): the signed layer width, read off numpy's own
    sampler by one draw whose first output has rabs = 1, and the bound below
    which rabs is kept, less 1e-12 relative (which leaves the kept region
    inside numpy's). Layer 0, the base strip, keeps rabs below
    floor(_ZIG_NOR_R / w[0]), and layer i >= 2 below floor(2**52 w[i-1] / w[i]).
    Layer 1 keeps nothing, as numpy's own bound there is 0; its draw at
    rabs = 1 still returns its width, through the wedge test."""
    bitgen = np.random.PCG64(0)
    normal = np.random.Generator(bitgen).standard_normal
    widths = np.empty(256)
    for layer in range(256):
        _set_next_output(bitgen, 1 << 9 | layer)
        widths[layer] = normal()
    bounds = np.zeros(256, dtype=np.uint64)
    bounds[0] = math.floor((1.0 - 1e-12) * _ZIG_NOR_R / widths[0])
    bounds[2:] = np.floor((1.0 - 1e-12) * 2.0**52 * widths[1:-1] / widths[2:])
    return np.concatenate([widths, -widths]), np.tile(bounds, 2)


_ZIG_WIDTHS, _ZIG_BOUNDS = _ziggurat_tables()


def _lockstep_normals(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Draws ``out`` (N, k) from the N streams of ``words`` in lockstep, and
    returns which rows are numpy's draw: those whose k draws all took the
    ziggurat's fast branch. Each step outputs rotr64(hi ^ lo, hi >> 58)."""
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    lo = s_lo + inc_lo  # numpy's pcg64_set_seed: state = (inc + s) * mult + inc
    hi, lo = _pcg_step(s_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    draws = np.empty(out.shape[::-1], dtype=np.uint64)
    for row in draws:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        mixed, rot = hi ^ lo, hi >> 58
        np.bitwise_or(mixed >> rot, mixed << (-rot & 63), out=row)
    branch, rabs = draws & 0x1FF, draws >> 9 & (1 << 52) - 1
    np.multiply(rabs.T, _ZIG_WIDTHS.take(branch.T), out=out)
    return np.all(rabs < _ZIG_BOUNDS.take(branch), axis=0)


def sample_z(model: PerturbationModel, seed: int, trials: int) -> np.ndarray:
    """(trials, k) perturbation values on the support, z_i ~ N(0, sigma_i^2).

    Row t is drawn from trial t's stream, numpy's ``SeedSequence(seed,
    spawn_key=(t,))`` stream, so it does not depend on how many rows are drawn.
    From _LOCKSTEP_MIN_TRIALS trials on, with k <= _LOCKSTEP_MAX_K, every
    stream is stepped in lockstep, and only the rows with a draw off the
    ziggurat's fast branch are drawn again by numpy, one trial at a time.
    """
    try:
        count = operator.index(trials)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials!r}")
    words = _spawn_words(seed, np.arange(count))
    z = np.empty((count, model.size))
    redo = np.ones(count, dtype=bool)
    if count >= _LOCKSTEP_MIN_TRIALS and model.size <= _LOCKSTEP_MAX_K:
        for start in range(0, count, _LOCKSTEP_MAX_CHUNK):
            chunk = slice(start, start + _LOCKSTEP_MAX_CHUNK)
            redo[chunk] = ~_lockstep_normals(words[chunk], z[chunk])
    holder = _SeedWords(None)
    for row in np.flatnonzero(redo).tolist():
        holder.words = words[row]
        np.random.Generator(np.random.PCG64(holder)).standard_normal(out=z[row])
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
