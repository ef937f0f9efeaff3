"""Monte Carlo estimation of the instability probability under Gaussian
perturbation of the training data.

Each trial draws the perturbation from its own generator keyed by
(seed, trial index), so estimates are reproducible and independent of
execution order; trials may be evaluated concurrently without changing the
result.
"""

from __future__ import annotations

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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, a pure function of (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


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

    z = np.stack([sample_z(model, trial_rng(seed, trial)) for trial in range(trials)])
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
