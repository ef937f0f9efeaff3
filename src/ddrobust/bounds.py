"""Closed-form stability certificates for the perturbed closed loop.

Given the B J_i sensitivity products and the per-entry noise levels, these
routines evaluate the two-sided probability bounds on instability, the
support-size convergence rate, and the coarse variance envelope
sigma_max^2 |supp| J_max^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import (
    EigensolverError,
    as_matrix,
    eigenvalues,
    q_function,
    spectral_radius,
)
from .sensitivity import JacobianBundle, _checked_loop, _require_bj


# The largest sigma whose square is finite.
_SIGMA_MAX = math.sqrt(np.finfo(float).max)


class StabilityError(RuntimeError):
    """The nominal closed loop violates the standing stability assumption."""


class EnvelopeError(ArithmeticError):
    """v_bar exceeds its variance envelope: the Jacobian bundle is broken."""


@dataclass(frozen=True)
class BoundsReport:
    """Everything the two-sided certificate produces for one configuration."""

    v_bar: float
    v_lower: float
    kappa: float
    mu: float
    rho_nominal: float
    lower: float
    upper_raw: float
    upper_clamped: float
    n: int

    def to_json(self) -> dict:
        return asdict(self)


def _checked(bundle: JacobianBundle, sigmas) -> tuple[np.ndarray, np.ndarray]:
    """The B J_i stack and the sigmas as a vector, one per support entry,
    refused unless every sigma is >= 0 with a finite variance sigma^2."""
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    if sigmas.size != bundle.size:
        raise ValueError(f"need {bundle.size} sigmas, got {sigmas.size}")
    bad = ~((sigmas >= 0.0) & (sigmas <= _SIGMA_MAX))
    if bad.any():
        raise ValueError("sigmas must be >= 0 with a finite variance sigma^2, "
                         f"got sigma = {float(sigmas[bad][0])!r}")
    return _require_bj(bundle), sigmas


def j_max(bundle: JacobianBundle) -> float:
    """Worst-case sensitivity J_max = max_i ||B J_i|| over the support.

    As ||M||_F / sqrt(n) <= sigma_max(M) <= ||M||_F, items below the top norm
    / sqrt(n) get no SVD; LAPACK works item by item, so J_max is unchanged.
    """
    bj = _require_bj(bundle)
    norms = np.linalg.norm(bj, axis=(1, 2))
    cut = (1.0 - 1e-8) * norms.max() / math.sqrt(bj.shape[1])
    near = bj[norms >= cut] if 1e-140 < cut < 1e140 else bj  # squares in range, no NaN
    return float(np.max(np.linalg.svd(near, compute_uv=False)[:, 0]))


def variance_params(bundle: JacobianBundle, sigmas) -> tuple[float, float]:
    """Variance proxies of the perturbation as seen by the closed loop.

    Returns (v_bar, v_lower): the matrix-variance norm driving the upper
    bound and the scalar trace variance driving the lower bound.
    """
    bj, sigmas = _checked(bundle, sigmas)
    s2 = sigmas**2
    left = np.tensordot(s2, np.matmul(bj, np.transpose(bj, (0, 2, 1))), axes=1)
    right = np.tensordot(s2, np.matmul(np.transpose(bj, (0, 2, 1)), bj), axes=1)
    v_bar = float(np.linalg.svd(np.stack([left, right]), compute_uv=False)[:, 0].max())
    traces = np.trace(bj, axis1=1, axis2=2)
    v_lower = float(np.sum(s2 * traces**2))
    return v_bar, v_lower


def _q_ratio(numerator: float, variance: float) -> float:
    """Q(numerator / sqrt(variance)) with the variance -> 0 limit built in."""
    if variance > 0.0:
        return q_function(numerator / math.sqrt(variance))
    if numerator > 0.0:
        return 0.0
    if numerator < 0.0:
        return 1.0
    return 0.5


def theorem1_sweep(a_cl, bundle: JacobianBundle, scales) -> list[BoundsReport]:
    """Theorem-1 report per scale s, every support entry at noise level s.

    lower = Q((n+mu)/sqrt(v_lower)) + Q((n-mu)/sqrt(v_lower)) and
    upper = 2n exp(-(1-rho)^2 / (2 v_bar kappa^2)) bound P[rho(A_cl + Delta) >= 1],
    with (v_bar, v_lower) = ``variance_params(bundle, sigmas)`` at sigmas all s,
    after ``jmax_envelope``'s test. An A_cl not of the shape of the bundle's
    B J_i, unstable or singular is refused once, before any scale; rho,
    kappa, mu and J_max are computed once. The raw upper bound may exceed one
    and is reported both raw and clamped; a tail that underflows is reported
    as computed, 0 or subnormal.
    """
    a_cl = _checked_loop(a_cl, bundle)
    rho = spectral_radius(a_cl)
    if rho >= 1.0:
        raise StabilityError(f"nominal closed loop is not stable: rho = {rho:.6g}")
    kappa = float(np.linalg.cond(a_cl))
    if math.isinf(kappa):
        raise StabilityError("A_cl is singular; its condition number is undefined")
    n = a_cl.shape[0]
    mu = float(np.trace(a_cl))
    worst = j_max(bundle)
    reports = []
    for scale in scales:
        sigma = float(scale)
        v_bar, v_lower = variance_params(bundle, np.full(bundle.size, sigma))
        _envelope(v_bar, sigma, bundle.size, worst)
        lower = _q_ratio(n + mu, v_lower) + _q_ratio(n - mu, v_lower)
        if v_bar > 0.0:
            exponent = -((1.0 - rho) ** 2) / (2.0 * v_bar * kappa**2)
            upper_raw = 2.0 * n * math.exp(exponent)
        else:
            upper_raw = 0.0
        reports.append(BoundsReport(
            v_bar=float(v_bar),
            v_lower=float(v_lower),
            kappa=kappa,
            mu=mu,
            rho_nominal=rho,
            lower=float(lower),
            upper_raw=float(upper_raw),
            upper_clamped=float(min(1.0, upper_raw)),
            n=n,
        ))
    return reports


@dataclass(frozen=True)
class RateBound:
    """Support-size rate bound built from the worst diagonal sensitivity.

    ``chain_holds`` records whether v_lower >= n^2 gamma^2 |supp| on this
    instance; the derivation presumes it, but mixed-sign trace patterns can
    break it numerically, so it is observed rather than asserted.
    """

    gamma: float
    support_size: int
    bound: float
    chain_holds: bool


def theorem2_rate(bundle: JacobianBundle, sigmas) -> RateBound:
    """Lower-bound rate 2 Q(2 / sqrt(gamma^2 |supp|)).

    gamma = min_i sigma_i * (min of diag(B J_i)); the bound grows to one
    as the support grows, independently of the state dimension.
    """
    bj, sigmas = _checked(bundle, sigmas)
    _, v_lower = variance_params(bundle, sigmas)
    alphas = np.min(np.diagonal(bj, axis1=1, axis2=2), axis=1)
    gamma = float(np.min(sigmas * alphas))
    k = bundle.size
    if gamma == 0.0:
        bound = 0.0
    else:
        bound = 2.0 * q_function(2.0 / math.sqrt(gamma**2 * k))
    n = bj.shape[1]
    chain_holds = bool(v_lower >= n**2 * gamma**2 * k)
    return RateBound(gamma=gamma, support_size=k, bound=bound, chain_holds=chain_holds)


@dataclass(frozen=True)
class JmaxEnvelope:
    sigma_max: float
    j_max: float
    envelope: float
    v_bar: float


def jmax_envelope(bundle: JacobianBundle, sigmas) -> JmaxEnvelope:
    """Coarse envelope sigma_max^2 |supp| J_max^2 dominating v_bar.

    The containment v_bar <= envelope is a theorem; a numerical violation
    beyond 1e-10 of the envelope indicates a broken bundle and raises. Both
    sides scale as sigma^2, so the tolerance is relative.
    """
    v_bar, _ = variance_params(bundle, sigmas)
    worst = j_max(bundle)
    sigma_max = float(np.max(sigmas))
    envelope = _envelope(v_bar, sigma_max, bundle.size, worst)
    return JmaxEnvelope(sigma_max=sigma_max, j_max=worst, envelope=envelope, v_bar=v_bar)


def _envelope(v_bar: float, sigma_max: float, size: int, worst: float) -> float:
    """sigma_max^2 |supp| J_max^2, which must dominate v_bar to 1e-10 relative."""
    envelope = sigma_max**2 * size * worst**2
    if v_bar > envelope * (1.0 + 1e-10):
        raise EnvelopeError(
            f"envelope violated: v_bar = {v_bar!r} > envelope = {envelope!r}"
        )
    return float(envelope)


@dataclass(frozen=True)
class BauerFikeResult:
    samples: int
    kappa_v: float
    kappa_paper: float
    violations_kappa_v: int
    violations_kappa_paper: int


def bauer_fike_check(a_cl, delta_samples) -> BauerFikeResult:
    """Count violations of the eigenvalue perturbation containment.

    Checks rho(A_cl + Delta) <= rho(A_cl) + kappa(V) ||Delta|| for every
    sample (the literally-true eigenvector-matrix form) and also tallies how
    often the operator-condition-number variant holds. Every sample must be
    a finite matrix of the shape of A_cl.
    """
    a_cl = as_matrix(a_cl, "A_cl")
    spec = eigenvalues(a_cl)
    if not spec.diagonalizable:
        raise ValueError("Bauer-Fike check requires a diagonalizable matrix")
    deltas = np.asarray(delta_samples, dtype=float)
    if deltas.shape[1:] != a_cl.shape or not np.all(np.isfinite(deltas)):
        raise ValueError(f"Delta samples must be finite {a_cl.shape[0]}x{a_cl.shape[1]} "
                         f"matrices, got shape {deltas.shape}")
    norms = np.linalg.svd(deltas, compute_uv=False)[:, 0]
    rho = spectral_radius(a_cl + deltas)
    if np.isnan(rho).any():
        raise EigensolverError("eigenvalue iteration did not converge")
    kappa_paper = float(np.linalg.cond(a_cl))
    return BauerFikeResult(
        samples=len(deltas),
        kappa_v=spec.kappa_v,
        kappa_paper=kappa_paper,
        violations_kappa_v=int(np.sum(rho > spec.spectral_radius + spec.kappa_v * norms)),
        violations_kappa_paper=int(np.sum(rho > spec.spectral_radius + kappa_paper * norms)),
    )
