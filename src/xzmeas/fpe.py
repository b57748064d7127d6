"""Fokker-Planck backend: heat kernel on the circle and conditioned densities.

Provides a fully independent route to the conditional averages of the ideal
XZ case: the transition probability solves the diffusion equation on the
circle, the two-sided densities condition it on both boundary states, and the
source averages come out either as a rapidly convergent series or (for test
oracles) by direct quadrature.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analytic import BoundaryCondition, SeriesError, _check_tails, _normalize_sources, _scaled_sum
from .core import DomainError

#: crossover D*(t - t0) between wrapped-Gaussian and Fourier-series evaluation
CROSSOVER = 0.01

#: exp(-a) is exactly 0.0 in double precision for a above 745.14; with margin
_EXP_UNDERFLOW = 746.0


class ConditioningError(RuntimeError):
    """Post-selection probability vanished numerically."""


@dataclass(frozen=True)
class KernelParams:
    """Diffusion constant D = 1/(2 tau_m) and a winding/mode cap."""

    diffusion: float
    n_max: int = 128

    def __post_init__(self):
        if self.diffusion <= 0:
            raise DomainError("diffusion must be positive")

    @classmethod
    def from_tau(cls, tau_m: float, n_max: int = 128) -> "KernelParams":
        return cls(diffusion=1.0 / (2.0 * tau_m), n_max=n_max)


def transition_prob(theta, t: float, theta0: float, t0: float, kp: KernelParams):
    """Heat-kernel density P(theta, t | theta0, t0) on the circle.

    Fourier series for diffusive spreads, wrapped Gaussian below the
    crossover; both converge to 1e-14 in the overlap region.  ``theta`` may
    be an array.  The kernel is symmetric under theta <-> theta0 (detailed
    balance w.r.t. the uniform measure).
    """
    if t <= t0:
        raise DomainError("transition_prob requires t > t0")
    x = kp.diffusion * (t - t0)
    d = np.asarray(theta, dtype=float) - np.asarray(theta0, dtype=float)
    if x < CROSSOVER:
        result = _wrapped_gaussian(d, x, kp.n_max)
    else:
        result = _fourier_kernel(d, x, kp.n_max)
    if isinstance(theta, np.ndarray) or isinstance(theta0, np.ndarray):
        return result
    return float(result)


def _wrapped_gaussian(d, x: float, n_max: int):
    """Heat kernel as a wrapped Gaussian of variance 2x, x = D*(t - t0).

    Sums only the windings n in [-n_max, n_max] with u^2/(2 var) <=
    ``_EXP_UNDERFLOW`` for some d, u = d + 2 pi n, in increasing order.  Every
    other term is exactly 0.0, so the sum is bit-identical to the full one.
    """
    var = 2.0 * x
    out = np.zeros_like(d)
    lo, hi = -n_max, n_max
    if out.size and np.isfinite(d).all():
        reach = math.sqrt(2 * var * _EXP_UNDERFLOW)
        lo = max(lo, math.ceil((-reach - d.max()) / (2 * math.pi)))
        hi = min(hi, math.floor((reach - d.min()) / (2 * math.pi)))
    for n in range(lo, hi + 1):
        u = d + 2 * math.pi * n
        out += np.exp(-(u**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
    return out


def _fourier_kernel(d, x: float, n_max: int):
    """Heat kernel as a cosine series, truncated adaptively at 1e-14."""
    out = np.ones_like(d)
    for n in range(1, n_max + 1):
        amp = math.exp(-x * n * n)
        out += 2.0 * amp * np.cos(n * d)
        if amp < 1e-14:
            break
    else:
        raise SeriesError("heat-kernel Fourier series not converged")
    return out / (2 * math.pi)


def two_sided_density(theta, t: float, bc: BoundaryCondition, kp: KernelParams):
    """Density of the intermediate angle conditioned on both boundary states."""
    if not bc.post_selected:
        raise DomainError("two_sided_density requires a post-selected boundary")
    T = bc.t_total
    if not 0 < t < T:
        raise DomainError("t must lie strictly inside (0, T)")
    den = transition_prob(bc.theta_f, T, bc.theta_in, 0.0, kp)
    if den < 1e-300:
        raise ConditioningError("post-selection probability underflowed")
    forward = transition_prob(theta, t, bc.theta_in, 0.0, kp)
    backward = transition_prob(theta, T - t, bc.theta_f, 0.0, kp)
    return forward * backward / den


def cond_avg_fpe(src, bc: BoundaryCondition, kp: KernelParams) -> complex:
    """Two-point conditional source average via the Fokker-Planck kernel.

    Closed-form winding series; analytically equal to the path-integral
    route by Poisson resummation.  Entries with s = 0 are dropped.
    """
    if not bc.post_selected:
        raise DomainError("cond_avg_fpe requires a post-selected boundary")
    pts = sorted(_normalize_sources(src), key=lambda p: p[1])
    if len(pts) > 2:
        raise DomainError("cond_avg_fpe handles at most two nonzero sources")
    T, D = bc.t_total, kp.diffusion
    if any(not 0 <= t <= T for _, t in pts):
        raise DomainError("source times must lie in [0, T]")
    if not pts:
        return 1.0 + 0.0j
    if len(pts) == 1:
        (s1, t1), (s2, t2) = pts[0], (0, 0.0)
    else:
        (s1, t1), (s2, t2) = pts
    tmin = t1
    S = s1 * t1 + s2 * t2
    stot = s1 + s2
    dtheta = bc.theta_f - bc.theta_in
    pref = cmath.exp(
        1j * bc.theta_in * stot
        - D * (s1 * s1 * t1 + s2 * s2 * t2 + 2 * s1 * s2 * tmin)
    )
    center = round(S / T)
    n = np.arange(min(center, 0) - kp.n_max, max(center, 0) + kp.n_max + 1)
    num_expo = -D * n**2 * T + 1j * n * dtheta + 2 * D * S * n
    den_expo = -D * n**2 * T + 1j * n * dtheta
    _check_tails(num_expo)
    _check_tails(den_expo)
    num, ln = _scaled_sum(num_expo)
    den, ld = _scaled_sum(den_expo)
    return pref * num / den * math.exp(ln - ld)


def cond_avg_fpe_quadrature(
    src, bc: BoundaryCondition, kp: KernelParams, grid: int = 512
) -> complex:
    """Independent oracle: direct quadrature of the two-sided joint density.

    Uniform trapezoid on the periodic angle grid (spectrally accurate).
    Used by tests only; the series route is the production path.
    """
    if not bc.post_selected:
        raise DomainError("quadrature requires a post-selected boundary")
    pts = sorted(_normalize_sources(src), key=lambda p: p[1])
    T = bc.t_total
    den = transition_prob(bc.theta_f, T, bc.theta_in, 0.0, kp)
    theta = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    h = 2 * math.pi / grid
    if not pts:
        return 1.0 + 0.0j
    if len(pts) == 1 or pts[0][1] == pts[-1][1]:
        seff = sum(s for s, _ in pts)
        t1 = pts[0][1]
        w = (
            transition_prob(theta, T, bc.theta_f, t1, kp)
            * transition_prob(theta, t1, bc.theta_in, 0.0, kp)
            / den
        )
        return complex(np.sum(np.exp(1j * seff * theta) * w) * h)
    (s1, t1), (s2, t2) = pts
    p_in = transition_prob(theta, t1, bc.theta_in, 0.0, kp)
    p_mid = transition_prob(theta[:, None] - theta[None, :], t2, 0.0, t1, kp)
    p_out = transition_prob(theta, T, bc.theta_f, t2, kp)
    w2 = p_out[:, None] * p_mid * p_in[None, :] / den
    phase = np.exp(1j * (s2 * theta[:, None] + s1 * theta[None, :]))
    return complex(np.sum(phase * w2) * h * h)
