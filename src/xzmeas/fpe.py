"""Fokker-Planck backend: heat kernel on the circle and conditioned densities.

The transition probability solves the diffusion equation on the circle, and
the two-sided densities condition it on both boundary states.  Quadrature of
those densities (``cond_avg_fpe_quadrature``) is the route to the conditional
averages of the ideal XZ case that is independent of ``analytic``'s winding
series.  The kernel's Fourier series sums at most the fixed ``MAX_MODES``
modes; the wrapped Gaussian, every winding whose term is not 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _EXP_UNDERFLOW, BoundaryCondition, SeriesError
from .core import DomainError

#: crossover D*(t - t0) between wrapped-Gaussian and Fourier-series evaluation.
#: The series is no faster below it and loses the far tail: on 181 angles it
#: takes 412, 64 and 47 us against the wrapped Gaussian's 15, 38 and 48 us at
#: 0.0101, 0.1 and 0.2, with worst relative errors 1e90, 2.2e-6 and 5.7e-12
#: (Xeon at 2.1 GHz, numpy 2.4).
CROSSOVER = 0.2

#: Fourier modes the heat-kernel series may sum
MAX_MODES = 128


class ConditioningError(RuntimeError):
    """Post-selection probability vanished numerically."""


@dataclass(frozen=True)
class KernelParams:
    """Diffusion constant D = 1/(2 tau_m)."""

    diffusion: float

    def __post_init__(self):
        if not self.diffusion > 0:  # negated so that NaN fails
            raise DomainError("diffusion must be positive")

    @classmethod
    def from_tau(cls, tau_m: float) -> "KernelParams":
        return cls(diffusion=1.0 / (2.0 * tau_m))


def transition_prob(theta, t: float, theta0: float, t0: float, kp: KernelParams):
    """Heat-kernel density P(theta, t | theta0, t0) on the circle.

    Fourier series for diffusive spreads, wrapped Gaussian below
    ``CROSSOVER``.  ``theta`` and ``theta0`` broadcast; a 0-d result is a
    Python float, any other an ndarray.  The kernel is symmetric under
    theta <-> theta0 (detailed balance w.r.t. the uniform measure).
    """
    if not t > t0:  # negated so that NaN fails
        raise DomainError("transition_prob requires t > t0")
    x = kp.diffusion * (t - t0)
    d = np.asarray(theta, dtype=float) - np.asarray(theta0, dtype=float)
    if x < CROSSOVER:
        result = _wrapped_gaussian(d, x)
    else:
        result = _fourier_kernel(d, x)
    return float(result) if result.ndim == 0 else result


def _wrapped_gaussian(d, x: float):
    """Heat kernel as a wrapped Gaussian of variance 2x, x = D*(t - t0).

    Each d sums, in increasing order, only its own windings n with u^2/(2 var)
    <= ``_EXP_UNDERFLOW``, u = d + 2 pi n, however large d is.  Every other term
    is exactly 0.0, so the sum is bit-identical to the full one.  Non-finite d
    gives NaN.
    """
    var = 2.0 * x
    reach = math.sqrt(2 * var * _EXP_UNDERFLOW)
    n = np.ceil((-reach - d) / (2 * math.pi))  # each d's lowest winding in reach
    out = np.zeros_like(d)
    for _ in range(math.floor(reach / math.pi) + 1):
        u = d + 2 * math.pi * n
        out += np.exp(-(u**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        n += 1
    return out


def _fourier_kernel(d, x: float):
    """Heat kernel as a cosine series, truncated adaptively at 1e-14."""
    out = np.ones_like(d)
    for n in range(1, MAX_MODES + 1):
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


def cond_avg_fpe_quadrature(
    src, bc: BoundaryCondition, kp: KernelParams, grid: int = 512
) -> complex:
    """Average of exp[i sum_j s_j theta(t_j)] over at most two (s, t) sources,
    by quadrature of the two-sided joint density; s = 0 entries are dropped.

    Uniform trapezoid on the periodic angle grid (spectrally accurate).  The
    heat kernel and this quadrature are the route independent of
    ``analytic``'s winding series, the production path; the tests and the
    benchmark's ``exact_curves`` check compare the two.
    """
    if not bc.post_selected:
        raise DomainError("quadrature requires a post-selected boundary")
    pts = sorted(((int(s), float(t)) for s, t in src if s != 0), key=lambda p: p[1])
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
