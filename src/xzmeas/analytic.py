"""Closed-form conditional averages for the ideal, equal-strength XZ case.

The polar angle performs free diffusion on the real line; conditioning on a
final *physical* state introduces a sum over windings theta_f + 2*pi*n.  A
Gaussian saddle-point evaluation gives every pre/post-selected n-point phase
average in closed form, from which the z/x correlators follow by weighting
the +-1 source amplitudes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import BlochState, DomainError, polar_to_bloch

#: switch to the Poisson-resummed winding series above this T/tau_m.  The
#: direct winding sum has term decay ~exp(-2 pi^2 (tau/T) n^2), so it converges
#: in a handful of terms for small and moderate horizons; the resummed series
#: decays ~exp(-(T/2tau) k^2) and takes over for long horizons.
RESUM_THRESHOLD = 1.0

#: hard cap on the winding index
MAX_WINDINGS = 64

SERIES_TOL = 1e-12

#: most insertions correlator_npoint takes; it sums 2^n sign patterns
MAX_POINTS = 10


class SeriesError(RuntimeError):
    """Winding series failed to converge within the winding cap."""


@dataclass(frozen=True)
class BoundaryCondition:
    """Pre-selection angle, optional post-selection angle, and time horizon."""

    theta_in: float
    tau_m: float
    theta_f: float | None = None
    t_total: float | None = None

    def __post_init__(self):
        if self.tau_m <= 0:
            raise DomainError("tau_m must be positive")
        if self.theta_f is not None and (self.t_total is None or self.t_total <= 0):
            raise DomainError("post-selection requires t_total > 0")

    @property
    def post_selected(self) -> bool:
        return self.theta_f is not None


@dataclass(frozen=True)
class SourceSpec:
    """Impulse sources (s_j, t_j) with s_j = +-1 and times sorted ascending."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        ts = [t for _, t in self.points]
        if sorted(ts) != ts:
            raise DomainError("source times must be sorted ascending")
        if any(s not in (-1, 1) for s, _ in self.points):
            raise DomainError("source amplitudes must be +-1")


def green(t: float, t2: float, T: float) -> float:
    """Green's function of d^2/dt^2 with homogeneous boundary conditions on [0, T]."""
    if not (0 <= t <= T and 0 <= t2 <= T):
        raise DomainError("green arguments must lie in [0, T]")
    heav = 1.0 if t > t2 else 0.0
    return (t - t2) * heav - (1.0 - t2 / T) * t


def _normalize_sources(src) -> list[tuple[int, float]]:
    pts = src.points if isinstance(src, SourceSpec) else tuple(src)
    return [(int(s), float(t)) for s, t in pts if s != 0]


def _scaled_sum(exponents: np.ndarray) -> tuple[complex, float]:
    """Sum exp(exponents) as (mantissa, log-scale) to dodge under/overflow."""
    shift = float(np.max(exponents.real))
    return complex(np.sum(np.exp(exponents - shift))), shift


def _winding_ratio(dtheta: float, S: float, T: float, tau: float, n_max: int) -> complex:
    """Ratio of the source-shifted to plain winding sums.

    Direct form: terms exp[-(dtheta + 2 pi n)^2 tau/(2T) + i (dtheta + 2 pi n) S/T].
    For T/tau above RESUM_THRESHOLD the Poisson-resummed representation is used,
    which converges fast in exactly the regime where the direct one slows down.
    """
    if T / tau > RESUM_THRESHOLD:
        return _winding_ratio_resummed(dtheta, S, T, tau, n_max)
    u, den_expo = _direct_windings(dtheta, T, tau, n_max)
    num, ln = _scaled_sum(den_expo + 1j * u * S / T)
    den, ld = _scaled_sum(den_expo)
    return num / den * math.exp(ln - ld)


def _direct_windings(dtheta: float, T: float, tau: float, n_max: int):
    """Direct-branch windings u = dtheta + 2 pi n and log weights -u^2 tau/(2T)."""
    center = -round(dtheta / (2 * math.pi))
    n = np.arange(center - n_max, center + n_max + 1)
    u = dtheta + 2 * math.pi * n
    expo = -(u**2) * tau / (2 * T)
    _check_tails(expo)
    return u, expo


def _winding_ratio_resummed(dtheta, S, T, tau, n_max) -> complex:
    center = round(S / T)
    k = np.arange(min(center, 0) - n_max, max(center, 0) + n_max + 1)
    num_expo = 1j * k * dtheta - (k * T - S) ** 2 / (2 * tau * T)
    den_expo = 1j * k * dtheta - k**2 * T / (2 * tau)
    _check_tails(num_expo)
    num, ln = _scaled_sum(num_expo)
    den, ld = _scaled_sum(den_expo)
    return num / den * math.exp(ln - ld)


def _check_tails(expo: np.ndarray) -> None:
    peak = float(np.max(expo.real))
    tail = max(float(expo.real[0]), float(expo.real[-1]))
    if tail - peak > math.log(SERIES_TOL):
        raise SeriesError(
            f"winding series not converged: tail/peak {math.exp(tail - peak):.3g} > {SERIES_TOL:g}"
        )


def cond_avg_phase(src, bc: BoundaryCondition, n_max: int = MAX_WINDINGS) -> complex:
    """Pre/post-selected average of exp[i sum_j s_j theta(t_j)].

    ``src`` is a SourceSpec or iterable of (s, t) pairs; entries with s = 0
    are dropped, so the empty source returns exactly 1.
    """
    if not bc.post_selected:
        return _preselected_phase(src, bc)
    if n_max < 1 or n_max > MAX_WINDINGS:
        raise DomainError(f"n_max must lie in [1, {MAX_WINDINGS}]")
    pts = _normalize_sources(src)
    T, tau = bc.t_total, bc.tau_m
    if any(not 0 <= t <= T for _, t in pts):
        raise DomainError("source times must lie in [0, T]")
    if not pts:
        return 1.0 + 0.0j
    gsum = sum(
        sa * sb * green(ta, tb, T) for sa, ta in pts for sb, tb in pts
    )
    F = math.exp(gsum / (2 * tau))
    stot = sum(s for s, _ in pts)
    S = sum(s * t for s, t in pts)
    dtheta = bc.theta_f - bc.theta_in
    ratio = _winding_ratio(dtheta, S, T, tau, n_max)
    return F * cmath.exp(1j * bc.theta_in * stot) * ratio


def _preselected_phase(src, bc: BoundaryCondition) -> complex:
    """T -> infinity limit: only the zero'th resummed mode survives."""
    pts = _normalize_sources(src)
    if not pts:
        return 1.0 + 0.0j
    expo = 0.0
    for a, (sa, ta) in enumerate(pts):
        for sb, tb in pts[a + 1:]:
            expo += 2 * sa * sb * min(ta, tb)
    expo += sum(t for _, t in pts)
    stot = sum(s for s, _ in pts)
    return math.exp(-expo / (2 * bc.tau_m)) * cmath.exp(1j * bc.theta_in * stot)


_POINT_KINDS = {"z", "x"}


def correlator_npoint(kinds, times, bc: BoundaryCondition, n_max: int = MAX_WINDINGS) -> float:
    """General n-point correlator <a1(t1)...an(tn)> for a1.. in {x, z}.

    Each z contributes weight 1/2 per sign, each x contributes s/(2i).  The
    cost doubles with each point, so n is capped at ``MAX_POINTS``.
    """
    kinds = list(kinds)
    times = [float(t) for t in times]
    if len(kinds) != len(times) or any(k not in _POINT_KINDS for k in kinds):
        raise DomainError("kinds must be x/z labels matching times")
    if len(kinds) > MAX_POINTS:
        raise DomainError(
            f"correlator_npoint takes at most MAX_POINTS = {MAX_POINTS} points, got {len(kinds)}"
        )
    total = 0.0 + 0.0j
    order = sorted(range(len(times)), key=lambda i: times[i])
    for signs in np.ndindex(*(2,) * len(kinds)):
        s = [1 - 2 * b for b in signs]
        w = 1.0 + 0.0j
        for k, sj in zip(kinds, s):
            w *= 0.5 if k == "z" else sj / 2j
        src = [(s[i], times[i]) for i in order]
        total += w * cond_avg_phase(src, bc, n_max)
    if abs(total.imag) > 1e-12:
        raise SeriesError(f"correlator has spurious imaginary part {total.imag:.3g}")
    return total.real


def correlator_cond(
    kind: str, t1: float, t2: float, bc: BoundaryCondition, n_max: int = MAX_WINDINGS
) -> float:
    """Pre/post-selected two-time correlator; kind in {zz, zx, xx}.

    xx is evaluated as zz with both boundary angles rotated by -pi/2.
    """
    if kind == "zz":
        return correlator_npoint("zz", (t1, t2), bc, n_max)
    if kind == "zx":
        return correlator_npoint("zx", (t1, t2), bc, n_max)
    if kind == "xz":
        return correlator_npoint("zx", (t2, t1), bc, n_max)
    if kind == "xx":
        rotated = BoundaryCondition(
            theta_in=bc.theta_in - math.pi / 2,
            tau_m=bc.tau_m,
            theta_f=None if bc.theta_f is None else bc.theta_f - math.pi / 2,
            t_total=bc.t_total,
        )
        return correlator_npoint("zz", (t1, t2), rotated, n_max)
    raise DomainError(f"unknown correlator kind {kind!r}")


def correlator_pre(kind: str, t1: float, t2: float, theta_in: float, tau_m: float) -> float:
    """Pre-selected-only correlators in their simple closed forms."""
    if t1 < 0 or t2 < 0:
        raise DomainError("times must be >= 0")
    tmin = min(t1, t2)
    pref = math.exp(-(t1 + t2) / (2 * tau_m))
    if kind == "zz":
        return pref * (
            math.cos(theta_in) ** 2 * math.cosh(tmin / tau_m)
            + math.sin(theta_in) ** 2 * math.sinh(tmin / tau_m)
        )
    if kind in ("zx", "xz"):
        return pref * math.exp(-tmin / tau_m) * math.sin(2 * theta_in) / 2
    if kind == "xx":
        return correlator_pre("zz", t1, t2, theta_in - math.pi / 2, tau_m)
    raise DomainError(f"unknown correlator kind {kind!r}")


def subens_avg_state(
    t: float, bc: BoundaryCondition, n_max: int = MAX_WINDINGS
) -> BlochState:
    """Bloch vector averaged over the pre- and post-selected sub-ensemble."""
    if not bc.post_selected:
        raise DomainError("subens_avg_state requires a post-selected boundary")
    T, tau = bc.t_total, bc.tau_m
    if not 0 <= t <= T:
        raise DomainError("t must lie in [0, T]")
    if t == 0.0:
        return polar_to_bloch(bc.theta_in)
    if t == T:
        return polar_to_bloch(bc.theta_f)
    u, w_expo = _direct_windings(bc.theta_f - bc.theta_in, T, tau, n_max)
    w = np.exp(w_expo - w_expo.max())
    ang = bc.theta_in + u * t / T
    pref = math.exp(-t * (1 - t / T) / (2 * tau))
    den = w.sum()
    return BlochState(
        pref * float(np.dot(w, np.sin(ang))) / den,
        0.0,
        pref * float(np.dot(w, np.cos(ang))) / den,
    )
