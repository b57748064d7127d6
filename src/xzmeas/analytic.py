"""Closed-form conditional averages for the ideal, equal-strength XZ case.

The polar angle performs free diffusion on the real line; conditioning on a
final *physical* state introduces a sum over windings theta_f + 2*pi*n.  A
Gaussian saddle-point evaluation gives every pre/post-selected n-point phase
average in closed form, from which the z/x correlators follow by weighting
the +-1 source amplitudes.  One array kernel, ``_source_average``, does so
for all sign patterns and all time rows (a whole t1 grid) at once: s^T G s of
every sign vector in one contraction, and the winding ratio on all sums S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

#: exp(-a) is exactly 0.0 in double precision for a above 745.14; with margin
_EXP_UNDERFLOW = 746.0


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
        if not all(math.isfinite(a) for a in (self.theta_in, self.theta_f) if a is not None):
            raise DomainError("boundary angles must be finite")
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


def green(t, t2, T: float):
    """Green's function of d^2/dt^2 with homogeneous boundary conditions on [0, T].

    ``t`` and ``t2`` broadcast; T = inf gives -min(t, t2), for no post-selection.
    """
    t, t2 = np.asarray(t, dtype=float), np.asarray(t2, dtype=float)
    if not (np.all((0 <= t) & (t <= T)) and np.all((0 <= t2) & (t2 <= T))):
        raise DomainError("green arguments must lie in [0, T]")
    return (t - t2) * (t > t2) - (1.0 - t2 / T) * t


def _normalize_sources(src) -> list[tuple[int, float]]:
    pts = src.points if isinstance(src, SourceSpec) else tuple(src)
    return [(int(s), float(t)) for s, t in pts if s != 0]


def _winding_ratio(dtheta, S, T: float, tau: float, n_max: int, resummed=None):
    """Ratio of the source-shifted to plain winding sums, elementwise in ``S``.

    Direct form: terms exp[-(dtheta + 2 pi n)^2 tau/(2T) + i (dtheta + 2 pi n) S/T].
    ``resummed`` forces a branch; by default T/tau above RESUM_THRESHOLD picks
    the Poisson-resummed form, which converges fast where the direct one slows.
    """
    if resummed is None:
        resummed = T / tau > RESUM_THRESHOLD
    if resummed:
        return _winding_ratio_resummed(dtheta, S, T, tau, n_max)
    center = -round(dtheta / (2 * math.pi))
    u = dtheta + 2 * math.pi * np.arange(center - n_max, center + n_max + 1)
    expo = -(u**2) * tau / (2 * T)
    expo -= _check_tails(expo)
    keep = expo >= -_EXP_UNDERFLOW  # the weights that are not exactly 0.0
    u, w = u[keep], np.exp(expo[keep])
    S = np.asarray(S, dtype=float)
    return np.einsum("...j,j", np.exp(1j / T * S[..., None] * u), w) / w.sum()


def _winding_ratio_resummed(dtheta, S, T: float, tau: float, n_max: int):
    """Poisson-resummed ratio, elementwise in ``S``.

    Fourier modes k with log weights i k dtheta - (k T - S)^2/(2 tau T), over
    the same sum at S = 0.  The modes span min(round(S/T), 0) - n_max to
    max(round(S/T), 0) + n_max for every ``S``; the numerator skips the modes
    whose scaled weight is exactly 0.0 for every ``S``.
    """
    S = np.asarray(S, dtype=float)
    centers = np.rint(S / T)
    k = np.arange(centers.min(initial=0) - n_max, centers.max(initial=0) + n_max + 1)
    num = -((k * T - S[..., None]) ** 2) / (2 * tau * T)
    den = -(k**2) * T / (2 * tau)  # peak 0 at k = 0
    _check_tails(den)
    peak = _check_tails(num)
    num -= peak[..., None]
    kn = (num >= -_EXP_UNDERFLOW).reshape(-1, k.size).any(axis=0)
    phase = np.exp(1j * dtheta * k)
    num_sum = np.einsum("...j,j", np.exp(num[..., kn]), phase[kn])
    return num_sum * np.exp(peak) / np.sum(np.exp(den) * phase)


def _check_tails(expo: np.ndarray) -> np.ndarray:
    """Peak real exponent of each series along the last axis.

    Raises SeriesError if an end term of any series is above SERIES_TOL times
    its peak term.
    """
    re = np.real(expo)
    peak = re.max(axis=-1)
    worst = float(np.max(np.maximum(re[..., 0], re[..., -1]) - peak, initial=-np.inf))
    if worst > math.log(SERIES_TOL):
        raise SeriesError(
            f"winding series not converged: tail/peak {math.exp(worst):.3g} > {SERIES_TOL:g}"
        )
    return peak


def _source_average(signs, times, bc, n_max=MAX_WINDINGS) -> np.ndarray:
    """Averages of exp[i sum_j s_j theta(t_j)], one per time row and sign row.

    ``signs`` is (k, n), ``times`` (m, n), the result (m, k).  Without
    post-selection this is the T -> infinity limit, with winding ratio 1.
    """
    if n_max < 1 or n_max > MAX_WINDINGS:
        raise DomainError(f"n_max must lie in [1, {MAX_WINDINGS}]")
    T = bc.t_total if bc.post_selected else math.inf
    if not np.all((0 <= times) & (times <= T)):
        raise DomainError("source times must lie in [0, T]")
    G = green(times[:, :, None], times[:, None, :], T)
    quad = np.einsum("kn,mnp,kp->mk", signs, G, signs)
    avg = np.exp(quad / (2 * bc.tau_m) + 1j * bc.theta_in * signs.sum(axis=1))
    if bc.post_selected:
        S = np.einsum("mn,kn->mk", times, signs)
        avg *= _winding_ratio(bc.theta_f - bc.theta_in, S, T, bc.tau_m, n_max)
    return avg


def cond_avg_phase(src, bc: BoundaryCondition, n_max: int = MAX_WINDINGS) -> complex:
    """Pre/post-selected average of exp[i sum_j s_j theta(t_j)].

    ``src`` is a SourceSpec or iterable of (s, t) pairs; entries with s = 0
    are dropped, so the empty source returns exactly 1.  This is
    ``_source_average`` on one row.
    """
    pts = _normalize_sources(src)
    if not pts:
        return 1.0 + 0.0j
    signs, times = np.array(pts, dtype=float).T
    return complex(_source_average(signs[None], times[None], bc, n_max)[0, 0])


_POINT_KINDS = {"z", "x"}


def correlator_npoint(kinds, times, bc: BoundaryCondition, n_max: int = MAX_WINDINGS):
    """General n-point correlator <a1(t1)...an(tn)> for a1.. in {x, z}.

    ``times`` of shape (n,) gives a float, an (m, n) array m values.  Each z
    contributes weight 1/2 per sign, each x contributes s/(2i).  The cost
    doubles with each point, so n is capped at ``MAX_POINTS``.
    """
    kinds = list(kinds)
    times = np.asarray(times, dtype=float)
    rows = np.atleast_2d(times)
    n = len(kinds)
    if rows.ndim != 2 or rows.shape[1] != n or any(k not in _POINT_KINDS for k in kinds):
        raise DomainError("kinds must be x/z labels matching times")
    if n > MAX_POINTS:
        raise DomainError(
            f"correlator_npoint takes at most MAX_POINTS = {MAX_POINTS} points, got {n}"
        )
    # row b of signs is the binary expansion of b, bit 1 -> s = -1
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    weights = np.ones(2**n, dtype=complex)
    for j, k in enumerate(kinds):
        weights *= 0.5 if k == "z" else signs[:, j] / 2j
    total = np.einsum("mk,k->m", _source_average(signs, rows, bc, n_max), weights)
    worst = float(np.max(np.abs(total.imag), initial=0.0))
    if worst > 1e-12:
        raise SeriesError(f"correlator has spurious imaginary part {worst:.3g}")
    return float(total.real[0]) if times.ndim == 1 else total.real


def correlator_cond(kind: str, t1, t2: float, bc: BoundaryCondition, n_max: int = MAX_WINDINGS):
    """Pre/post-selected two-time correlator; kind in {zz, zx, xz, xx}.

    A scalar ``t1`` gives a float, a 1-D array an ndarray.  xx is evaluated
    as zz with both boundary angles rotated by -pi/2.
    """
    pairs = np.stack(np.broadcast_arrays(np.asarray(t1, dtype=float), float(t2)), axis=-1)
    if kind == "xz":
        kind, pairs = "zx", pairs[..., ::-1]
    elif kind == "xx":
        rotated = None if bc.theta_f is None else bc.theta_f - math.pi / 2
        kind, bc = "zz", replace(bc, theta_in=bc.theta_in - math.pi / 2, theta_f=rotated)
    elif kind not in ("zz", "zx"):
        raise DomainError(f"unknown correlator kind {kind!r}")
    return correlator_npoint(kind, pairs, bc, n_max)


def correlator_pre(kind: str, t1, t2, theta_in: float, tau_m: float):
    """Pre-selected-only correlators in closed form; scalars give a float."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if np.any(t1 < 0) or np.any(t2 < 0):
        raise DomainError("times must be >= 0")
    if kind == "xx":
        return correlator_pre("zz", t1, t2, theta_in - math.pi / 2, tau_m)
    # e^{-(t1+t2)/2tau} (cos^2 cosh + sin^2 sinh)(tmin/tau), written without
    # the cosh and sinh that overflow at long times
    far = np.exp(-(t1 + t2 + 2 * np.minimum(t1, t2)) / (2 * tau_m))
    if kind == "zz":
        out = (np.exp(-np.abs(t1 - t2) / (2 * tau_m)) + math.cos(2 * theta_in) * far) / 2
    elif kind in ("zx", "xz"):
        out = far * math.sin(2 * theta_in) / 2
    else:
        raise DomainError(f"unknown correlator kind {kind!r}")
    return float(out) if out.ndim == 0 else out


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
    # z + i x is the one-source average <exp(i theta(t))>, G(t, t) = -t (1 - t/T);
    # the direct winding sum at every horizon, so RESUM_THRESHOLD leaves the state curve as is
    ratio = _winding_ratio(bc.theta_f - bc.theta_in, t, T, tau, n_max, resummed=False)
    avg = np.exp(-t * (1 - t / T) / (2 * tau) + 1j * bc.theta_in) * ratio
    return BlochState(float(avg.imag), 0.0, float(avg.real))
