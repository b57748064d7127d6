"""Closed-form conditional averages for the ideal, equal-strength XZ case.

The polar angle performs free diffusion on the real line; conditioning on a
final *physical* state introduces a sum over windings theta_f + 2*pi*n.  A
Gaussian saddle-point evaluation gives every pre/post-selected n-point phase
average in closed form, from which the z/x correlators follow by weighting
the +-1 source amplitudes.  One array kernel, ``_source_average``, does so
for all sign patterns and all time rows (a whole t1 grid) at once: s^T G s of
every sign vector in one contraction, and the winding ratio on all sums S.
Both branches of the winding series sum a fixed ``MAX_WINDINGS`` windings
(Fourier modes when resummed) either side of the peak: a module constant, not
an argument.  A tail term above ``SERIES_TOL`` of the peak raises SeriesError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlochState, DomainError, polar_to_bloch

#: switch to the Poisson-resummed winding series above this T/tau_m.  The
#: direct winding sum has term decay ~exp(-2 pi^2 (tau/T) n^2), so it converges
#: in a handful of terms for small and moderate horizons; the resummed series
#: decays ~exp(-(T/2tau) k^2) and takes over for long horizons.
RESUM_THRESHOLD = 1.0

#: windings (or Fourier modes) either side of the peak term; fixed
MAX_WINDINGS = 64

SERIES_TOL = 1e-12

#: most insertions correlator_npoint takes; it sums 2^n sign patterns
MAX_POINTS = 10

#: exp(-a) is exactly 0.0 in double precision for a above 745.14; with margin
_EXP_UNDERFLOW = 746.0

_EPS = float(np.finfo(float).eps)


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
        if not 0 < self.tau_m < math.inf:  # negated tests so that NaN is rejected
            raise DomainError(f"tau_m must be positive and finite, got {self.tau_m}")
        if not (self.t_total > 0 if self.t_total is not None else self.theta_f is None):
            raise DomainError(f"t_total must be > 0 and set for post-selection, got {self.t_total}")

    @property
    def post_selected(self) -> bool:
        return self.theta_f is not None


def green(t, t2, T: float):
    """Green's function of d^2/dt^2 with homogeneous boundary conditions on [0, T].

    ``t`` and ``t2`` broadcast; T = inf gives -min(t, t2), for no post-selection.
    """
    t, t2 = np.asarray(t, dtype=float), np.asarray(t2, dtype=float)
    if not (np.all((0 <= t) & (t <= T)) and np.all((0 <= t2) & (t2 <= T))):
        raise DomainError("green arguments must lie in [0, T]")
    return (t - t2) * (t > t2) - (1.0 - t2 / T) * t


def _winding_ratio(dtheta, S, T: float, tau: float, resummed=None):
    """Ratio of the source-shifted to plain winding sums, elementwise in ``S``.

    Direct form: terms exp[-(dtheta + 2 pi n)^2 tau/(2T) + i (dtheta + 2 pi n) S/T].
    ``resummed`` forces a branch; by default T/tau above RESUM_THRESHOLD picks
    the Poisson-resummed form, which converges fast where the direct one slows.
    """
    if resummed is None:
        resummed = T / tau > RESUM_THRESHOLD
    if resummed:
        return _winding_ratio_resummed(dtheta, S, T, tau)
    center = -round(dtheta / (2 * math.pi))
    u = dtheta + 2 * math.pi * np.arange(center - MAX_WINDINGS, center + MAX_WINDINGS + 1)
    expo = -(u**2) * tau / (2 * T)
    expo -= _check_tails(expo)
    keep = expo >= -_EXP_UNDERFLOW  # the weights that are not exactly 0.0
    u, w = u[keep], np.exp(expo[keep])
    S = np.asarray(S, dtype=float)
    return np.einsum("...j,j", np.exp(1j / T * S[..., None] * u), w) / w.sum()


def _winding_ratio_resummed(dtheta, S, T: float, tau: float):
    """Poisson-resummed ratio, elementwise in ``S``.

    Fourier modes k with log weights i k dtheta - (k T - S)^2/(2 tau T), over
    the same sum at S = 0.  The modes span min(round(S/T), 0) - MAX_WINDINGS
    to max(round(S/T), 0) + MAX_WINDINGS for every ``S``; the numerator skips
    the modes whose scaled weight is exactly 0.0 for every ``S``.
    """
    S = np.asarray(S, dtype=float)
    centers = np.rint(S / T)
    k = np.arange(centers.min(initial=0) - MAX_WINDINGS, centers.max(initial=0) + MAX_WINDINGS + 1)
    num = -((k * T - S[..., None]) ** 2) / (2 * tau * T)
    den = -(k**2) * T / (2 * tau)  # peak 0 at k = 0
    _check_tails(den)
    peak = _check_tails(num)
    num -= peak[..., None]
    kn = (num >= -_EXP_UNDERFLOW).reshape(-1, k.size).any(axis=0)
    phase = np.exp(1j * dtheta * k)
    weight = np.exp(den)
    den_sum = np.sum(weight * phase)
    # the plain sum is positive; at short horizons it cancels to far below
    # its terms, and its rounding error eps * sum|terms| then swamps it
    if _EPS * weight.sum() > SERIES_TOL * abs(den_sum):
        raise SeriesError(
            f"Fourier-mode sum cancelled: |sum| {abs(den_sum):.3g} against "
            f"terms of total modulus {weight.sum():.3g}"
        )
    num_sum = np.einsum("...j,j", np.exp(num[..., kn]), phase[kn])
    return num_sum * np.exp(peak) / den_sum


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


def _source_average(signs, times, bc, resummed=None) -> np.ndarray:
    """Averages of exp[i sum_j s_j theta(t_j)], one per time row and sign row.

    ``signs`` is (k, n), ``times`` (m, n), the result (m, k).  Without
    post-selection this is the T -> infinity limit, with winding ratio 1.
    ``resummed`` forces a branch of the winding series (``_winding_ratio``).
    """
    T = bc.t_total if bc.post_selected else math.inf
    if not np.all((0 <= times) & (times <= T)):
        raise DomainError("source times must lie in [0, T]")
    G = green(times[:, :, None], times[:, None, :], T)
    quad = np.einsum("kn,mnp,kp->mk", signs, G, signs)
    avg = np.exp(quad / (2 * bc.tau_m) + 1j * bc.theta_in * signs.sum(axis=1))
    if bc.post_selected:
        S = np.einsum("mn,kn->mk", times, signs)
        avg *= _winding_ratio(bc.theta_f - bc.theta_in, S, T, bc.tau_m, resummed)
    return avg


def _correlators(kind_rows, times, bc: BoundaryCondition):
    """<a1(t1)...an(tn)> for each kind string of a1.. in {x, z}: weightings (z 1/2
    per sign, x s/(2i)) of one ``_source_average`` over the 2^n sign patterns.
    ``times`` of shape (n,) gives a list of floats, (m, n) a (kinds, m) array."""
    times = np.asarray(times, dtype=float)
    rows = np.atleast_2d(times)
    n = rows.shape[-1]
    if rows.ndim != 2 or any(len(k) != n or not set(k) <= {"z", "x"} for k in kind_rows):
        raise DomainError("kinds must be x/z labels matching times")
    if n > MAX_POINTS:
        raise DomainError(f"correlators take at most MAX_POINTS = {MAX_POINTS} points, got {n}")
    # row b of signs is the binary expansion of b, bit 1 -> s = -1
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    avg = _source_average(signs, rows, bc)
    out = np.empty((len(kind_rows), len(rows)))
    for row, kinds in zip(out, kind_rows):
        weights = np.ones(2**n, dtype=complex)
        for j, k in enumerate(kinds):
            weights *= 0.5 if k == "z" else signs[:, j] / 2j
        total = np.einsum("mk,k->m", avg, weights)
        worst = float(np.max(np.abs(total.imag), initial=0.0))
        if worst > 1e-12:
            raise SeriesError(f"correlator has spurious imaginary part {worst:.3g}")
        row[:] = total.real
    return out[:, 0].tolist() if times.ndim == 1 else out


def correlator_npoint(kinds, times, bc: BoundaryCondition):
    """General n-point correlator <a1(t1)...an(tn)> for a1.. in {x, z}.

    ``times`` of shape (n,) gives a float, an (m, n) array m values.  The cost
    doubles with each point, so n is capped at ``MAX_POINTS``.
    """
    return _correlators([list(kinds)], times, bc)[0]


def correlator_cond(kind, t1, t2: float, bc: BoundaryCondition):
    """Pre/post-selected two-time correlator; kind in {zz, zx, xz, xx}.

    A scalar ``t1`` gives a float, a 1-D array an ndarray.  A sequence of
    kinds gives one row per kind, all weightings of one pass over the four
    phase averages <exp i(s1 theta(t1) + s2 theta(t2))>.
    """
    kinds = [kind] if isinstance(kind, str) else list(kind)
    if not set(kinds) <= {"zz", "zx", "xz", "xx"}:
        raise DomainError(f"unknown correlator kind {kind!r}")
    pairs = np.stack(np.broadcast_arrays(np.asarray(t1, dtype=float), float(t2)), axis=-1)
    values = _correlators(kinds, pairs, bc)
    return values[0] if isinstance(kind, str) else np.asarray(values)


def correlator_pre(kind: str, t1, t2, theta_in: float, tau_m: float):
    """Pre-selected-only correlators in closed form; scalars give a float."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not (np.all(t1 >= 0) and np.all(t2 >= 0)):  # negated so that NaN fails
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


def subens_avg_state(t, bc: BoundaryCondition):
    """Bloch vector averaged over the pre- and post-selected sub-ensemble.

    A scalar ``t`` gives a BlochState, an array of times an array of shape
    ``t.shape + (3,)``.  z + i x is the one-source average <exp(i theta(t))>,
    by the direct winding sum at every horizon, so RESUM_THRESHOLD leaves the
    state curve as is; t = 0 and t = T give the boundary states exactly.
    """
    if not bc.post_selected:
        raise DomainError("subens_avg_state requires a post-selected boundary")
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    avg = _source_average(np.ones((1, 1)), flat[:, None], bc, resummed=False)[:, 0]
    q = np.stack([avg.imag, np.zeros(len(flat)), avg.real], axis=-1)
    q[flat == 0.0] = polar_to_bloch(bc.theta_in).as_array()
    q[flat == bc.t_total] = polar_to_bloch(bc.theta_f).as_array()
    return BlochState.from_array(q[0]) if ts.ndim == 0 else q.reshape(ts.shape + (3,))
