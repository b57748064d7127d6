"""Sub-ensemble selection and statistical estimation from trajectory arrays.

Works on anything exposing ``times`` (n,) and ``states`` (count, n, 3):
Monte Carlo ensembles, polar fast-path samples, or Bayesian reconstructions.
``select_polar`` samples a post-selected polar ensemble final angle first.
For a windowed criterion it draws the accepted members straight from their
exact law (a binomial count, a winding per member, a truncated normal final
angle), so time and memory scale with the accepted members, not with the
members drawn; only the accepted members get a path and become Bloch states.
Reductions are plain numpy means (pairwise summation) over members in a
fixed order (stream id, or winding for ``select_polar``), so results are
independent of any parallel execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, require_memory, write_table
from .sde import _philox, _sample_times, polar_bridge, polar_ensemble, polar_states

_COORD = {"x": 0, "y": 1, "z": 2}
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2 * math.pi)
#: float spacings of theta_in and theta_f that a post-selection window spans
#: at least, so that rounding moves its edges by under 0.1 %
_WINDOW_SPACINGS = 1024


class SelectionError(RuntimeError):
    """No trajectory satisfied the post-selection criterion."""


def _empty_selection(total: int) -> SelectionError:
    return SelectionError(f"0 of {total} trajectories accepted (rate 0); widen the window")


@dataclass(frozen=True)
class SelectionCriterion:
    """Post-selection rule: final angle within +-angular_window of theta_f.

    ``euclidean`` switches to a distance ball in the xz plane, which is the
    right notion for mixed-state (non-ideal) ensembles whose final states lie
    off the unit circle.  With ``theta_f``, DomainError refuses angles so
    large that the window spans fewer than ``_WINDOW_SPACINGS`` of their
    float spacings.
    """

    theta_in: float
    t_total: float
    theta_f: float | None = None
    angular_window: float = 0.05
    euclidean: bool = False

    def __post_init__(self):
        if not all(math.isfinite(a) for a in (self.theta_in, self.theta_f) if a is not None):
            raise DomainError("selection angles must be finite")
        if self.theta_f is not None and not 0 < self.angular_window <= math.pi:
            raise DomainError("angular_window must lie in (0, pi]")
        for name in ("theta_in", "theta_f") if self.theta_f is not None else ():
            spacing = math.ulp(getattr(self, name))
            if self.angular_window < _WINDOW_SPACINGS * spacing:
                raise DomainError(f"{name} {getattr(self, name)!r} is too large for angular_window"
                                  f" {self.angular_window!r}: its float spacing is {spacing:.3g}")


@dataclass(frozen=True)
class SubEnsemble:
    times: np.ndarray
    states: np.ndarray
    accepted_count: int
    total_count: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted_count / self.total_count


def _snap_index(times: np.ndarray, t, name: str):
    """Index of the stored time nearest each of ``t`` (any shape).  A time
    farther than half the grid's smallest spacing from every stored time,
    or NaN, raises DomainError naming ``name``; on a uniform grid that is
    dt/2.  The rounding slack scales with the stored time, so an infinite
    ``t`` is off the grid."""
    t = np.asarray(t, dtype=float)
    idx = np.argmin(np.abs(times - t[..., None]), axis=-1)
    half = np.diff(times).min() / 2 if len(times) > 1 else np.inf
    off = ~(np.abs(times[idx] - t) <= half + 1e-12 * np.maximum(1.0, np.abs(times[idx])))
    if off.any():
        raise DomainError(f"{name}: time {t[off][0]} lies outside the stored grid")
    return idx


def _accepted(final: np.ndarray, crit: SelectionCriterion) -> np.ndarray:
    """Mask of final states (count, 3) that meet the criterion; raises
    SelectionError when none does."""
    if crit.theta_f is None:
        keep = np.ones(len(final), dtype=bool)
    elif crit.euclidean:
        target = np.array([math.sin(crit.theta_f), math.cos(crit.theta_f)])
        dist = np.hypot(final[:, 0] - target[0], final[:, 2] - target[1])
        keep = dist <= crit.angular_window
    else:
        theta = np.arctan2(final[:, 0], final[:, 2])
        delta = np.mod(theta - crit.theta_f + math.pi, 2 * math.pi) - math.pi
        keep = np.abs(delta) <= crit.angular_window
    if not keep.any():
        raise _empty_selection(len(final))
    return keep


def _horizon(times: np.ndarray, crit: SelectionCriterion) -> int:
    """Index of the stored time nearest the selection horizon t_total."""
    if times[-1] < crit.t_total - 1e-12:
        raise DomainError("ensemble is shorter than the selection horizon")
    return int(_snap_index(times, crit.t_total, "t_total"))


def select(ens, crit: SelectionCriterion) -> SubEnsemble:
    """Sub-ensemble of trajectories meeting the post-selection criterion;
    its states are a view of ``ens.states`` when every member is kept."""
    times = np.asarray(ens.times)
    states = np.asarray(ens.states)
    idx = _horizon(times, crit)
    keep = _accepted(states[:, idx, :], crit)
    return SubEnsemble(
        times=times[: idx + 1],
        states=states[:, : idx + 1, :] if keep.all() else states[keep, : idx + 1, :],
        accepted_count=int(np.count_nonzero(keep)),
        total_count=states.shape[0],
    )


def _normal_mass(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a <= b, from the tail on the side of [a, b] away
    from the mean, so that a window far in a tail does not cancel to 0."""
    if a > 0:
        return (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2)) / 2
    if b < 0:
        return (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2)) / 2
    return (math.erf(b / _SQRT2) - math.erf(a / _SQRT2)) / 2


def _truncated_normal(gen, a: float, b: float, size: int) -> np.ndarray:
    """``size`` exact draws of the standard normal restricted to [a, b].

    Accept-reject with the proposal of Robert (1995, Stat. Comput. 5:121)
    that suits the interval: the normal itself on a wide interval holding the
    mode, a uniform on a short one, and an exponential of rate
    (a + sqrt(a^2 + 4))/2 on a long tail interval.  Each accepts about half
    of its proposals or more, whatever the interval.
    """
    if b <= 0:  # the mirror image of a right-hand interval
        return -_truncated_normal(gen, -b, -a, size)
    out = np.empty(size)
    filled = 0
    while filled < size:
        n = 2 * (size - filled) + 16
        if a < 0 and b - a > _SQRT2PI:
            z = gen.standard_normal(n)
            z = z[(a <= z) & (z <= b)]
        elif a < 0 or (b - a) * (b + a) <= 2:
            # exp(-(z^2 - c^2)/2) with c the point of [a, b] nearest the mode
            c2 = 0.0 if a < 0 else a * a
            z = gen.uniform(a, b, n)
            z = z[gen.random(n) <= np.exp((c2 - z * z) / 2)]
        else:
            rate = (a + math.sqrt(a * a + 4)) / 2
            z = a + gen.exponential(1 / rate, n)
            z = z[(z <= b) & (gen.random(n) <= np.exp(-((z - rate) ** 2) / 2))]
        take = min(len(z), size - filled)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


def _window_finals(crit: SelectionCriterion, sd: float, count: int, gen,
                   member_bytes: float) -> np.ndarray:
    """Unwrapped final angles of the members of ``count`` draws of
    N(theta_in, sd^2) that meet a criterion with ``theta_f``.

    The accepted count is Binomial(count, p), p the mass of the windows
    theta_f + 2 pi n +- w summed over every winding n whose mass is not
    exactly 0.0; each member takes a winding with probability proportional
    to its mass, then an angle from the normal truncated to that window.
    Members come grouped by winding.  A euclidean ball of radius r on pure
    states is the window w = 2 arcsin(min(r/2, 1)).  An accepted count whose
    ``member_bytes`` each exceed physical memory raises DomainError before
    any member is drawn.
    """
    w = crit.angular_window
    if crit.euclidean:
        w = 2 * math.asin(min(w / 2, 1.0))
    d = crit.theta_f - crit.theta_in
    first = -round(d / (2 * math.pi))  # the window nearest the mean
    windows, masses = [], []
    for n, step in ((first, 1), (first - 1, -1)):  # outwards, while mass is left
        while True:
            lo, hi = (d + 2 * math.pi * n - w) / sd, (d + 2 * math.pi * n + w) / sd
            mass = _normal_mass(lo, hi)
            if mass == 0.0:
                break
            windows.append((lo, hi))
            masses.append(mass)
            n += step
    p = math.fsum(masses)
    accepted = int(gen.binomial(count, min(p, 1.0)))
    if accepted == 0:
        raise _empty_selection(count)
    require_memory(accepted * member_bytes, f"count {count} ({accepted} accepted)")
    per_window = gen.multinomial(accepted, np.array(masses) / p)
    z = [_truncated_normal(gen, lo, hi, int(k))
         for (lo, hi), k in zip(windows, per_window) if k]
    return crit.theta_in + sd * np.concatenate(z)


def select_polar(crit: SelectionCriterion, tau_m: float, times, count: int,
                 seed: int = 0) -> SubEnsemble:
    """Post-selected exact polar Monte Carlo of ``count`` trajectories on ``times``.

    Samples the final angles first and fills the earlier times by exact
    Brownian bridges (``polar_bridge``, key [seed, 1]).  The unwrapped final
    angle is N(theta_in, t/tau_m) at the horizon t, so for a criterion with
    ``theta_f`` the accepted members are drawn straight from their exact law
    (``Philox(key=[seed, 0])``): a binomial accepted count, a winding per
    member, and the final angle from the normal truncated to that winding's
    window.  Time and memory are O(accepted x times); nothing of length
    ``count`` is built.  Without ``theta_f`` every member is kept, and the
    final angles are ``polar_ensemble`` on the horizon alone.  The law
    equals ``select`` on forward-sampled paths; the draws do not.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    times = _sample_times(times)
    idx = _horizon(times, crit)
    horizon = times[idx:idx + 1]
    member_bytes = 32.0 * (idx + 1)  # a member's angles and states
    if crit.theta_f is None:
        require_memory(count * member_bytes, f"count {count}")
        final = polar_ensemble(crit.theta_in, tau_m, horizon, count, seed)[:, 0]
    else:
        if not horizon[0] > 0:
            raise DomainError("post-selection needs a horizon after t = 0")
        gen = _philox(seed, 0)
        final = _window_finals(crit, math.sqrt(horizon[0] / tau_m), count, gen, member_bytes)
    thetas = polar_bridge(crit.theta_in, tau_m, times[: idx + 1], final, seed)
    return SubEnsemble(
        times=times[: idx + 1],
        states=polar_states(thetas),
        accepted_count=len(final),
        total_count=count,
    )


def _rows(sub: SubEnsemble, a: str, t, name: str) -> np.ndarray:
    """Coordinate ``a`` of every member at the stored times nearest ``t``
    (called ``name`` in errors), as C-contiguous rows of shape ``t.shape +
    (members,)``.  A row-wise numpy reduction over such rows rounds as the
    1-D one over each row does."""
    if a not in _COORD:
        raise DomainError(f"unknown coordinate {a!r}; expected x, y or z")
    return np.ascontiguousarray(sub.states[..., _COORD[a]].T[_snap_index(sub.times, t, name)])


def _result(value, se):
    """Python floats for scalar times, ndarrays for arrays of them."""
    return (value, se) if np.ndim(value) else (float(value), float(se))


def correlate(sub: SubEnsemble, a: str, b: str, t1, t2):
    """Sample mean of a(t1)*b(t2) over the sub-ensemble, with its SE.

    ``t1`` and ``t2`` broadcast against each other; scalar times give
    Python floats, arrays of them ndarrays of the broadcast shape.
    """
    if sub.accepted_count < 2:
        raise DomainError("need at least 2 accepted trajectories")
    prod = _rows(sub, a, t1, "t1") * _rows(sub, b, t2, "t2")
    n = prod.shape[-1]
    return _result(np.mean(prod, axis=-1), np.std(prod, ddof=1, axis=-1) / math.sqrt(n))


def covariance(sub: SubEnsemble, a: str, b: str, t1, t2):
    """Unbiased sample covariance of a(t1) and b(t2), with its SE; ``t1``
    and ``t2`` broadcast as in ``correlate``."""
    if sub.accepted_count < 2:
        raise DomainError("need at least 2 accepted trajectories")
    va, vb = _rows(sub, a, t1, "t1"), _rows(sub, b, t2, "t2")
    da = va - va.mean(axis=-1, keepdims=True)
    db = vb - vb.mean(axis=-1, keepdims=True)
    n = va.shape[-1]
    cov = np.vecdot(da, db) / (n - 1)
    return _result(cov, np.std(da * db, ddof=1, axis=-1) / math.sqrt(n))


_CSV_HEADER = "t1,t2,kind,value,std_error,accepted,total"


def write_correlator_csv(path, rows) -> None:
    """CSV with columns (t1, t2, kind, value, std_error, accepted, total),
    one row per tuple of Python values, in the order given."""
    write_table(path, _CSV_HEADER, rows)


def read_correlator_csv(path) -> list[tuple]:
    """Round-trip reader for write_correlator_csv output."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"{path}:1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 columns")
            t1, t2, kind, value, se, acc, tot = parts
            rows.append((float(t1), float(t2), kind, float(value), float(se), int(acc), int(tot)))
    return rows
