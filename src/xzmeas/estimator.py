"""Sub-ensemble selection and statistical estimation from trajectory arrays.

Works on anything exposing ``times`` (n,) and ``states`` (count, n, 3):
Monte Carlo ensembles, polar fast-path samples, or Bayesian reconstructions.
``select_polar`` samples a post-selected polar ensemble final angle first:
only the accepted members get a path, and only they become Bloch states.
Reductions are plain numpy means (pairwise summation) over members ordered by
stream id, so results are independent of any parallel execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, open_rewrite
from .sde import polar_bridge, polar_ensemble, polar_states

_COORD = {"x": 0, "y": 1, "z": 2}


class SelectionError(RuntimeError):
    """No trajectory satisfied the post-selection criterion."""


@dataclass(frozen=True)
class SelectionCriterion:
    """Post-selection rule: final angle within +-angular_window of theta_f.

    ``euclidean`` switches to a distance ball in the xz plane, which is the
    right notion for mixed-state (non-ideal) ensembles whose final states lie
    off the unit circle.
    """

    theta_in: float
    t_total: float
    theta_f: float | None = None
    angular_window: float = 0.05
    euclidean: bool = False

    def __post_init__(self):
        if self.theta_f is not None and not 0 < self.angular_window <= math.pi:
            raise DomainError("angular_window must lie in (0, pi]")


@dataclass(frozen=True)
class SubEnsemble:
    times: np.ndarray
    states: np.ndarray
    accepted_count: int
    total_count: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted_count / self.total_count


@dataclass(frozen=True)
class CorrelatorResult:
    t1_grid: np.ndarray
    t2_ref: float
    values: np.ndarray
    std_errors: np.ndarray
    accepted_count: int
    total_count: int


def _snap_index(times: np.ndarray, t: float) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    dt = times[1] - times[0] if len(times) > 1 else np.inf
    if abs(times[idx] - t) > dt / 2 + 1e-12 * max(1.0, abs(t)):
        raise DomainError(f"time {t} lies outside the stored grid")
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
        raise SelectionError(
            f"0 of {len(final)} trajectories accepted (rate 0); widen the window"
        )
    return keep


def _horizon(times: np.ndarray, crit: SelectionCriterion) -> int:
    """Index of the stored time nearest the selection horizon t_total."""
    if times[-1] < crit.t_total - 1e-12:
        raise DomainError("ensemble is shorter than the selection horizon")
    return _snap_index(times, crit.t_total)


def select(ens, crit: SelectionCriterion) -> SubEnsemble:
    """Sub-ensemble of trajectories meeting the post-selection criterion."""
    times = np.asarray(ens.times)
    states = np.asarray(ens.states)
    idx = _horizon(times, crit)
    keep = _accepted(states[:, idx, :], crit)
    return SubEnsemble(
        times=times[: idx + 1],
        states=states[keep, : idx + 1, :],
        accepted_count=int(np.count_nonzero(keep)),
        total_count=states.shape[0],
    )


def select_polar(crit: SelectionCriterion, tau_m: float, times, count: int,
                 seed: int = 0) -> SubEnsemble:
    """Post-selected exact polar Monte Carlo of ``count`` trajectories on ``times``.

    Draws the final angles first (``polar_ensemble`` on the horizon alone),
    applies the criterion to them, and fills the earlier times by exact
    Brownian bridges (``polar_bridge``) for the accepted members only.  The
    law equals ``select`` on forward-sampled paths, with time and memory
    spent on ``count`` final angles plus the accepted members' paths.
    """
    times = np.asarray(times, dtype=float)
    idx = _horizon(times, crit)
    final = polar_ensemble(crit.theta_in, tau_m, times[idx:idx + 1], count, seed)[:, 0]
    keep = _accepted(polar_states(final), crit)
    thetas = polar_bridge(crit.theta_in, tau_m, times[: idx + 1], final[keep], seed)
    return SubEnsemble(
        times=times[: idx + 1],
        states=polar_states(thetas),
        accepted_count=int(np.count_nonzero(keep)),
        total_count=count,
    )


def _samples(sub: SubEnsemble, a: str, b: str, t1: float, t2: float) -> np.ndarray:
    i1 = _snap_index(sub.times, t1)
    i2 = _snap_index(sub.times, t2)
    return sub.states[:, i1, _COORD[a]] * sub.states[:, i2, _COORD[b]]


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    n = len(vals)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n >= 2 else float("nan")
    return mean, se


def correlate(sub: SubEnsemble, a: str, b: str, t1: float, t2: float):
    """Sample mean of a(t1)*b(t2) over the sub-ensemble, with its SE."""
    if sub.accepted_count < 2:
        raise DomainError("need at least 2 accepted trajectories")
    return _mean_se(_samples(sub, a, b, t1, t2))


def covariance(sub: SubEnsemble, a: str, b: str, t1: float, t2: float):
    """Unbiased sample covariance of a(t1) and b(t2), with its SE."""
    if sub.accepted_count < 2:
        raise DomainError("need at least 2 accepted trajectories")
    i1 = _snap_index(sub.times, t1)
    i2 = _snap_index(sub.times, t2)
    va = sub.states[:, i1, _COORD[a]]
    vb = sub.states[:, i2, _COORD[b]]
    da = va - va.mean()
    db = vb - vb.mean()
    n = len(va)
    cov = float(np.dot(da, db) / (n - 1))
    se = float(np.std(da * db, ddof=1) / math.sqrt(n))
    return cov, se


def variance(sub: SubEnsemble, a: str, t: float):
    """Unbiased sample variance of a(t), with its SE."""
    return covariance(sub, a, a, t, t)


def correlate_grid(
    sub: SubEnsemble, a: str, b: str, t1_grid, t2: float
) -> CorrelatorResult:
    """correlate() swept over a t1 grid at fixed t2."""
    t1_grid = np.asarray(t1_grid, dtype=float)
    vals = np.empty_like(t1_grid)
    errs = np.empty_like(t1_grid)
    for j, t1 in enumerate(t1_grid):
        vals[j], errs[j] = correlate(sub, a, b, float(t1), t2)
    return CorrelatorResult(
        t1_grid=t1_grid,
        t2_ref=t2,
        values=vals,
        std_errors=errs,
        accepted_count=sub.accepted_count,
        total_count=sub.total_count,
    )


def write_correlator_csv(path, rows) -> None:
    """CSV with columns (t1, t2, kind, value, std_error, accepted, total).

    Rows are written in the order given; callers pass a deterministic order.
    """
    with open_rewrite(path) as fh:
        fh.write("t1,t2,kind,value,std_error,accepted,total\n")
        for t1, t2, kind, value, se, acc, tot in rows:
            fh.write(
                f"{float(t1)!r},{float(t2)!r},{kind},"
                f"{float(value)!r},{float(se)!r},{int(acc)},{int(tot)}\n"
            )


def read_correlator_csv(path) -> list[tuple]:
    """Round-trip reader for write_correlator_csv output."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t1,t2,kind,value,std_error,accepted,total":
            raise ValueError(f"{path}:1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 columns")
            rows.append(
                (
                    float(parts[0]),
                    float(parts[1]),
                    parts[2],
                    float(parts[3]),
                    float(parts[4]),
                    int(parts[5]),
                    int(parts[6]),
                )
            )
    return rows
