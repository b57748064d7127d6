"""Tree-level diagrammatic covariances for non-ideal XZ measurement.

The stochastic action splits into a free part (exponential propagators for x
and z) and an interaction part whose vertices carry one factor of the noise.
Keeping diagrams with no noise loops gives connected covariances that are
exact to first order in the quantum efficiencies.

The published z-z expression carries a first term with an extra 1/tau_z
relative to the z-x analogue; re-deriving the two-propagator diagrams (and
matching the small-time Ito variance rate (1 - z^2)^2/tau_z) fixes the
coefficient to -4*Gamma_z*eta_z*z_in^2*t_min, the form used here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError


@dataclass(frozen=True)
class TreeParams:
    """Rates, efficiencies and the (pure, xz-plane) initial coordinates."""

    gamma_x: float
    gamma_z: float
    eta_x: float
    eta_z: float
    x_in: float
    z_in: float

    def __post_init__(self):
        if not all(0 < g < math.inf for g in (self.gamma_x, self.gamma_z)):  # NaN fails, as below
            raise DomainError(f"rates gamma_x {self.gamma_x}, gamma_z {self.gamma_z}"
                              " must be finite and > 0")
        if not (0 <= self.eta_x <= 1 and 0 <= self.eta_z <= 1):
            raise DomainError("efficiencies must lie in [0, 1]")
        if not self.x_in**2 + self.z_in**2 <= 1 + 1e-12:
            raise DomainError(f"initial coordinates {self.x_in}, {self.z_in} must lie in the disc")


def mean_tree(coord: str, t, p: TreeParams):
    """Free propagation of the initial vertex: the tree-level mean."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # negated so that NaN fails
        raise DomainError("t must be >= 0")
    if coord == "x":
        out = p.x_in * np.exp(-p.gamma_z * t)
    elif coord == "z":
        out = p.z_in * np.exp(-p.gamma_x * t)
    else:
        raise DomainError(f"unknown coordinate {coord!r}")
    return out if out.ndim else float(out)


def cov_tree(kind: str, t1, t2, p: TreeParams) -> float | np.ndarray:
    """Tree-level connected covariance; kind in {zx, zz, xx}.  The leading
    z-z term is the corrected one (see module notes)."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if not (np.all(t1 >= 0) and np.all(t2 >= 0)):  # negated so that NaN fails
        raise DomainError("times must be >= 0")
    tmin = np.minimum(t1, t2)
    gx, gz = p.gamma_x, p.gamma_z
    ex, ez = p.eta_x, p.eta_z
    xi, zi = p.x_in, p.z_in
    if kind == "zx":
        out = np.exp(-gx * t1 - gz * t2) * (
            -2 * xi * zi * (gz * ez + gx * ex) * tmin
            + (xi * zi**3 * gz * ez / gx) * (1 - np.exp(-2 * gx * tmin))
            + (zi * xi**3 * gx * ex / gz) * (1 - np.exp(-2 * gz * tmin))
        )
    elif kind in ("zz", "xx"):
        if kind == "xx":
            gx, gz, ex, ez, xi, zi = gz, gx, ez, ex, zi, xi
        out = np.exp(-gx * (t1 + t2)) * (
            -4 * gz * ez * zi**2 * tmin
            + (gz * ez / gx) * (np.exp(2 * gx * tmin) - 1)
            + (xi**2 * zi**2 * gx * ex / gz) * (1 - np.exp(-2 * gz * tmin))
            + (zi**4 * gz * ez / gx) * (1 - np.exp(-2 * gx * tmin))
        )
    else:
        raise DomainError(f"unknown covariance kind {kind!r}")
    return out if out.ndim else float(out)


def var_tree(coord: str, t, p: TreeParams):
    """Tree-level variance: the equal-time, equal-coordinate covariance."""
    if coord not in ("x", "z"):
        raise DomainError(f"unknown coordinate {coord!r}")
    return cov_tree(coord * 2, t, t, p)
