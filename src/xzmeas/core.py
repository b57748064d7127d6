"""Shared domain types, parameter derivations and Bloch-sphere geometry.

All types here are immutable value objects; every function apart from the
file writers ``open_rewrite`` and ``write_table`` is pure, so the module is
safe for unrestricted concurrent use.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import chain, islice

import numpy as np

#: Rounding slack on the Bloch-vector norm: a BlochState with norm above
#: 1 + NORM_TOL is refused.  It is only the floor of the SDE step kernel's
#: overshoot window, which projects norms up to 1 + max(NORM_TOL, 30 dt/tau)
#: back onto the sphere (1.5 at dt/tau = 0.05) and raises beyond that.
NORM_TOL = 1e-9


class DomainError(ValueError):
    """Raised when an argument lies outside its physical domain."""


@dataclass(frozen=True)
class BlochState:
    """Qubit state as Bloch coordinates (x, y, z)."""

    x: float
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        n = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if not n <= 1.0 + NORM_TOL:  # negated so that NaN is rejected
            raise DomainError(f"Bloch vector norm {n} exceeds 1 + {NORM_TOL}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, q) -> "BlochState":
        return cls(float(q[0]), float(q[1]), float(q[2]))


def measurement_time(gamma: float, eta: float) -> float:
    """Characteristic measurement time tau = 1/(2*gamma*eta).

    ``gamma`` is the ensemble-averaged dephasing rate of the channel and
    ``eta`` its quantum efficiency in (0, 1].
    """
    if not gamma > 0:  # negated so that NaN is rejected, as below
        raise DomainError(f"dephasing rate gamma must be positive, got {gamma}")
    if not 0 < eta <= 1:
        raise DomainError(f"efficiency must lie in (0, 1], got {eta}")
    return 1.0 / (2.0 * gamma * eta)


def polar_to_bloch(theta: float) -> BlochState:
    """Map a polar angle to the pure state (sin(theta), 0, cos(theta))."""
    return BlochState(math.sin(theta), 0.0, math.cos(theta))


@dataclass(frozen=True)
class ChannelConfig:
    """One continuous measurement channel.

    Parameters
    ----------
    axis_angle : float
        Angle of the measured axis in the xz plane (0 for the z channel).
    gamma : float
        Total measurement-induced dephasing rate of the channel.
    eta : float
        Quantum efficiency in (0, 1].
    """

    axis_angle: float
    gamma: float
    eta: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.axis_angle):
            raise DomainError(f"axis_angle must be finite, got {self.axis_angle}")
        # delegates range checks
        measurement_time(self.gamma, self.eta)

    @property
    def tau(self) -> float:
        """Derived characteristic measurement time; never stored separately."""
        return measurement_time(self.gamma, self.eta)

    @property
    def axis(self) -> np.ndarray:
        """Unit vector (sin phi, 0, cos phi) of the measured axis."""
        return np.array([math.sin(self.axis_angle), 0.0, math.cos(self.axis_angle)])


@dataclass(frozen=True)
class QubitEnvironment:
    """Residual unitary detuning plus depolarization in the xz plane."""

    rabi_detuning: float = 0.0
    depolarization_rate: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rabi_detuning) and 0 <= self.depolarization_rate < math.inf):
            raise DomainError(f"rabi_detuning {self.rabi_detuning} must be finite and "
                              f"depolarization_rate {self.depolarization_rate} finite and >= 0")


#: stability guard on the Euler-Maruyama step
MAX_DT_OVER_TAU = 0.05


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one stochastic simulation.

    ``channels`` is the (z-channel, phi-channel) pair.  ``t_final`` must be a
    whole number of steps ``dt``, at least one (NaN fails).
    """

    channels: tuple[ChannelConfig, ChannelConfig]
    dt: float
    t_final: float
    initial_state: BlochState = field(default_factory=lambda: BlochState(0, 0, 1))
    environment: QubitEnvironment = field(default_factory=QubitEnvironment)
    rng_seed: int = 0

    def __post_init__(self):
        if len(self.channels) != 2:
            raise DomainError(f"channels must be a (z, phi) pair, got {len(self.channels)}")
        if not self.dt > 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        n = self.t_final / self.dt
        if not 0.5 <= n < math.inf or abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise DomainError("t_final must be a positive integer multiple of dt")
        worst = max(1.0 / c.tau for c in self.channels)
        if self.dt * worst > MAX_DT_OVER_TAU + 1e-12:
            raise DomainError(
                f"dt*max(1/tau) = {self.dt * worst:.3g} exceeds the "
                f"stability guard {MAX_DT_OVER_TAU}"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Read what ``to_dict`` writes, and a campaign's ``sim``
        block, where ``initial_theta`` may stand for ``initial_state`` and
        ``environment``, ``initial_state`` and ``rng_seed`` may be missing.
        A missing field raises KeyError, a malformed one TypeError or DomainError."""
        if "initial_theta" in d:
            initial = polar_to_bloch(d["initial_theta"])
        else:
            initial = BlochState(*d.get("initial_state", (0.0, 0.0, 1.0)))
        return cls(
            channels=tuple(ChannelConfig(**c) for c in d["channels"]),
            dt=d["dt"],
            t_final=d["t_final"],
            initial_state=initial,
            environment=QubitEnvironment(**d.get("environment", {})),
            rng_seed=d.get("rng_seed", 0),
        )

    def to_dict(self) -> dict:
        """Every field, as ``from_dict`` reads it back; ready for ``json.dumps``."""
        q = self.initial_state
        return {**asdict(self), "initial_state": [q.x, q.y, q.z]}

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


#: rows ``write_table`` formats in one operation: the floor of per-call cost
#: at a few tens of kilobytes of text held
WRITE_BATCH = 256


@contextmanager
def open_rewrite(path, mode: str = "w"):
    """Open ``path`` for writing from its start; on exit cut the file at the
    end of what was written.

    Unlike ``open(path, "w")`` this does not truncate on open.  On ext4,
    closing a non-empty file that was truncated to zero waits for its new
    blocks to reach the disk, tens of milliseconds per file; cutting at the
    end position does not.  The file keeps its inode, and a symlink is
    written through.  ``mode`` is "w" or "wb".
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode) as fh:
        yield fh
        fh.truncate()


def column_rows(*columns):
    """The rows of arrays set side by side (1-D columns or 2-D blocks of
    equal length) for ``write_table``: lists of Python scalars, converted
    ``WRITE_BATCH`` rows at a time so a long table is never held as one."""
    return chain.from_iterable(
        np.column_stack([c[k:k + WRITE_BATCH] for c in columns]).tolist()
        for k in range(0, len(columns[0]), WRITE_BATCH)
    )


def write_table(path, header: str, rows) -> None:
    """Write ``header`` and then each row of Python values as their ``str``
    joined by commas; for a float that is its ``repr``, the shortest text that
    reads back to the same float.

    ``rows`` may be a generator; it is consumed once, ``WRITE_BATCH`` rows at
    a time.  Each batch is written by one ``%`` operation whose format holds
    a ``%s`` per value, which gives the bytes of ``",".join(map(str, row))``
    per row without a join per row.  Rows are sequences of one width; a row
    of another width raises ValueError, and the rows before its batch stay
    written.
    """
    rows = iter(rows)
    with open_rewrite(path) as fh:
        fh.write(header + "\n")
        batch = list(islice(rows, WRITE_BATCH))
        width = len(batch[0]) if batch else 0
        line = ",".join(["%s"] * width) + "\n"
        while batch:
            if set(map(len, batch)) != {width}:
                bad = next(row for row in batch if len(row) != width)
                raise ValueError(f"row of {len(bad)} values in a table of width {width}: {bad!r}")
            fh.write((line * len(batch)) % tuple(chain.from_iterable(batch)))
            batch = list(islice(rows, WRITE_BATCH))
