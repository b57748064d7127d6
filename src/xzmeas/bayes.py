"""Discrete-time quantum Bayesian state update from readout records.

Replicates the experimental reconstruction pipeline: per step, the Gaussian
Bayesian update for the z channel, the same update for the phi channel,
then the exact environmental map (residual Rabi rotation composed with
uniform depolarization in the xz plane).  One update formula serves any
axis n = (sin phi, 0, cos phi): with m = n.q and a = r dt/tau,

    q' = E (q - m n)/(cosh a + m sinh a) + n (m cosh a + sinh a)/(cosh a + m sinh a),

where the extra damping E = exp[-(Gamma - 1/(2 tau)) dt] of the components
transverse to the axis vanishes for ideal measurements (Rouchon & Ralph,
PRA 91, 012118 (2015)).  One fused replay kernel runs the whole batch on
rows of Bloch coordinates; a single record is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BlochState, ChannelConfig, QubitEnvironment, SimConfig, open_rewrite
from .sde import _BLOCK, ReadoutRecord, Trajectory, _xz_entries

#: positivity slack before a reconstruction error is raised
POSITIVITY_TOL = 1e-10


class ReconstructionError(RuntimeError):
    """Positivity violated beyond tolerance during a Bayesian update."""


@dataclass(frozen=True)
class DensityMatrix2:
    """Single-qubit density matrix in the sigma_z eigenbasis.

    ``coherence`` is the 01 element; populations p0 (z = +1) and p1 sum to 1.
    """

    p0: float
    p1: float
    coherence: complex

    def __post_init__(self):
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ReconstructionError("trace differs from 1 beyond 1e-12")
        if abs(self.coherence) ** 2 > self.p0 * self.p1 + 1e-12:
            raise ReconstructionError("coherence violates positivity")

    def to_bloch(self) -> BlochState:
        return BlochState(
            2 * self.coherence.real, -2 * self.coherence.imag, self.p0 - self.p1
        )

    @classmethod
    def from_bloch(cls, q: BlochState) -> "DensityMatrix2":
        return cls((1 + q.z) / 2, (1 - q.z) / 2, complex(q.x, -q.y) / 2)


def _channel_constants(dt: float, channel: ChannelConfig) -> tuple:
    """(sin phi, cos phi, E, dt / tau) of a channel, for ``_measure``.

    E = exp[-(Gamma - 1/(2 tau)) dt] is the extra damping of the components
    transverse to the axis.
    """
    s, _, c = channel.axis
    extra = math.exp(-(channel.gamma - 1.0 / (2 * channel.tau)) * dt)
    return np.array(s), np.array(c), np.array(extra), dt / channel.tau


def _update_coefficients(r, const: tuple) -> tuple:
    """(cosh a - E, sinh a, cosh a) for readouts r, with a = r dt / tau.

    Population reweighting by exp[-(r -+ 1)^2 dt / 2 tau] along the axis
    reduces to these; the (4 pi tau / dt)^(-1/2) operator prefactor cancels.
    """
    a = np.asarray(r) * const[3]
    ca = np.cosh(a)
    return ca - const[2], np.sinh(a), ca


def _measure(x, y, z, const, cme, sa, ca):
    """One channel's update, as [E q + n (m (cosh a - E) + sinh a)] / (cosh a + m sinh a)."""
    s, c, extra, _ = const
    m = s * x + c * z
    inv = 1.0 / (ca + m * sa)
    f = extra * inv
    g = (m * cme + sa) * inv
    return f * x + s * g, f * y, f * z + c * g


def _project_positivity(x, y, z, where: str):
    """Rescale (x, y) onto the sphere for rounding-level violations."""
    n2 = x * x + y * y + z * z
    worst = n2.max()
    # negated tests so that a NaN norm raises
    if not worst <= 1.0:
        if not worst - 1.0 <= POSITIVITY_TOL:
            raise ReconstructionError(
                f"positivity violated by {float(worst) - 1.0:.3g} at {where}"
            )
        trans = x * x + y * y
        scale = np.where(
            (n2 > 1.0) & (trans > 0),
            np.sqrt(np.maximum(1.0 - z * z, 0.0) / np.where(trans > 0, trans, 1.0)),
            1.0,
        )
        x, y = x * scale, y * scale
    return x, y, z


def bayes_update(
    rho: DensityMatrix2, readout: float, dt: float, channel: ChannelConfig
) -> DensityMatrix2:
    """Quantum Bayesian update of ``rho`` for one readout of one channel at any
    axis angle."""
    const = _channel_constants(dt, channel)
    x, y, z = rho.to_bloch().as_array()[:, None]
    x, y, z = _measure(x, y, z, const, *_update_coefficients(readout, const))
    x, y, z = _project_positivity(x, y, z, "bayes_update")
    return DensityMatrix2.from_bloch(BlochState(x.item(), y.item(), z.item()))


def _env_matrix(dt: float, env: QubitEnvironment) -> np.ndarray:
    """Exact map of the residual Rabi rotation and depolarization over dt.

    Integrates xdot = -gamma x + Omega z, zdot = -gamma z - Omega x; y is
    left alone, since depolarization acts in the xz plane
    (``core.QubitEnvironment``) as in the SDE.
    """
    damp = math.exp(-env.depolarization_rate * dt)
    ang = env.rabi_detuning * dt
    c, s = damp * math.cos(ang), damp * math.sin(ang)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def env_step(q: BlochState, dt: float, env: QubitEnvironment) -> BlochState:
    """Exact evolution under residual Rabi rotation and xz depolarization."""
    return BlochState.from_array(_env_matrix(dt, env) @ q.as_array())


def reconstruct(
    readouts: ReadoutRecord, q_in: BlochState, cfg: SimConfig
) -> Trajectory:
    """Bloch trajectory implied by a readout record.

    Applies the z measurement, then the phi measurement, then the environment
    map for each step; the ordering ambiguity is O(dt^2).
    """
    states = reconstruct_batch(
        np.asarray(readouts.r_z)[:, None],
        np.asarray(readouts.r_phi)[:, None],
        q_in.as_array(),
        cfg,
    )
    times = cfg.dt * np.arange(states.shape[0])
    return Trajectory(times=times, states=states[:, 0, :])


def reconstruct_batch(
    r_z: np.ndarray, r_x: np.ndarray, q_in: np.ndarray, cfg: SimConfig
) -> np.ndarray:
    """Fused replay of a batch.  r_z, r_x: (n_steps, m) readouts of the z and
    phi channels.  Returns states of shape (n_steps + 1, m, 3)."""
    n, m = r_z.shape
    zc, pc = (_channel_constants(cfg.dt, ch) for ch in cfg.channels)
    e00, e02, e11, e20, e22 = _xz_entries(_env_matrix(cfg.dt, cfg.environment))
    states = np.empty((n + 1, m, 3))
    rows = states.transpose(0, 2, 1)
    rows[0] = np.asarray(q_in, dtype=float)[:, None]
    x, y, z = rows[0].copy()
    for k0 in range(0, n, _BLOCK):
        cz, sz, hz = _update_coefficients(r_z[k0:k0 + _BLOCK], zc)
        cp, sp, hp = _update_coefficients(r_x[k0:k0 + _BLOCK], pc)
        for j in range(len(cz)):
            x, y, z = _measure(x, y, z, zc, cz[j], sz[j], hz[j])
            x, y, z = _measure(x, y, z, pc, cp[j], sp[j], hp[j])
            x, y, z = _project_positivity(x, y, z, f"step {k0 + j}")
            x, y, z = e00 * x + e02 * z, e11 * y, e20 * x + e22 * z
            out = rows[k0 + j + 1]
            out[0], out[1], out[2] = x, y, z
    return states


# ---------------------------------------------------------------------------
# readout-record ingestion
# ---------------------------------------------------------------------------

def write_readout_records(path, record: ReadoutRecord, cfg: SimConfig) -> None:
    """Write a delimited text record with a parameter-carrying header."""
    cz, cp = cfg.channels
    with open_rewrite(path) as fh:
        fh.write(
            "# dt={!r} gamma_z={!r} eta_z={!r} gamma_x={!r} eta_x={!r}\n".format(
                cfg.dt, cz.gamma, cz.eta, cp.gamma, cp.eta
            )
        )
        fh.write("t,r_z,r_x\n")
        for t, rz, rx in zip(record.times, record.r_z, record.r_phi):
            fh.write(f"{float(t)!r},{float(rz)!r},{float(rx)!r}\n")


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: non-numeric field {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: non-finite field {text!r}")
    return value


def read_readout_records(path) -> tuple[ReadoutRecord, dict]:
    """Parse a readout file; malformed rows and non-finite values are hard
    errors (ValueError) naming path and line."""
    params = {}
    times, r_z, r_x = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    key, _, val = tok.partition("=")
                    params[key] = _finite(val, where)
                continue
            if line == "t,r_z,r_x":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{where}: expected 3 columns, got {len(parts)}")
            times.append(_finite(parts[0], where))
            r_z.append(_finite(parts[1], where))
            r_x.append(_finite(parts[2], where))
    record = ReadoutRecord(
        times=np.array(times), r_z=np.array(r_z), r_phi=np.array(r_x)
    )
    return record, params
