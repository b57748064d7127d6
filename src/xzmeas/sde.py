"""Ito integration of the stochastic master equation and ensemble generation.

One fused Euler-Maruyama kernel advances a batch of m Bloch vectors held as
a structure of arrays: contiguous rows x, y, z of length m.  A channel with
axis n_c = (sin phi_c, 0, cos phi_c) and measurement time tau_c contributes a
linear drift and the diffusion vector (n_c - (n_c.q) q)/sqrt(tau_c), so with
A the whole linear drift (both channels' dephasing, residual Rabi rotation
and depolarization) a step is

    q' = M q + sqrt(dt) (w - (w.q) q),  M = I + A dt,  w = sum_c n_c xi_c / sqrt(tau_c),

and the readouts n_c.q + sqrt(tau_c/dt) xi_c share the draws xi_c.  Any angle
between the two measured axes is handled.  A single trajectory is an
ensemble of one; the kernel steps a batch of one on Python floats, where a
numpy call per step on one element would cost more than the arithmetic, and
with the same step function and rounding as a wide batch, so its path equals
that member's in any ensemble bit for bit.  The polar samplers are an
opt-in fast path for the ideal equal-strength XZ case, where the dynamics is
exact free diffusion of the polar angle and therefore can be sampled with no
discretization error: ``polar_ensemble`` forward in time, ``polar_bridge``
between a given start and end angle.  A post-selection
(``estimator.select_polar``) draws the kept members' final angles straight
from the Gaussian law of the final angle and fills in their paths alone.

Random numbers: every trajectory owns a counter-based Philox stream keyed by
(seed, stream_id), so any thread can draw any stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  Each thread keeps one Philox and
re-keys it per stream by assigning its state, rather than building a generator
per stream; the draws equal those of a new Philox under that key.  An
ensemble fills each chunk's streams on every usable CPU, and is reproducible
regardless of execution order, chunking or CPU count.

Storage: an ensemble is held as the kernel writes it, (time, coordinate,
member) blocks whose rows are contiguous across members; its (member, ...)
arrays are transposed views of those blocks.
"""
from __future__ import annotations

import io
import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import NORM_TOL, SimConfig, open_rewrite


class IntegratorError(RuntimeError):
    """Bloch norm left the overshoot window; names the offending step."""


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded Bloch path.  ``states`` has shape (n_steps + 1, 3)."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class ReadoutRecord:
    """Raw detector outputs, one value per step for each channel."""

    times: np.ndarray
    r_z: np.ndarray
    r_phi: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    """Stacked trajectories sharing one SimConfig.

    ``states`` has shape (count, n_steps + 1, 3); optional readouts have shape
    (count, n_steps).  From ``run_ensemble`` they are transposed views of
    (n_steps + 1, 3, count) and (n_steps, 2, count) blocks, not C-contiguous.
    """

    times: np.ndarray
    states: np.ndarray
    config: SimConfig
    stream_ids: np.ndarray
    r_z: np.ndarray | None = None
    r_phi: np.ndarray | None = None


# ---------------------------------------------------------------------------
# the fused step kernel
# ---------------------------------------------------------------------------

#: overshoot scale allowed before a step is declared unstable, in units of
#: dt/tau.  Euler-Maruyama fluctuates the squared norm by ~(n^2 - 1)*dt/tau
#: around the sphere, so overshoots of that size are expected and projected
#: back (standard projected Euler-Maruyama); anything larger is a bug.
_OVERSHOOT_FACTOR = 30.0

#: steps whose noise terms and readouts are computed in one vectorized pass;
#: bounds that scratch to _BLOCK x batch width
_BLOCK = 16

#: ensemble members per chunk; bounds its noise scratch to 40 MB at 500 steps
_CHUNK = 5000


def _step_matrix(cfg: SimConfig) -> np.ndarray:
    """M = I + A dt for the linear drift A.

    Each channel dephases the components transverse to its axis at its rate;
    the environment adds depolarization of x and z and the Rabi rotation
    x' = Omega z, z' = -Omega x.  With both axes in the xz plane, M couples x
    and z only.
    """
    env = cfg.environment
    a = env.rabi_detuning * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    a -= env.depolarization_rate * np.diag([1.0, 0.0, 1.0])
    for ch in cfg.channels:
        a -= ch.gamma * (np.eye(3) - np.outer(ch.axis, ch.axis))
    return np.eye(3) + a * cfg.dt


def _xz_entries(mat: np.ndarray) -> tuple:
    """Entries 00, 02, 11, 20, 22 of a map that couples x and z only, as
    Python floats."""
    return tuple(float(mat[i]) for i in ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2)))


def _noise_terms(xi, axes, u_scale) -> tuple:
    """x and z of sqrt(dt) w for draws xi (steps, 2, m); its y is 0."""
    u = xi * u_scale  # sqrt(dt) xi_c / sqrt(tau_c)
    return axes[0, 0] * u[:, 0] + axes[1, 0] * u[:, 1], axes[0, 2] * u[:, 0] + axes[1, 2] * u[:, 1]


def _step(x, y, z, wx, wz, m00, m02, m11, m20, m22) -> tuple:
    """q' = (M - (w.q) I) q + sqrt(dt) w and its squared norm, on Python
    floats or on rows of a batch alike."""
    wq = wx * x + wz * z
    x, y, z = (
        (m00 - wq) * x + m02 * z + wx,
        (m11 - wq) * y,
        (m22 - wq) * z + m20 * x + wz,
    )
    return x, y, z, x * x + y * y + z * z


def _readouts(pre, xi, axes, r_scale):
    """n_c . q at the start of each step, plus that step's own draws."""
    return axes[:, 0:1] * pre[:, 0:1] + axes[:, 2:3] * pre[:, 2:3] + xi * r_scale


def _blowup(n2, window: float, step: int) -> IntegratorError:
    """The error for a squared norm n2 past the overshoot window."""
    return IntegratorError(
        f"Bloch norm {math.sqrt(n2):.12g} exceeds 1 + {window:.3g} at step {step}"
    )


def _propagate(q, xi, cfg: SimConfig, states, readouts=None) -> None:
    """Fused Euler-Maruyama steps for a batch, written into the output arrays.

    q: (3, m) initial states; xi: (n_steps, 2, m) standard-normal draws, row 0
    for the z channel and row 1 for the phi channel.  ``states``
    (n_steps + 1, 3, m) and ``readouts`` (n_steps, 2, m) may be strided views
    into the caller's arrays.  Norms in (1, 1 + window] are projected back onto
    the sphere; a larger one raises IntegratorError naming the step.

    A batch of one steps on Python floats, a wider one on rows of length m.
    Both run ``_step``, whose operations are elementwise and correctly rounded
    (IEEE add, multiply, divide and square root round the same way in Python
    and in numpy's loops), so each member rounds the same way at any batch
    width; BLAS kernels do not promise that.
    """
    dt = cfg.dt
    axes = np.array([ch.axis for ch in cfg.channels])
    tau = np.array([[ch.tau] for ch in cfg.channels])
    u_scale, r_scale = np.sqrt(dt / tau), np.sqrt(tau / dt)
    coef = _xz_entries(_step_matrix(cfg))
    window = max(NORM_TOL, _OVERSHOOT_FACTOR * dt * float(np.max(1.0 / tau)))
    limit = (1.0 + window) ** 2
    states[0] = q
    if q.shape[1] == 1:
        _propagate_one(q[:, 0].tolist(), _noise_terms(xi, axes, u_scale), coef,
                       limit, window, states[:, :, 0])
        if readouts is not None:
            readouts[:] = _readouts(states[:-1], xi, axes, r_scale)
        return
    coef = tuple(np.array(c) for c in coef)  # 0-d arrays: cheaper than floats against rows
    x, y, z = q
    for k0 in range(0, len(xi), _BLOCK):
        block = xi[k0:k0 + _BLOCK]
        wx, wz = _noise_terms(block, axes, u_scale)
        for j in range(len(block)):
            x, y, z, n2 = _step(x, y, z, wx[j], wz[j], *coef)
            worst = n2.max()
            # negated tests so that a NaN norm raises
            if not worst <= 1.0:
                if not worst <= limit:
                    raise _blowup(worst, window, k0 + j)
                norm = np.where(n2 > 1.0, np.sqrt(n2), 1.0)
                x, y, z = x / norm, y / norm, z / norm
            out = states[k0 + j + 1]
            out[0], out[1], out[2] = x, y, z
        if readouts is not None:
            readouts[k0:k0 + len(block)] = _readouts(
                states[k0:k0 + len(block)], block, axes, r_scale)


def _propagate_one(q, w, coef, limit: float, window: float, states) -> None:
    """``_propagate`` for one member on Python floats: q is [x, y, z], w the
    pair of (n_steps, 1) noise terms from ``_noise_terms``, ``states`` the
    (n_steps + 1, 3) path.

    Memoryviews hand the noise terms out and take the path in one float at a
    time: lists of all of them raised peak RSS by 0.25-0.4 MB at 4000 steps.
    """
    x, y, z = q
    m00, m02, m11, m20, m22 = coef
    path = np.empty((len(states) - 1, 3))
    out = memoryview(path.reshape(-1))
    i = 0
    for wx, wz in zip(memoryview(w[0].ravel()), memoryview(w[1].ravel())):
        x, y, z, n2 = _step(x, y, z, wx, wz, m00, m02, m11, m20, m22)
        # negated tests so that a NaN norm raises
        if not n2 <= 1.0:
            if not n2 <= limit:
                raise _blowup(n2, window, i // 3)
            norm = math.sqrt(n2)
            x, y, z = x / norm, y / norm, z / norm
        out[i] = x
        out[i + 1] = y
        out[i + 2] = z
        i += 3
    states[1:] = path


# ---------------------------------------------------------------------------
# trajectory and ensemble generation
# ---------------------------------------------------------------------------

def _philox(seed: int, word: int) -> np.random.Generator:
    """A generator under Philox key [seed, word], both in [0, 2**64).

    The key is built as uint64 words: numpy reads a list that mixes a word
    >= 2**63 with a smaller one as float64, which rounds distinct seeds onto
    one key (2**64 - 1 onto 0).
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], np.uint64)))


#: one Philox-backed Generator per thread, re-keyed for every stream
_local = threading.local()


def noise_stream(seed: int, stream_id: int, n_steps: int) -> np.ndarray:
    """Standard-normal draws for one trajectory, shape (n_steps, 2).

    Column 0 feeds the z channel, column 1 the phi channel.  The draws are
    those of ``_philox(seed, stream_id)``: the calling thread's generator is
    set to that key at counter 0 with an empty buffer.
    """
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed, stream_id], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal((n_steps, 2))


def simulate_trajectory(cfg: SimConfig, stream_id: int = 0):
    """One trajectory plus its readout record: ensemble member ``stream_id``."""
    ens = run_ensemble(cfg, 1, stream_offset=stream_id)
    return (
        Trajectory(times=ens.times, states=ens.states[0]),
        ReadoutRecord(times=ens.times[:-1], r_z=ens.r_z[0], r_phi=ens.r_phi[0]),
    )


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ensemble(cfg: SimConfig, count: int, keep_readouts: bool = True,
                 stream_offset: int = 0) -> Ensemble:
    """Trajectories for stream ids offset..offset+count-1, in stream-id order.

    Chunks of ``_CHUNK`` members run one after another.  Each chunk's noise is
    drawn on every usable CPU, one contiguous range of its stream columns per
    thread, and then stepped on the calling thread.  A stream's draws depend
    on its id alone, and each member rounds the same way in any chunk, so the
    output is bit-identical for any CPU count.  ``stream_offset`` lets callers
    build one large logical ensemble in slabs without reusing noise streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = cfg.n_steps
    base = stream_offset
    states = np.empty((n + 1, 3, count))
    readouts = np.empty((n, 2, count)) if keep_readouts else None
    q0 = cfg.initial_state.as_array()[:, None]

    def fill(xi, first, j0, j1, errors) -> None:
        try:
            for j in range(j0, j1):
                xi[:, :, j] = noise_stream(cfg.rng_seed, first + j, n)
        except Exception as exc:  # raised again on the calling thread
            errors.append(exc)

    cpus = _usable_cpus()
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        xi = np.empty((n, 2, hi - lo))
        # one contiguous range of columns per CPU; the calling thread fills
        # the first range, and a thread started for it each other one
        parts = min(cpus, hi - lo)
        cuts = [k * (hi - lo) // parts for k in range(parts + 1)]
        errors = []
        workers = [threading.Thread(target=fill, args=(xi, base + lo, j0, j1, errors))
                   for j0, j1 in zip(cuts[1:-1], cuts[2:])]
        for worker in workers:
            worker.start()
        fill(xi, base + lo, 0, cuts[1], errors)
        for worker in workers:
            worker.join()
        if errors:
            raise errors[0]
        out = None if readouts is None else readouts[:, :, lo:hi]
        try:
            _propagate(np.repeat(q0, hi - lo, axis=1), xi, cfg, states[:, :, lo:hi], out)
        except IntegratorError as exc:
            raise IntegratorError(
                f"{exc} (streams {base + lo}..{base + hi - 1})"
            ) from exc
    return Ensemble(
        times=cfg.times,
        states=states.transpose(2, 0, 1),
        config=cfg,
        stream_ids=np.arange(base, base + count),
        r_z=None if readouts is None else readouts[:, 0].T,
        r_phi=None if readouts is None else readouts[:, 1].T,
    )


def _sample_times(sample_times) -> np.ndarray:
    t = np.asarray(sample_times, dtype=float)
    if t.ndim != 1 or len(t) == 0 or np.any(np.diff(t) <= 0) or t[0] < 0:
        raise ValueError("sample_times must be strictly increasing and >= 0")
    return t


def polar_ensemble(
    theta_in: float,
    tau_m: float,
    sample_times: np.ndarray,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """Exact polar-angle diffusion sampled on ``sample_times``.

    The ideal equal-strength XZ dynamics is pure Brownian motion of theta with
    variance t/tau_m, so increments between sample times are drawn exactly;
    no fine stepping is needed.  A sample time 0 draws nothing and holds
    theta_in.  Returns angles of shape (count, n_times).  Draws come from
    ``Philox(key=[seed, 0])``.
    """
    t = _sample_times(sample_times)
    gen = _philox(seed, 0)
    thetas = np.empty((count, len(t)))
    prev = np.full(count, float(theta_in))
    t_prev = 0.0
    for j, tj in enumerate(t):
        if tj > t_prev:
            prev = prev + math.sqrt((tj - t_prev) / tau_m) * gen.standard_normal(count)
        thetas[:, j] = prev
        t_prev = tj
    return thetas


def polar_bridge(
    theta_in: float,
    tau_m: float,
    sample_times: np.ndarray,
    theta_end: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Exact Brownian bridges of the polar angle on ``sample_times``.

    Row i starts at theta_in at t = 0 and ends at the unwrapped angle
    ``theta_end[i]`` at T = ``sample_times[-1]``, so windings are kept.  Times
    are filled in order from the exact conditional law

        theta_j | theta_{j-1}, theta_T ~ N(theta_{j-1} + f (theta_T - theta_{j-1}),
                                           f (T - t_j) / tau_m),
        f = (t_j - t_{j-1}) / (T - t_{j-1}),

    which is free diffusion of variance t/tau_m conditioned on its end point.
    A sample time 0 holds theta_in; the last column is ``theta_end`` itself.
    Returns angles of shape (len(theta_end), n_times).  Draws come from
    ``Philox(key=[seed, 1])``, independent of key [seed, 0], under which
    ``polar_ensemble`` and ``estimator.select_polar`` draw final angles, so a
    final angle and its bridge never share draws.
    """
    t = _sample_times(sample_times)
    end = np.asarray(theta_end, dtype=float)
    gen = _philox(seed, 1)
    thetas = np.empty((len(end), len(t)))
    prev = np.full(len(end), float(theta_in))
    t_prev, t_end = 0.0, t[-1]
    for j, tj in enumerate(t[:-1]):
        if tj > t_prev:
            f = (tj - t_prev) / (t_end - t_prev)
            sd = math.sqrt(f * (t_end - tj) / tau_m)
            prev = prev + f * (end - prev) + sd * gen.standard_normal(len(end))
        thetas[:, j] = prev
        t_prev = tj
    thetas[:, -1] = end
    return thetas


def polar_states(thetas: np.ndarray) -> np.ndarray:
    """Bloch states (..., 3) for an array of polar angles."""
    out = np.empty(thetas.shape + (3,))
    out[..., 0] = np.sin(thetas)
    out[..., 1] = 0.0
    out[..., 2] = np.cos(thetas)
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_ensemble(path, ens: Ensemble) -> None:
    """Write an ensemble to an .npz container; round-trips bit-exactly."""
    payload = {
        "times": ens.times,
        "states": ens.states,
        "stream_ids": ens.stream_ids,
        "config_json": np.frombuffer(
            json.dumps(ens.config.to_dict(), sort_keys=True).encode(), np.uint8
        ),
    }
    if ens.r_z is not None:
        payload["r_z"] = ens.r_z
        payload["r_phi"] = ens.r_phi
    buf = io.BytesIO()
    np.savez_compressed(buf, **payload)
    with open_rewrite(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_ensemble(path) -> Ensemble:
    with np.load(path) as data:
        cfg = SimConfig.from_dict(json.loads(bytes(data["config_json"]).decode()))
        return Ensemble(
            times=data["times"],
            states=data["states"],
            config=cfg,
            stream_ids=data["stream_ids"],
            r_z=data["r_z"] if "r_z" in data else None,
            r_phi=data["r_phi"] if "r_phi" in data else None,
        )
