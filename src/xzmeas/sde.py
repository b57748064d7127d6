"""Ito integration of the stochastic master equation and ensemble generation.

One fused Euler-Maruyama kernel advances a batch of m Bloch vectors held as
a structure of arrays: contiguous rows x, y, z of length m.  A channel with
axis n_c = (sin phi_c, 0, cos phi_c) and measurement time tau_c contributes a
linear drift and the diffusion vector (n_c - (n_c.q) q)/sqrt(tau_c), so with
A the whole linear drift (both channels' dephasing, residual Rabi rotation
and depolarization) a step is

    q' = M q + sqrt(dt) (w - (w.q) q),  M = I + A dt,  w = sum_c n_c xi_c / sqrt(tau_c),

and the readouts n_c.q + sqrt(tau_c/dt) xi_c share the draws xi_c.  Any angle
between the two measured axes is handled.  A single trajectory is a batch
of one; the kernel steps a batch of one on Python floats, where a numpy call
per step on one element would cost more than the arithmetic, and with the
same step function and rounding as a wide batch, so its path equals the one
a wide batch gives the same draws, bit for bit.  The polar samplers are an
opt-in fast path for the ideal equal-strength XZ case, where the dynamics is
exact free diffusion of the polar angle and therefore can be sampled with no
discretization error: ``polar_ensemble`` forward in time, ``polar_bridge``
between a given start and end angle.  A post-selection
(``estimator.select_polar``) draws the kept members' final angles straight
from the Gaussian law of the final angle and fills in their paths alone.

Random numbers: draws come from counter-based Philox generators (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  An ensemble
draws its noise in blocks of 64 stream ids: member s takes column s % 64 of
block s // 64, whose draws are the C-order sequence of an (n_steps, 2, 64)
standard-normal array from the Philox keyed (seed, s // 64) with its counter
started at 2**192.  A block that an ensemble covers only in part is drawn at
full width and trimmed, so member s is the same whatever the member count,
offset, chunking or CPU count.  The blocks are drawn one time slice at a time
by one worker thread, which draws the next slice while the caller steps this
one.  A single trajectory (``simulate_trajectory``) draws its own stream,
keyed (seed, stream_id) with the counter started at 0, so that it costs no
64-wide block; no block counter comes within 2**192 of it, and a trajectory is
not a member of any ensemble.

Storage: an ensemble is held as the kernel writes it, (time, coordinate,
member) blocks whose rows are contiguous across members; its (member, ...)
arrays are transposed views of those blocks.
"""
from __future__ import annotations

import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
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

#: stream ids per noise block, the unit in which an ensemble's noise is keyed
#: and drawn
_BLOCK_IDS = 64

#: steps of every block's draws held at a time; a chunk keeps two such slices,
#: and the step kernel's scratch is one slice wide.  64-step slices were no
#: faster, and raised the peak RSS of the benchmark's ensemble-and-replay
#: workload by about 1.7 MB in most runs
_SLICE = 32

#: ensemble members per chunk, a multiple of _BLOCK_IDS; bounds the two noise
#: slices to 5.2 MB and the step kernel's rows to 41 kB each
_CHUNK = 5120


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


def _scaled(xi, scale, lanes) -> np.ndarray:
    """scale (2, 1) times draws xi, as a C-ordered (steps, 2, m) array.

    xi is (steps, 2, ...) with any strides; its trailing axes are read in C
    order as one member axis, which is cut to the slice ``lanes``.
    """
    u = np.multiply(xi, scale.reshape(2, *(1,) * (xi.ndim - 2)), order="C")
    return u.reshape(len(xi), 2, -1)[:, :, lanes]


def _noise_terms(xi, axes, u_scale, lanes) -> tuple:
    """x and z of sqrt(dt) w for draws xi (see ``_scaled``); its y is 0."""
    u = _scaled(xi, u_scale, lanes)  # sqrt(dt) xi_c / sqrt(tau_c)
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


def _readouts(pre, xi, axes, r_scale, lanes):
    """n_c . q at the start of each step, plus that step's own draws."""
    return axes[:, 0:1] * pre[:, 0:1] + axes[:, 2:3] * pre[:, 2:3] + _scaled(xi, r_scale, lanes)


def _blowup(n2, window: float, step: int) -> IntegratorError:
    """The error for a squared norm n2 past the overshoot window."""
    return IntegratorError(
        f"Bloch norm {math.sqrt(n2):.12g} exceeds 1 + {window:.3g} at step {step}"
    )


def _propagate(q, xi, cfg: SimConfig, states, readouts=None, first: int = 0,
               lanes: slice = slice(None)) -> None:
    """Fused Euler-Maruyama steps for a batch, written into the output arrays.

    q: (3, m) initial states; xi: (n_steps, 2, m) standard-normal draws, row 0
    for the z channel and row 1 for the phi channel.  xi may also be
    (n_steps, 2, ...) with any strides, its trailing axes read in C order as
    the member axis and cut to ``lanes``, so that a noise slice is read
    straight from its (block, step, channel, column) buffer.  ``states``
    (n_steps + 1, 3, m) and ``readouts`` (n_steps, 2, m) may be strided views
    into the caller's arrays.  Norms in (1, 1 + window] are projected back onto
    the sphere; a larger one raises IntegratorError naming the step, counted
    from ``first``, the absolute index of xi's first step.  The noise terms
    and readouts of all of xi are computed in one pass each, so the scratch is
    a few arrays of xi's size; ``run_ensemble`` hands over one slice at a time.

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
    wx, wz = _noise_terms(xi, axes, u_scale, lanes)
    if q.shape[1] == 1:
        _propagate_one(q[:, 0].tolist(), (wx, wz), coef, limit, window, states[:, :, 0], first)
    else:
        coef = tuple(np.array(c) for c in coef)  # 0-d arrays: cheaper than floats against rows
        x, y, z = q
        for j in range(len(xi)):
            x, y, z, n2 = _step(x, y, z, wx[j], wz[j], *coef)
            worst = n2.max()
            # negated tests so that a NaN norm raises
            if not worst <= 1.0:
                if not worst <= limit:
                    raise _blowup(worst, window, first + j)
                norm = np.where(n2 > 1.0, np.sqrt(n2), 1.0)
                x, y, z = x / norm, y / norm, z / norm
            out = states[j + 1]
            out[0], out[1], out[2] = x, y, z
    if readouts is not None:
        readouts[:] = _readouts(states[:-1], xi, axes, r_scale, lanes)


def _propagate_one(q, w, coef, limit: float, window: float, states, first: int) -> None:
    """``_propagate`` for one member on Python floats: q is [x, y, z], w the
    pair of (n_steps, 1) noise terms from ``_noise_terms``, ``states`` the
    (n_steps + 1, 3) path, ``first`` the absolute index of its first step.

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
                raise _blowup(n2, window, first + i // 3)
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

def _philox(seed: int, word: int, counter: int = 0) -> np.random.Generator:
    """A generator under Philox key [seed, word], both in [0, 2**64), with its
    counter started at ``counter``.

    The key is built as uint64 words: numpy reads a list that mixes a word
    >= 2**63 with a smaller one as float64, which rounds distinct seeds onto
    one key (2**64 - 1 onto 0).
    """
    key = np.array([seed, word], np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def noise_stream(seed: int, stream_id: int, n_steps: int) -> np.ndarray:
    """Standard-normal draws for one trajectory, shape (n_steps, 2).

    Column 0 feeds the z channel, column 1 the phi channel.  The draws are
    those of ``_philox(seed, stream_id)`` from counter 0.  Ensembles draw from
    ``_block_generator`` instead, whose counters start at 2**192.
    """
    return _philox(seed, stream_id).standard_normal((n_steps, 2))


def _block_generator(seed: int, block: int) -> np.random.Generator:
    """The generator of noise block ``block``: Philox key [seed, block], its
    counter's top word set to 1.  A ``noise_stream`` counter starts at 0 and
    steps by one per four draws, so it never reaches this domain."""
    return _philox(seed, block, 1 << 192)


def _draw(gens: list, out: np.ndarray) -> None:
    """The next steps of each block's draws: ``out[i]`` (steps, 2, _BLOCK_IDS)
    from ``gens[i]``, in C order."""
    for gen, block in zip(gens, out):
        gen.standard_normal(out=block)


def simulate_trajectory(cfg: SimConfig, stream_id: int = 0):
    """One trajectory plus its readout record, driven by
    ``noise_stream(cfg.rng_seed, stream_id)``.

    It steps on Python floats with the ensemble kernel, but it is no ensemble
    member: ensemble members draw from 64-wide noise blocks, which would cost
    a long single record 64 streams' draws.  ``run_ensemble(cfg, 1,
    stream_offset=stream_id)`` gives member ``stream_id``.
    """
    n = cfg.n_steps
    states = np.empty((n + 1, 3, 1))
    readouts = np.empty((n, 2, 1))
    xi = noise_stream(cfg.rng_seed, stream_id, n)[:, :, None]
    _propagate(cfg.initial_state.as_array()[:, None], xi, cfg, states, readouts)
    times = cfg.times
    return (
        Trajectory(times=times, states=states[:, :, 0]),
        ReadoutRecord(times=times[:-1], r_z=readouts[:, 0, 0], r_phi=readouts[:, 1, 0]),
    )


def run_ensemble(cfg: SimConfig, count: int, keep_readouts: bool = True,
                 stream_offset: int = 0) -> Ensemble:
    """Trajectories for stream ids offset..offset+count-1, in stream-id order.

    Member s is column s % 64 of noise block s // 64 (see the module
    docstring), so it is the same in any ensemble that holds it: at any
    ``count``, ``stream_offset``, chunking or CPU count, bit for bit.
    ``stream_offset`` lets callers build one large logical ensemble in slabs.

    Chunks of up to ``_CHUNK`` members, cut at multiples of ``_CHUNK``, run one
    after another, and each steps through its noise one ``_SLICE`` of time at a
    time.  One worker thread, started for the whole call, draws the next slice
    while the calling thread steps this one; the draws do not depend on which
    thread makes them.  An error in a draw is raised on the calling thread.  An
    IntegratorError names the step and the chunk's stream range.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if stream_offset < 0 or stream_offset + count > 2**64:
        raise OverflowError(f"stream ids {stream_offset}..{stream_offset + count - 1}"
                            " leave [0, 2**64)")
    n = cfg.n_steps
    base = stream_offset
    states = np.empty((n + 1, 3, count))
    readouts = np.empty((n, 2, count)) if keep_readouts else None
    states[0] = cfg.initial_state.as_array()[:, None]
    edges = [base, *range((base // _CHUNK + 1) * _CHUNK, base + count, _CHUNK), base + count]
    with ThreadPoolExecutor(max_workers=1) as worker:
        for lo, hi in zip(edges, edges[1:]):
            members = slice(lo - base, hi - base)
            first_block = lo // _BLOCK_IDS
            gens = [_block_generator(cfg.rng_seed, b)
                    for b in range(first_block, -(-hi // _BLOCK_IDS))]
            lanes = slice(lo - first_block * _BLOCK_IDS, hi - first_block * _BLOCK_IDS)
            try:
                _run_chunk(cfg, gens, lanes, worker, states[:, :, members],
                           None if readouts is None else readouts[:, :, members])
            except IntegratorError as exc:
                raise IntegratorError(f"{exc} (streams {lo}..{hi - 1})") from exc
    return Ensemble(
        times=cfg.times,
        states=states.transpose(2, 0, 1),
        config=cfg,
        # np.arange makes float64 of ids past 2**63
        stream_ids=np.arange(base, base + count, dtype=np.uint64 if base + count > 2**63 else None),
        r_z=None if readouts is None else readouts[:, 0].T,
        r_phi=None if readouts is None else readouts[:, 1].T,
    )


def _run_chunk(cfg: SimConfig, gens: list, lanes: slice, worker, states, readouts) -> None:
    """Step one chunk from its initial states ``states[0]``: ``gens`` are its
    blocks' generators, ``lanes`` its members' columns among the blocks'
    columns, ``states``/``readouts`` its (time, coordinate, member) views.

    Draws sit in (block, step, channel, column) slices, so each block fills a
    contiguous part; the kernel reads them transposed.  The executor
    ``worker`` draws slice k + 1 into one of two buffers while this thread
    steps slice k from the other.  Slice k + 1 is submitted only after slice
    k - 1, whose buffer it takes, was stepped, and is waited for before it is
    stepped itself.
    """
    n = len(states) - 1
    cuts = [(k0, min(k0 + _SLICE, n)) for k0 in range(0, n, _SLICE)]
    bufs = [np.empty((len(gens), min(_SLICE, n), 2, _BLOCK_IDS)) for _ in range(2)]

    def noise(k):
        """Slice k's buffer, a (block, step, channel, column) view."""
        k0, k1 = cuts[k]
        return bufs[k % 2][:, :k1 - k0]

    def draw(k):
        """Slice k's draws, submitted to the worker; None past the last slice."""
        return worker.submit(_draw, gens, noise(k)) if k < len(cuts) else None

    drawn = draw(0)
    for k, (k0, k1) in enumerate(cuts):
        drawn.result()
        drawn = draw(k + 1)
        _propagate(states[k0], noise(k).transpose(1, 2, 0, 3), cfg, states[k0:k1 + 1],
                   None if readouts is None else readouts[k0:k1], k0, lanes)


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
