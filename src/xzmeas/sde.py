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
by a worker thread and the calling thread, whichever is free: the worker
starts on the next slice while the caller steps this one, and the caller then
draws the blocks the worker has not reached.  A single trajectory
(``simulate_trajectory``) draws its own stream, keyed (seed, stream_id) with
the counter started at 0, so that it costs no 64-wide block; no block counter
comes within 2**192 of it, and a trajectory is not a member of any ensemble.

Storage: an ensemble is held as the kernel writes it, (time, coordinate,
member) blocks whose rows are contiguous across members; its (member, ...)
arrays are transposed views of those blocks.
"""
from __future__ import annotations

import functools
import io
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import NORM_TOL, DomainError, SimConfig, open_rewrite, require_memory


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

#: steps of every block's draws held at a time; a chunk keeps two such
#: slices.  Against 32 steps, 64 halve the worker's draw calls and their GIL
#: handoffs; 128 were slower, as the first slice is drawn before any step
_SLICE = 64

#: ensemble members per chunk, a multiple of _BLOCK_IDS; bounds the two noise
#: slices to 10.5 MB and the step kernel's rows to 41 kB each.  A 20k x 500
#: simulate campaign peaks at 275 MB of RSS, 4.6 MB over 32-step slices;
#: 2560 members would save that, but ran 20k x 500 14 % slower
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


def _noise_terms(xi, cols, u_scale, out) -> None:
    """x and z of sqrt(dt) w into out[0] for draws xi (2, ...), row 0 of the
    z channel and row 1 of the phi channel; its y is 0.  ``cols[c]`` is the
    (x, z) of channel c's axis as (2, 1); out[1] and out[2] are scratch."""
    w, u, t = out
    np.multiply(xi, u_scale, out=u)  # sqrt(dt) xi_c / sqrt(tau_c)
    np.multiply(cols[0], u[0], out=w)
    np.multiply(cols[1], u[1], out=t)
    w += t


def _step(x, y, z, wx, wz, m00, m02, m11, m20, m22) -> tuple:
    """q' = (M - (w.q) I) q + sqrt(dt) w and its squared norm, on Python
    floats or on rows of a batch alike.  x', y' and z' are built up from M's
    diagonal by augmented assignments, so rows passed as m00, m11 and m22,
    holding those entries, are stepped in place."""
    wq = wx * x
    wq += wz * z
    m00 -= wq
    m00 *= x
    m00 += m02 * z
    m00 += wx
    m11 -= wq
    m11 *= y
    m22 -= wq
    m22 *= z
    m22 += m20 * x
    m22 += wz
    n2 = m00 * m00
    n2 += m11 * m11
    n2 += m22 * m22
    return m00, m11, m22, n2


def _readouts(x, z, xi, rows, r_scale, out, tmp) -> None:
    """n_c . q at the start of a step, from its x and z, plus that step's own
    draws xi (as in ``_noise_terms``), into out[c]; ``rows`` are the axes' x
    and z as (2, 1) each, ``tmp`` scratch of out's shape."""
    np.multiply(rows[0], x, out=out)
    np.multiply(rows[1], z, out=tmp)
    out += tmp
    np.multiply(xi, r_scale, out=tmp)
    out += tmp


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
    from ``first``, the absolute index of xi's first step.

    A batch of one steps on Python floats, a wider one on rows of length m,
    in place: each step's draws are copied out of xi, and its noise terms,
    readouts and states are written into preallocated rows.  Both run
    ``_step``, whose operations are elementwise and correctly rounded (IEEE
    add, multiply, divide and square root round the same way in Python and in
    numpy's loops), so each member rounds the same way at any batch width;
    BLAS kernels do not promise that.
    """
    dt = cfg.dt
    axes = np.array([ch.axis for ch in cfg.channels])[:, ::2]  # (x, z) of each axis
    cols, rows = axes[:, :, None], (axes[:, 0:1], axes[:, 1:2])
    tau = np.array([[ch.tau] for ch in cfg.channels])
    u_scale, r_scale = np.sqrt(dt / tau), np.sqrt(tau / dt)
    coef = _step_matrix(cfg)[(0, 0, 1, 2, 2), (0, 2, 1, 0, 2)].tolist()  # m00, m02, m11, m20, m22
    window = max(NORM_TOL, _OVERSHOOT_FACTOR * dt * float(np.max(1.0 / tau)))
    limit = (1.0 + window) ** 2
    states[0] = q
    if q.shape[1] == 1:
        # noise terms and readouts of all steps at once.  Memoryviews hand the
        # noise terms out and take the path in one float at a time: lists of
        # all of them raised peak RSS by 0.25-0.4 MB at 4000 steps
        d = xi.reshape(len(xi), 2, -1)[:, :, lanes][:, :, 0].T  # (2, n_steps)
        w = np.empty((3, *d.shape))
        _noise_terms(d, cols, u_scale, w)
        (x, y, z), (m00, m02, m11, m20, m22) = q[:, 0].tolist(), coef
        path = np.empty((3, len(xi)))
        out_x, out_y, out_z = map(memoryview, path)
        for j, wx, wz in zip(range(len(xi)), memoryview(w[0, 0]), memoryview(w[0, 1])):
            x, y, z, n2 = _step(x, y, z, wx, wz, m00, m02, m11, m20, m22)
            # negated tests so that a NaN norm raises
            if not n2 <= 1.0:
                if not n2 <= limit:
                    raise _blowup(n2, window, first + j)
                norm = math.sqrt(n2)
                x, y, z = x / norm, y / norm, z / norm
            out_x[j] = x
            out_y[j] = y
            out_z[j] = z
        states[1:, :, 0] = path.T
        if readouts is not None:
            _readouts(states[:-1, 0, 0], states[:-1, 2, 0], d, rows, r_scale,
                      readouts[:, :, 0].T, w[1])
        return
    draws = np.empty(xi.shape[1:])
    d = draws.reshape(2, -1)[:, lanes]  # one step's draws, contiguous and cut
    w = np.empty((3, *d.shape))
    wx, wz = w[0]
    diag = np.array(coef[0::2])[:, None]
    m02, m20 = np.array(coef[1]), np.array(coef[3])  # 0-d arrays: cheaper than floats against rows
    x, y, z = states[0]
    for j in range(len(xi)):
        np.copyto(draws, xi[j])
        _noise_terms(d, cols, u_scale, w)
        if readouts is not None:
            _readouts(x, z, d, rows, r_scale, readouts[j], w[2])
        post = states[j + 1]
        post[...] = diag  # _step builds the new state up from M's diagonal, in place
        x, y, z, n2 = _step(x, y, z, wx, wz, post[0], m02, post[1], m20, post[2])
        worst = n2.max()
        if not worst <= 1.0:
            if not worst <= limit:
                raise _blowup(worst, window, first + j)
            post /= np.where(n2 > 1.0, np.sqrt(n2), 1.0)


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

    Members are stepped in chunks of up to ``_CHUNK``, cut at multiples of
    ``_CHUNK``, one ``_SLICE`` of time at a time.  Every slice of every chunk,
    in chunk order and then time order, goes through one ``_look_ahead``
    pipeline: its worker thread draws the next slice, the next chunk's first
    included, while this thread steps the current one and then draws the
    blocks the worker has not reached.  Draws sit in two (block, step,
    channel, column) buffers sized for the widest chunk, each block in a
    contiguous part, which the kernel reads transposed.  Each block is drawn
    once, by one thread, from its own generator.  An error in a draw on either
    thread is raised here once the worker has ended; an IntegratorError names
    the step and the chunk's stream range.  States and readouts that would
    exceed physical memory raise DomainError before anything is allocated.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if stream_offset < 0 or stream_offset + count > 2**64:
        raise OverflowError(f"stream ids {stream_offset}..{stream_offset + count - 1}"
                            " leave [0, 2**64)")
    n = cfg.n_steps
    require_memory(8.0 * count * (3.0 * (n + 1) + (2.0 * n if keep_readouts else 0.0)),
                   f"count {count} x {n:.6g} steps")
    base = stream_offset
    states = np.empty((n + 1, 3, count))
    readouts = np.empty((n, 2, count)) if keep_readouts else None
    states[0] = cfg.initial_state.as_array()[:, None]
    edges = [base, *range((base // _CHUNK + 1) * _CHUNK, base + count, _CHUNK), base + count]
    width = max(-(-hi // _BLOCK_IDS) - lo // _BLOCK_IDS for lo, hi in zip(edges, edges[1:]))
    bufs = [np.empty((width, min(_SLICE, n), 2, _BLOCK_IDS)) for _ in range(2)]
    # per slice of each chunk: the chunk's stream ids lo..hi-1, its blocks'
    # generators and its columns among theirs, the slice's steps and buffer
    items = []
    for lo, hi in zip(edges, edges[1:]):
        first_block = lo // _BLOCK_IDS
        gens = [_block_generator(cfg.rng_seed, b) for b in range(first_block, -(-hi // _BLOCK_IDS))]
        lanes = slice(lo - first_block * _BLOCK_IDS, hi - first_block * _BLOCK_IDS)
        for k0 in range(0, n, _SLICE):
            k1 = min(k0 + _SLICE, n)
            items.append((lo, hi, gens, lanes, k0, k1, bufs[len(items) % 2][:len(gens), :k1 - k0]))

    def step(i):
        lo, hi, _, lanes, k0, k1, noise = items[i]
        path = states[k0:k1 + 1, :, lo - base:hi - base]
        try:
            _propagate(path[0], noise.transpose(1, 2, 0, 3), cfg, path,
                       None if readouts is None else readouts[k0:k1, :, lo - base:hi - base],
                       k0, lanes)
        except IntegratorError as exc:
            raise IntegratorError(f"{exc} (streams {lo}..{hi - 1})") from exc

    # a slice's pieces: one draw per block
    _look_ahead([(functools.partial(_draw, [g], out) for g, out in zip(gens, noise[:, None]))
                 for _, _, gens, _, _, _, noise in items], step, threaded=True)
    return Ensemble(
        times=cfg.times,
        states=states.transpose(2, 0, 1),
        config=cfg,
        # np.arange makes float64 of ids past 2**63
        stream_ids=np.arange(base, base + count, dtype=np.uint64 if base + count > 2**63 else None),
        r_z=None if readouts is None else readouts[:, 0].T,
        r_phi=None if readouts is None else readouts[:, 1].T,
    )


def _look_ahead(items: list, run, threaded: bool, share: bool = True) -> None:
    """Call ``run(k)`` on this thread for each k of ``items`` once item k's
    pieces, callables with no arguments, are done, while item k + 1's are.

    An item's pieces go out one at a time from one shared iterator.  Where
    ``threaded``, one worker thread, started here and joined before this
    returns or raises, starts taking them as ``run`` of the item before
    starts, and this thread takes the pieces still left once that returns
    (without a worker, all of them; with one, only where ``share``), then
    waits for the worker's last one.  The worker ignores floating-point
    errors; numpy's error state is per thread, so this thread's stays as it
    is.  A piece's error is raised once the worker is done with its item.
    """
    lock = threading.Lock()

    def take(pieces) -> None:
        while True:
            with lock:
                piece = next(pieces, None)
            if piece is None:
                return
            piece()

    def start(k):
        pieces = iter(items[k])
        return pieces, worker and worker.submit(np.errstate(all="ignore")(take), pieces)

    worker = None
    if threaded:
        from concurrent.futures import ThreadPoolExecutor  # here, as it imports logging
        worker = ThreadPoolExecutor(max_workers=1)
    try:
        pending = start(0) if items else None
        for k in range(len(items)):
            pieces, busy = pending
            try:
                if share or not busy:
                    take(pieces)
            finally:
                if busy:
                    busy.result()
            if k + 1 < len(items):
                pending = start(k + 1)
            run(k)
    finally:
        if worker:
            worker.shutdown()


def _sample_times(sample_times) -> np.ndarray:
    t = np.asarray(sample_times, dtype=float)
    if t.ndim != 1 or len(t) == 0 or not (t[0] >= 0 and np.all(np.diff(t) > 0)):  # NaN fails
        raise DomainError(f"sample_times must be strictly increasing and >= 0, got {t}")
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
