"""Discrete-time quantum Bayesian state update from readout records.

Replicates the experimental reconstruction pipeline: per step, the Gaussian
Bayesian update for the z channel, the same update for the phi channel,
then the exact environmental map (residual Rabi rotation composed with
uniform depolarization in the xz plane).  Each is a linear completely
positive map on homogeneous coordinates (w, x, y, z) of the Bloch vector
q = (x, y, z)/w (Rouchon & Ralph, PRA 91, 012118 (2015)).  For an axis
n = (sin phi, 0, cos phi), a readout r and a = r dt/tau, write
q = m n + q_perp; scaled by sech a, the measurement map is

    w' = w + tanh(a) m,   m' = m + tanh(a) w,   q_perp' = E sech(a) q_perp,

where E = exp[-(Gamma - 1/(2 tau)) dt] is the extra damping of the
components transverse to the axis, 1 for ideal measurements.  Normalised,
this is q' = [E (q - m n) + n (m cosh a + sinh a)]/(cosh a + m sinh a).  The
one formula serves any axis angle: the kernel holds (w, m, t, y), with t the
transverse xz component, in the first channel's frame, and a fixed 2x2 turn
takes (m, t) on to the next channel's frame, the last one through the
environment map.

Every coefficient lies in [-1, 1], so a huge readout gives the axis
eigenstate instead of overflowing.  The maps are completely positive, so
|q| <= 1 holds by construction and nothing is projected: a vectorised check
on each normalised block of steps raises ``ReconstructionError`` at rounding
beyond ``POSITIVITY_TOL``, at a NaN, or where the readouts saturate the
update (w' <= 0), naming the first such step.  Past |a| ~ 19 tanh a rounds
to +-1 and the state to the axis eigenstate; a second saturated readout
against it then leaves w' = 0.  The exact posterior there is a state, but
one closer to the eigenstate than a float can hold.

A record is thus a product of 4x4 maps, and one kernel replays a batch of m
records as lanes.  A narrow batch (m well below n steps) is scanned over
time: the n steps are cut into c = isqrt(n // m) chunks, the maps of each
chunk are applied to the four unit columns to give its product, the products
are chained at width m to give each chunk's start state, and then every
chunk runs at once on c m lanes.  Any other batch is one chunk, the plain
recursion.  A single record is a batch of one.  While the calling thread
scans span k, renormalising every 16 steps, a stage normalises span k - 1
and computes span k + 1's coefficients: over 32 steps on a worker thread for
a plain recursion, else over 16 after the scan, as a chunked scan's short
rows would pass the GIL at each call.

A readout file holds a ``#`` line of parameters, the column names and a row
``t,r_z,r_x`` per step.  A file laid out as ``write_readout_records`` writes
it is parsed in one ``np.loadtxt`` call; any other text, a file with an error
included, is read again by a line loop, which accepts and refuses the same
texts and names the line of each error.
"""
from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from .core import (BlochState, ChannelConfig, DomainError, QubitEnvironment, SimConfig,
                   column_rows, write_table)
from .sde import ReadoutRecord, Trajectory, _look_ahead

#: positivity slack before a reconstruction error is raised
POSITIVITY_TOL = 1e-10

#: replay steps scanned from one rescaled start, and a chunked scan's span:
#: the steps whose maps are built and normalised in one vectorized pass
_BLOCK = 16

#: a plain recursion's span, two blocks, which halves its worker's calls;
#: bounds the stages' buffers and scratch to 10 x _SPAN x lanes
_SPAN = 2 * _BLOCK


class ReconstructionError(RuntimeError):
    """A Bayesian update gave no state: positivity violated beyond tolerance,
    a NaN, or readouts that saturate the update."""


def _coefficients(coef: np.ndarray, records: list, cfg: SimConfig, k0: int, a: np.ndarray):
    """Write the coefficients of steps k0..k0+b of readouts per channel into
    ``coef`` (4, b, ...): channel c's E sech a at [c] and its tanh a at
    [2 + c], with a = r dt / tau computed in scratch ``a`` (2, b, ...).

    E = exp[-(Gamma - 1/(2 tau)) dt] is the extra damping of the components
    transverse to the axis.  Population reweighting by
    exp[-(r -+ 1)^2 dt / 2 tau] along the axis reduces to these; the
    (4 pi tau / dt)^(-1/2) operator prefactor and the cosh a scale cancel.
    Past |a| ~ 710 cosh overflows to inf (callers ignore it) and E sech a is 0.
    """
    for c, (r, ch) in enumerate(zip(records, cfg.channels)):
        np.multiply(r[k0:k0 + coef.shape[1]], cfg.dt / ch.tau, out=a[c])
    np.tanh(a, out=coef[2:])
    np.cosh(a, out=a)
    for c, ch in enumerate(cfg.channels):
        np.divide(math.exp(-(ch.gamma - 1.0 / (2 * ch.tau)) * cfg.dt), a[c], out=coef[c])


def _frame(channel: ChannelConfig) -> np.ndarray:
    """T taking (x, z) to (m, t), the components along the channel's axis and
    across it in the xz plane; T is its own inverse."""
    s, _, c = channel.axis
    return np.array([[s, c], [c, -s]])


def _scan(q, coef: np.ndarray, turns: list, rows: np.ndarray) -> np.ndarray:
    """Apply steps to unnormalised states q = (w, m, t, y) and return the last.

    A step applies each channel's map in turn, its tanh a and E sech a
    read from ``coef`` (4, b, ...).  In the frame of its own axis it is

        w' = w + tanh(a) m,   m' = m + tanh(a) w,   (t, y)' = E sech(a) (t, y),

    and the channel's 2x2 turn then takes (m, t) to the frame of the next
    map.  ``rows[j]`` (4, *lanes), which may be ``coef[:, j]``, receives the
    state after step j.  Each map steps row pairs: (w, m) in one multiply-add
    against the rows swapped, (t, y) in one multiply, and the turn as its
    columns times m and t.
    """
    # each turn as its two columns, to broadcast against a (2, *lanes) pair
    shape = (2, 2, *(1,) * (q.ndim - 1))
    maps = [(coef[2 + c], coef[c], *turn.T.reshape(shape)) for c, turn in enumerate(turns)]
    scratch = np.empty_like(rows[0])
    last = len(maps) - 1
    for j, row in enumerate(rows):
        for k, (th, f, c0, c1) in enumerate(maps):
            # the last map writes straight into the step's row, reading tanh a
            # (row 3) before (t, y) and E sech a (row 1) before (w, m) are set
            out = row if k == last else scratch
            wm = th[j] * q[1::-1]
            np.multiply(f[j], q[2:], out=out[2:])
            np.add(q[:2], wm, out=out[:2])
            np.add(c0 * out[1], c1 * out[2], out=out[1:3])
            q = out
    return rows[-1]


def _normalise(rows: np.ndarray, frame: np.ndarray, out: np.ndarray, steps, tmp: np.ndarray):
    """Write the Bloch vectors (x, y, z) of unnormalised states ``rows``
    (4, b, ...), held as (w, m, t, y) in ``frame``, into ``out`` (b, 3, ...);
    ``rows`` and ``tmp`` (2, b, ...) are scratch, so nothing is allocated.

    Returns None, or, writing nothing, (step, reason) for the earliest of
    ``steps`` (broadcast to (b, ...)) whose w is not in (0, inf) or whose
    |q|^2 - 1 exceeds POSITIVITY_TOL or is NaN.
    """
    w, unit, n2 = rows[0], rows[1:], tmp[0]
    unit /= w
    np.einsum("i...,i...->...", unit, unit, out=n2)
    # negated tests so that a NaN fails, first as reductions
    if not w.size or w.min() > 0 and w.max() < np.inf and n2.max() <= 1.0 + POSITIVITY_TOL:
        # (x, z) = T (m, t): T's columns times m, plus times t put where w, m were
        cols = frame.T.reshape(2, 2, *(1,) * w.ndim)
        np.multiply(cols[0], unit[0], out=tmp)
        np.add(tmp, np.multiply(cols[1], unit[1], out=rows[:2]), out=out[:, ::2].swapaxes(0, 1))
        out[:, 1] = unit[2]
        return None
    bad = ~((w > 0) & (w < np.inf) & (n2 <= 1.0 + POSITIVITY_TOL))
    steps = np.broadcast_to(steps, bad.shape)
    at = np.unravel_index(np.argmin(np.where(bad, steps, np.iinfo(steps.dtype).max)), bad.shape)
    step = int(steps[at])
    if not 0 < w[at] < np.inf:
        why = f"state not normalisable (w = {float(w[at]):.3g}) at step {step}"
        if w[at] <= 0:
            why += ": readouts with |r dt / tau| past about 19 saturate the update"
        return step, why
    return step, f"positivity violated by {float(n2[at]) - 1.0:.3g} at step {step}"


def _start(q: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Unnormalised states (w, m, t, y) = (1, T (x, z), y) of Bloch vectors
    q (3, ...)."""
    (t00, t01), (t10, t11) = frame
    x, y, z = q
    return np.stack([np.ones_like(x), t00 * x + t01 * z, t10 * x + t11 * z, y])


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


def reconstruct(readouts: ReadoutRecord, q_in: BlochState, cfg: SimConfig) -> Trajectory:
    """Bloch trajectory implied by a readout record.

    Applies the z measurement, then the phi measurement, then the environment
    map for each step.  Swapping the two measurements moves a step by O(dt^2)
    for fixed readouts, but readouts of physical size sqrt(tau/dt) make that
    an O(dt) zero-mean kick per step, which leaves an O(sqrt(dt)) pathwise gap.
    """
    r_z, r_x = (np.asarray(r)[:, None] for r in (readouts.r_z, readouts.r_phi))
    states = reconstruct_batch(r_z, r_x, q_in.as_array(), cfg)
    times = cfg.dt * np.arange(states.shape[0])
    return Trajectory(times=times, states=states[:, 0, :])


def _by_chunk(r: np.ndarray, chunks: int, length: int) -> np.ndarray:
    """Readouts (n, m) as (length, chunks, m), step k of chunk i at [k, i];
    readout 0 past the end of the record."""
    pad = chunks * length - len(r)
    if pad:
        r = np.concatenate([r, np.zeros((pad, r.shape[1]))])
    return r.reshape(chunks, length, r.shape[1]).transpose(1, 0, 2)


def _chunk_products(records: list, cfg: SimConfig, turns: list) -> np.ndarray:
    """Products of the step maps of every chunk but the last, from readouts
    (length, chunks, m) per channel.

    Returns (4, chunks - 1, 4, m), indexed [component, chunk, column, lane];
    each product is rescaled after every block to largest entry 1, which
    leaves the states it maps to unchanged.
    """
    records = [r[:, :-1, None] for r in records]
    length, c1, _, m = records[0].shape
    q = np.broadcast_to(np.eye(4)[:, None, :, None], (4, c1, 4, m))
    coef, a = np.empty((4, _BLOCK, c1, 1, m)), np.empty((2, _BLOCK, c1, 1, m))
    rows = np.empty((_BLOCK, 4, c1, 4, m))
    for k0 in range(0, length, _BLOCK):
        b = min(_BLOCK, length - k0)
        _coefficients(coef[:, :b], records, cfg, k0, a[:, :b])
        q = _scan(q, coef[:, :b], turns, rows[:b])
        q = q / np.abs(q).max(axis=(0, 2), keepdims=True)
    return q


def _worker(chunks: int):
    """The executor of a final pass's stages, or a null context for none."""
    if chunks > 1:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor  # here, as it imports logging
    # numpy's error state is per thread: the worker ignores what the caller does
    return ThreadPoolExecutor(max_workers=1, initializer=np.seterr, initargs=("ignore",))


def reconstruct_batch(r_z: np.ndarray, r_x: np.ndarray, q_in: np.ndarray,
                      cfg: SimConfig) -> np.ndarray:
    """Replay of a batch.  r_z, r_x: (n_steps, m) readouts of the z and phi
    channels, q_in the initial Bloch vector.  Returns states of shape
    (n_steps + 1, m, 3), a transposed view of the (n_steps + 1, 3, m) block
    the kernel writes row by row.

    Each span of the final pass sits in one of two (span, 4, chunks, m)
    buffers, first as its coefficients, then as its unnormalised states.  A
    plain recursion runs the stages that normalise and fill them on a worker
    thread (``_worker``) while this one scans, and first-touches the output;
    a chunked scan runs them here after each scan.

    Raises ValueError unless r_z and r_x are 2-D and of one shape,
    DomainError unless q_in is 3 finite values with |q|^2 <= 1 +
    POSITIVITY_TOL, and ReconstructionError naming the first step whose
    state is not a state (see ``_normalise``).
    """
    r_z, r_x = (np.asarray(r, dtype=float) for r in (r_z, r_x))
    if r_z.ndim != 2 or r_z.shape != r_x.shape:
        raise ValueError(f"readouts r_z {r_z.shape} and r_x {r_x.shape} are not both (n_steps, m)")
    q_in = np.asarray(q_in, dtype=float)
    if q_in.shape != (3,) or not q_in @ q_in <= 1.0 + POSITIVITY_TOL:  # negated for NaN
        raise DomainError(f"initial state {q_in.tolist()} is not a Bloch vector")
    n, m = r_z.shape
    chunks = math.isqrt(n // max(m, 1))
    if chunks < 3:
        chunks = 1
    length = -(-n // chunks)
    frames = [_frame(ch) for ch in cfg.channels]
    # each turn takes (m, t) to the next channel's frame, the last one through
    # the environment map (its xz block) back to the first channel's frame
    env = _env_matrix(cfg.dt, cfg.environment)[::2, ::2]
    turns = [b @ a for a, b in zip(frames, [*frames[1:], frames[0] @ env])]
    records = [_by_chunk(r, chunks, length) for r in (r_z, r_x)]
    start = np.empty((4, chunks, m))
    start[:, 0] = _start(q_in[:, None], frames[0])
    states = np.empty((chunks * length + 1, 3, m))
    states[0] = q_in[:, None]
    # steps[k, :, i] holds the states after step k of chunk i
    steps = states[1:].reshape(chunks, length, 3, m).transpose(1, 2, 0, 3)
    span = _SPAN if chunks == 1 else _BLOCK
    offsets = np.arange(span)[:, None, None] + length * np.arange(chunks)[:, None]
    edges = range(0, length, span)
    # each span as (4, b, chunks, m) coefficients in a step-major buffer, so
    # that the scan writes each step's state contiguously
    bufs = [np.empty((span, 4, chunks, m)).swapaxes(0, 1) for _ in edges[:2]]
    spans = [(k0, bufs[i % 2][:, :min(span, length - k0)]) for i, k0 in enumerate(edges)]
    tmp = np.empty((2, span, chunks, m))  # the stage's scratch
    first = None

    def stage(k):
        """Normalise span k - 1, then fill its buffer with span k + 1; raise
        the first failure once no later span can hold an earlier step."""
        nonlocal first
        if k > 0:
            k0, rows = spans[k - 1]
            b = rows.shape[1]
            failed = _normalise(rows, frames[0], steps[k0:k0 + b], k0 + offsets[:b], tmp[:, :b])
            first = min([f for f in (first, failed) if f], default=None)
            if first and first[0] < k * span:  # later spans hold steps from k * span on only
                raise ReconstructionError(first[1])
        if k + 1 < len(spans):
            k0, coef = spans[k + 1]
            _coefficients(coef, records, cfg, k0, tmp[:, :coef.shape[1]])

    def scan(k):
        """Scan span k block by block, each from the last one's end rescaled to
        w = 1; then, where a worker normalises, write one value to each 4 kB
        page of span k + 1's output, which the stage overwrites."""
        nonlocal q
        if k < len(spans):
            coef = spans[k][1]
            for j in range(0, coef.shape[1], _BLOCK):
                block = coef[:, j:j + _BLOCK]
                last = _scan(q, block, turns, block.swapaxes(0, 1))
                q = np.concatenate([np.ones((1, chunks, m)), last[1:] / last[:1]])
        if worker and chunks == 1:
            states[1 + (k + 1) * span:1 + (k + 2) * span].reshape(-1)[::512] = 0.0

    with _worker(chunks) as worker, np.errstate(all="ignore"):
        if chunks > 1:
            prods = _chunk_products(records, cfg, turns)
            for i in range(chunks - 1):
                v = (prods[:, i] * start[None, :, i]).sum(axis=1)
                start[:, i + 1] = v / v[0]
        q = start
        _look_ahead([[functools.partial(stage, k)] for k in range(-1, len(spans) + 1)], scan,
                    worker, share=False)
    if first:
        raise ReconstructionError(first[1])
    return states[:n + 1].transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# readout-record ingestion
# ---------------------------------------------------------------------------

def readout_header(cfg: SimConfig) -> dict:
    """The parameters a readout file's header records, by name: the step, each
    channel's rate, efficiency and axis angle, and the environment."""
    cz, cp = cfg.channels
    env = cfg.environment
    return {"dt": cfg.dt, "gamma_z": cz.gamma, "eta_z": cz.eta,
            "gamma_x": cp.gamma, "eta_x": cp.eta, "phi_z": cz.axis_angle,
            "phi_x": cp.axis_angle, "rabi_detuning": env.rabi_detuning,
            "depolarization_rate": env.depolarization_rate}


#: the line of column names under a readout file's ``#`` header
_COLUMNS = "t,r_z,r_x"


def write_readout_records(path, record: ReadoutRecord, cfg: SimConfig) -> None:
    """Write a delimited text record with a parameter-carrying header."""
    params = " ".join(f"{k}={v!r}" for k, v in readout_header(cfg).items())
    rows = column_rows(record.times, record.r_z, record.r_phi)
    write_table(path, f"# {params}\n{_COLUMNS}", rows)


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: non-numeric field {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: non-finite field {text!r}")
    return value


def _params(line: str, where: str) -> dict:
    """The ``key=value`` fields of a stripped ``#`` line, by name."""
    fields = (tok.partition("=") for tok in line[1:].split())
    return {key: _finite(val, where) for key, _, val in fields}


def _record(times, r_z, r_x) -> ReadoutRecord:
    return ReadoutRecord(times=np.array(times), r_z=np.array(r_z), r_phi=np.array(r_x))


def _read_fast(path) -> tuple[ReadoutRecord, dict] | None:
    """The record of a file laid out as ``write_readout_records`` writes it,
    or None where only ``_read_lines`` can decide.

    Line 1 must be the ``#`` header, line 2 the column names and line 3 not
    blank.  The body goes to one ``np.loadtxt`` call, which must give 3
    columns of finite values.  ``loadtxt`` reads a subset of the fields
    ``float`` reads (not ``1_0``, nor non-ASCII digits), to the same values,
    and refuses a whitespace-only line, a second ``#`` line and a repeated
    column line; each of these, like any parse error, returns None.
    """
    with open(path) as fh:
        try:
            header = fh.readline().strip()
            if not header.startswith("#") or fh.readline().strip() != _COLUMNS:
                return None
            params = _params(header, f"{path}:1")
            body = fh.tell()
            # an empty body, which loadtxt warns about, and a leading blank
            # line are the loop's
            if not fh.readline().strip():
                return None
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if data.shape[1] != 3 or not np.isfinite(data).all():
        return None
    return _record(*data.T), params


def _read_lines(path) -> tuple[ReadoutRecord, dict]:
    """The record of a file, one line at a time: the reference parser and
    the source of every ``path:line`` message.  Blank and column-name lines
    are skipped anywhere, every ``#`` line adds its parameters, and a field
    is whatever ``float`` reads."""
    params = {}
    times, r_z, r_x = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                params.update(_params(line, where))
                continue
            if line == _COLUMNS:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{where}: expected 3 columns, got {len(parts)}")
            times.append(_finite(parts[0], where))
            r_z.append(_finite(parts[1], where))
            r_x.append(_finite(parts[2], where))
    return _record(times, r_z, r_x), params


def read_readout_records(path) -> tuple[ReadoutRecord, dict]:
    """Parse a readout file into its record and header parameters; malformed
    rows and non-finite values are hard errors (ValueError) naming path and
    line.

    A file as ``write_readout_records`` writes it is parsed in one
    ``np.loadtxt`` call (``_read_fast``).  Anything else, every file with an
    error included, is read again by the line loop ``_read_lines``, which
    accepts and refuses the same texts and words every message.
    """
    return _read_fast(path) or _read_lines(path)
