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
recursion.  A single record is a batch of one.
"""
from __future__ import annotations

import math

import numpy as np

from .core import BlochState, ChannelConfig, QubitEnvironment, SimConfig, write_table
from .sde import _BLOCK, ReadoutRecord, Trajectory

#: positivity slack before a reconstruction error is raised
POSITIVITY_TOL = 1e-10


class ReconstructionError(RuntimeError):
    """A Bayesian update gave no state: positivity violated beyond tolerance,
    a NaN, or readouts that saturate the update."""


def _coefficients(r, dt: float, channel: ChannelConfig) -> tuple:
    """(tanh a, E sech a) for readouts r of a channel, with a = r dt / tau,
    C-ordered.

    E = exp[-(Gamma - 1/(2 tau)) dt] is the extra damping of the components
    transverse to the axis.  Population reweighting by
    exp[-(r -+ 1)^2 dt / 2 tau] along the axis reduces to these; the
    (4 pi tau / dt)^(-1/2) operator prefactor and the cosh a scale cancel.
    Past |a| ~ 710 cosh overflows to inf and E sech a is 0.
    """
    extra = math.exp(-(channel.gamma - 1.0 / (2 * channel.tau)) * dt)
    a = np.multiply(r, dt / channel.tau, order="C")
    th = np.tanh(a)
    with np.errstate(over="ignore"):
        np.cosh(a, out=a)
    return th, np.divide(extra, a, out=a)


def _frame(channel: ChannelConfig) -> np.ndarray:
    """T taking (x, z) to (m, t), the components along the channel's axis and
    across it in the xz plane; T is its own inverse."""
    s, _, c = channel.axis
    return np.array([[s, c], [c, -s]])


def _entries(mat: np.ndarray) -> tuple:
    """Entries of a 2x2 map as 0-d arrays, cheap in elementwise products."""
    return tuple(np.array(v) for v in mat.ravel())


#: ``out`` arguments that make numpy allocate the result
_FRESH = (None,) * 4


def _scan(q, maps, rows: np.ndarray) -> np.ndarray:
    """Apply steps to unnormalised states q = (w, m, t, y) and return the last.

    A step applies each map of ``maps`` = [(tanh a, E sech a, turn), ...] in
    turn, the first two indexed by step.  In the frame of its own axis a
    channel's map is

        w' = w + tanh(a) m,   m' = m + tanh(a) w,   (t, y)' = E sech(a) (t, y),

    and the entries of ``turn`` then take (m, t) to the frame of the next map.
    ``rows[j]`` (4, *lanes) receives the state after step j.
    """
    w, m, t, y = q
    last = len(maps) - 1
    for j, row in enumerate(rows):
        for k, (th, f, (r00, r01, r10, r11)) in enumerate(maps):
            # the last map of a step writes straight into the step's row
            out = row if k == last else _FRESH
            a, e = th[j], f[j]
            w, m = np.add(w, a * m, out[0]), m + a * w
            t, y = e * t, np.multiply(e, y, out[3])
            m, t = np.add(r00 * m, r01 * t, out[1]), np.add(r10 * m, r11 * t, out[2])
    return rows[-1]


def _normalise(rows: np.ndarray, frame: np.ndarray, out: np.ndarray, steps):
    """Write the Bloch vectors (x, y, z) of unnormalised states ``rows``
    (b, 4, ...), held as (w, m, t, y) in ``frame``, into ``out`` (b, 3, ...).
    ``rows`` keeps w and is left holding (m, t, y)/w.

    Returns None, or (step, reason) for the earliest of ``steps`` (broadcast
    to (b, ...)) whose w is not in (0, inf) or whose |q|^2 - 1 exceeds
    POSITIVITY_TOL or is NaN.
    """
    w, unit = rows[:, 0], rows[:, 1:]
    unit /= rows[:, :1]
    n2 = np.einsum("bi...,bi...->b...", unit, unit)
    t00, t01, t10, t11 = frame.ravel()
    np.add(t00 * unit[:, 0], t01 * unit[:, 1], out=out[:, 0])
    out[:, 1] = unit[:, 2]
    np.add(t10 * unit[:, 0], t11 * unit[:, 1], out=out[:, 2])
    # negated tests so that a NaN fails
    bad = ~((w > 0) & (w < np.inf) & (n2 <= 1.0 + POSITIVITY_TOL))
    if not bad.any():
        return None
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


def reconstruct(
    readouts: ReadoutRecord, q_in: BlochState, cfg: SimConfig
) -> Trajectory:
    """Bloch trajectory implied by a readout record.

    Applies the z measurement, then the phi measurement, then the environment
    map for each step.  Swapping the two measurements moves a step by O(dt^2)
    for fixed readouts, but readouts of physical size sqrt(tau/dt) make that
    an O(dt) zero-mean kick per step, which leaves an O(sqrt(dt)) pathwise gap.
    """
    states = reconstruct_batch(
        np.asarray(readouts.r_z)[:, None],
        np.asarray(readouts.r_phi)[:, None],
        q_in.as_array(),
        cfg,
    )
    times = cfg.dt * np.arange(states.shape[0])
    return Trajectory(times=times, states=states[:, 0, :])


def _by_chunk(r: np.ndarray, chunks: int, span: int) -> np.ndarray:
    """Readouts (n, m) as (span, chunks, m), step k of chunk i at [k, i];
    readout 0 past the end of the record."""
    pad = chunks * span - len(r)
    if pad:
        r = np.concatenate([r, np.zeros((pad, r.shape[1]))])
    return r.reshape(chunks, span, r.shape[1]).transpose(1, 0, 2)


def _block_maps(records: list, cfg: SimConfig, turns: list, k0: int, b: int) -> list:
    """The maps of steps k0..k0+b for ``_scan``, from readouts per channel."""
    return [
        (*_coefficients(r[k0:k0 + b], cfg.dt, ch), turn)
        for r, ch, turn in zip(records, cfg.channels, turns)
    ]


def _chunk_products(records: list, cfg: SimConfig, turns: list) -> np.ndarray:
    """Products of the step maps of every chunk but the last, from readouts
    (span, chunks, m) per channel.

    Returns (4, chunks - 1, 4, m), indexed [component, chunk, column, lane];
    each product is rescaled after every block to largest entry 1, which
    leaves the states it maps to unchanged.
    """
    records = [r[:, :-1, None] for r in records]
    span, c1, _, m = records[0].shape
    q = np.broadcast_to(np.eye(4)[:, None, :, None], (4, c1, 4, m))
    rows = np.empty((_BLOCK, 4, c1, 4, m))
    for k0 in range(0, span, _BLOCK):
        b = min(_BLOCK, span - k0)
        q = _scan(q, _block_maps(records, cfg, turns, k0, b), rows[:b])
        q = q / np.abs(q).max(axis=(0, 2), keepdims=True)
    return q


def reconstruct_batch(
    r_z: np.ndarray, r_x: np.ndarray, q_in: np.ndarray, cfg: SimConfig
) -> np.ndarray:
    """Replay of a batch.  r_z, r_x: (n_steps, m) readouts of the z and phi
    channels.  Returns states of shape (n_steps + 1, m, 3), a transposed view
    of the (n_steps + 1, 3, m) block the kernel writes row by row.

    Raises ReconstructionError naming the first step whose state is not a
    state (see ``_normalise``).
    """
    n, m = r_z.shape
    chunks = math.isqrt(n // max(m, 1))
    if chunks < 3:
        chunks = 1
    span = -(-n // chunks)
    frames = [_frame(ch) for ch in cfg.channels]
    # each turn takes (m, t) to the next channel's frame, the last one through
    # the environment map (its xz block) back to the first channel's frame
    env = _env_matrix(cfg.dt, cfg.environment)[::2, ::2]
    turns = [_entries(b @ a) for a, b in zip(frames, [*frames[1:], frames[0] @ env])]
    records = [_by_chunk(np.asarray(r, dtype=float), chunks, span) for r in (r_z, r_x)]
    q_in = np.asarray(q_in, dtype=float)
    start = np.empty((4, chunks, m))
    start[:, 0] = _start(q_in[:, None], frames[0])
    states = np.empty((chunks * span + 1, 3, m))
    states[0] = q_in[:, None]
    # steps[k, :, i] holds the states after step k of chunk i
    steps = states[1:].reshape(chunks, span, 3, m).transpose(1, 2, 0, 3)
    rows = np.empty((_BLOCK, 4, chunks, m))
    offsets = np.arange(_BLOCK)[:, None, None] + span * np.arange(chunks)[:, None]
    first = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if chunks > 1:
            prods = _chunk_products(records, cfg, turns)
            for i in range(chunks - 1):
                v = (prods[:, i] * start[None, :, i]).sum(axis=1)
                start[:, i + 1] = v / v[0]
        q = start
        for k0 in range(0, span, _BLOCK):
            b = min(_BLOCK, span - k0)
            _scan(q, _block_maps(records, cfg, turns, k0, b), rows[:b])
            failed = _normalise(rows[:b], frames[0], steps[k0:k0 + b], k0 + offsets[:b])
            if failed and (first is None or failed[0] < first[0]):
                first = failed
            if first and first[0] < k0 + b:
                # later blocks hold steps from k0 + b on only
                break
            q = np.concatenate([np.ones((1, chunks, m)), rows[b - 1, 1:]])
    if first:
        raise ReconstructionError(first[1])
    return states[:n + 1].transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# readout-record ingestion
# ---------------------------------------------------------------------------

def readout_header(cfg: SimConfig) -> dict:
    """The parameters a readout file's header records, by name."""
    cz, cp = cfg.channels
    return {"dt": cfg.dt, "gamma_z": cz.gamma, "eta_z": cz.eta,
            "gamma_x": cp.gamma, "eta_x": cp.eta}


def write_readout_records(path, record: ReadoutRecord, cfg: SimConfig) -> None:
    """Write a delimited text record with a parameter-carrying header."""
    params = " ".join(f"{k}={v!r}" for k, v in readout_header(cfg).items())
    rows = zip(record.times.tolist(), record.r_z.tolist(), record.r_phi.tolist())
    write_table(path, f"# {params}\nt,r_z,r_x", rows)


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
