import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from xzmeas.core import (
    BlochState,
    ChannelConfig,
    DomainError,
    QubitEnvironment,
    SimConfig,
    polar_to_bloch,
)
from xzmeas import bayes, sde
from xzmeas.bayes import (
    ReconstructionError,
    read_readout_records,
    reconstruct,
    reconstruct_batch,
    write_readout_records,
)

from conftest import ideal_xz_config, kernel_run


Z_CHAN = ChannelConfig(0.0, 0.5, 1.0)
X_CHAN = ChannelConfig(math.pi / 2, 0.5, 1.0)


def random_mixed_states(rng, n):
    v = rng.normal(size=(n, 3))
    v *= (rng.uniform(0, 1, n) ** (1 / 3) / np.linalg.norm(v, axis=1))[:, None]
    return v


def replay_step(q, dt, channels, readouts):
    """Bloch vector after a one-step replay from q: each channel's update at
    its readout, in the order given, and no environment."""
    cfg = SimConfig(channels=channels, dt=dt, t_final=dt)
    r_z, r_x = (np.full((1, 1), r) for r in readouts)
    return reconstruct_batch(r_z, r_x, np.asarray(q, dtype=float), cfg)[1, 0]


def update(q, r, dt, chan):
    """One channel's update of q at readout r; the ideal z channel follows at
    readout 0, which is the identity."""
    return replay_step(q, dt, (chan, Z_CHAN), (r, 0.0))


def test_update_preserves_trace_and_positivity(rng):
    dt = 0.01
    states = random_mixed_states(rng, 5000)
    readouts = rng.normal(0.0, math.sqrt(Z_CHAN.tau / dt), 5000)
    for chan in (Z_CHAN, X_CHAN):
        for q, r in zip(states[:2500], readouts[:2500]):
            out = update(q, r, dt, chan)
            assert out @ out <= 1.0 + 1e-9


def test_update_weakly_converges_to_ito_moments(rng):
    # readout drawn from the physical distribution: mean state change matches
    # the drift of the mean equation, fluctuation matches the diffusion vector
    dt = 0.01
    q0 = polar_to_bloch(0.7)
    n = 2_000_000
    noises = rng.standard_normal(n)
    r = math.cos(0.7) + math.sqrt(Z_CHAN.tau / dt) * noises
    a = r * dt / Z_CHAN.tau
    x = q0.x / (np.cosh(a) + q0.z * np.sinh(a))
    z = (q0.z * np.cosh(a) + np.sinh(a)) / (np.cosh(a) + q0.z * np.sinh(a))
    dx, dz = x - q0.x, z - q0.z
    # Ito drift of the z channel alone: -gamma_z x, 0 for z
    assert dx.mean() / dt == pytest.approx(-Z_CHAN.gamma * q0.x, abs=0.02)
    assert dz.mean() / dt == pytest.approx(0.0, abs=0.02)
    # diffusion vector (-xz, (1-z^2))/sqrt(tau)
    rt = 1 / math.sqrt(Z_CHAN.tau)
    assert np.std(dx) / math.sqrt(dt) == pytest.approx(
        abs(-q0.x * q0.z) * rt, rel=0.02
    )
    assert np.std(dz) / math.sqrt(dt) == pytest.approx((1 - q0.z**2) * rt, rel=0.02)


def test_x_update_is_rotated_z_update():
    dt, r = 0.01, 3.7
    q = BlochState(0.3, 0.1, -0.4)
    out_x = update(q.as_array(), r, dt, X_CHAN)
    rot = BlochState(-q.z, q.y, q.x)  # -pi/2 rotation about y
    x, y, z = update(rot.as_array(), r, dt, Z_CHAN)
    back = BlochState(z, y, -x)
    assert np.allclose(out_x, back.as_array(), atol=1e-14)


def test_general_axis_update_is_rotated_z_update():
    # an axis at angle phi is the z axis rotated by phi about y
    dt, r, phi = 0.01, 3.7, math.pi / 3
    chan = ChannelConfig(phi, 0.5, 0.7)
    rot = np.array(
        [[math.cos(phi), 0, math.sin(phi)], [0, 1, 0], [-math.sin(phi), 0, math.cos(phi)]]
    )
    q = np.array([0.3, 0.1, -0.4])
    out = update(q, r, dt, chan)
    z_chan = ChannelConfig(0.0, chan.gamma, chan.eta)
    back = update(rot.T @ q, r, dt, z_chan)
    assert np.allclose(out, rot @ back, atol=1e-14)


def test_composition_order_error_is_second_order():
    dt_big, dt_small = 0.02, 0.01
    q = BlochState(0.4, 0.0, 0.5)

    def swap_gap(dt):
        r_z, r_x = 0.9, -1.4
        zx = replay_step(q.as_array(), dt, (Z_CHAN, X_CHAN), (r_z, r_x))
        xz = replay_step(q.as_array(), dt, (X_CHAN, Z_CHAN), (r_x, r_z))
        return np.linalg.norm(zx - xz)

    g_big, g_small = swap_gap(dt_big), swap_gap(dt_small)
    assert g_big > 0
    assert g_small == pytest.approx(g_big / 4, rel=0.2)  # O(dt^2)


def test_env_step_exact_rotation_and_damping():
    env = QubitEnvironment(rabi_detuning=0.8, depolarization_rate=0.2)
    q = BlochState(0.3, 0.2, 0.4)
    t = 0.5
    out = bayes._env_matrix(t, env) @ q.as_array()
    damp = math.exp(-0.2 * t)
    c, s = math.cos(0.8 * t), math.sin(0.8 * t)
    assert out[0] == pytest.approx(damp * (q.x * c + q.z * s), abs=1e-14)
    assert out[2] == pytest.approx(damp * (q.z * c - q.x * s), abs=1e-14)
    assert out[1] == q.y  # depolarization acts in the xz plane only
    # two half steps compose exactly to one full step
    half = bayes._env_matrix(t / 2, env)
    assert np.allclose(half @ (half @ q.as_array()), out, atol=1e-15)


def test_replay_matches_sde_mean_y_under_depolarization():
    # y starts nonzero; both routes depolarize only x and z, so the ensemble
    # mean of y decays at the measurement dephasing rate 0.2 + 0.2 alone
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, 0.2, 0.5), ChannelConfig(math.pi / 2, 0.2, 0.5)),
        dt=0.01,
        t_final=2.0,
        initial_state=BlochState(0.0, 0.8, 0.3),
        environment=QubitEnvironment(depolarization_rate=0.5),
        rng_seed=3,
    )
    ens = sde.run_ensemble(cfg, 2000)
    rec = reconstruct_batch(ens.r_z.T, ens.r_phi.T, cfg.initial_state.as_array(), cfg)
    y_sde, y_rep = ens.states[:, -1, 1], rec[-1, :, 1]
    se = y_sde.std(ddof=1) / math.sqrt(len(y_sde))
    assert abs(y_sde.mean() - 0.8 * math.exp(-0.4 * cfg.t_final)) <= 4 * se
    assert abs(y_rep.mean() - y_sde.mean()) <= 4 * se


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def density(q):
    """2x2 density matrix of the Bloch vector q."""
    return 0.5 * (np.eye(2) + np.tensordot(q, PAULI, 1))


def bloch(rho):
    """Bloch vectors (m, 3) of density matrices rho (m, 2, 2)."""
    return np.einsum("mij,cji->mc", rho, PAULI).real


def kraus_step(cfg):
    """One step of density matrices (m, 2, 2) given readouts (m,) of each
    channel: per channel rho -> K rho K / tr with K = exp(a sigma_n / 2), then
    the phase flip about n that leaves E of the transverse components; then
    the rotation exp(-i Omega dt sigma_y / 2) and the xz phase flip about y."""
    env = cfg.environment
    half = env.rabi_detuning * cfg.dt / 2
    u = math.cos(half) * np.eye(2) - 1j * math.sin(half) * PAULI[1]
    damp = math.exp(-env.depolarization_rate * cfg.dt)
    channels = []
    for ch in cfg.channels:
        sig = math.sin(ch.axis_angle) * PAULI[0] + math.cos(ch.axis_angle) * PAULI[2]
        extra = math.exp(-(ch.gamma - 1 / (2 * ch.tau)) * cfg.dt)
        channels.append((sig, extra, cfg.dt / ch.tau))

    def step(rho, r_z, r_x):
        for (sig, extra, rate), r in zip(channels, (r_z, r_x)):
            a = (r * rate / 2)[:, None, None]
            kraus = np.cosh(a) * np.eye(2) + np.sinh(a) * sig
            rho = kraus @ rho @ kraus
            rho = rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]
            rho = (1 + extra) / 2 * rho + (1 - extra) / 2 * (sig @ rho @ sig)
        rho = u @ rho @ u.conj().T
        return (1 + damp) / 2 * rho + (1 - damp) / 2 * (PAULI[1] @ rho @ PAULI[1])

    return step


def kraus_chain(cfg, r_z, r_x):
    """Bloch states (n + 1, m, 3) of 2x2 density matrices driven by readouts
    (n, m), one ``kraus_step`` at a time."""
    n, m = r_z.shape
    step = kraus_step(cfg)
    rho = np.repeat(density(cfg.initial_state.as_array())[None], m, axis=0)
    out = np.empty((n + 1, m, 3))
    out[0] = bloch(rho)
    for k in range(n):
        rho = step(rho, r_z[k], r_x[k])
        out[k + 1] = bloch(rho)
    return out


def kraus_sampled_trajectory(cfg, seed):
    """Readout-consistent trajectory of the 2x2 density-matrix chain, whose
    readouts the fused SDE kernel emits from each state and the stream's
    draws; it shares no code with replay."""
    noises = sde.noise_stream(seed, 0, cfg.n_steps)
    step = kraus_step(cfg)
    rho = density(cfg.initial_state.as_array())[None]
    states = [cfg.initial_state.as_array()]
    r_z = np.empty(cfg.n_steps)
    r_x = np.empty(cfg.n_steps)
    for k in range(cfg.n_steps):
        _, readouts = kernel_run(cfg, bloch(rho).T, noises[k].reshape(1, 2, 1))
        r_z[k], r_x[k] = readouts[0, :, 0]
        rho = step(rho, readouts[0, 0], readouts[0, 1])
        states.append(bloch(rho)[0])
    record = sde.ReadoutRecord(times=cfg.times[:-1], r_z=r_z, r_phi=r_x)
    return np.array(states), record


def test_loop_closure_reference_shares_no_code_with_replay(monkeypatch):
    def fail(*args):
        raise AssertionError("the reference must not call the replay kernel")

    monkeypatch.setattr(bayes, "_scan", fail)
    cfg = ideal_xz_config(t_final=0.1, seed=77)
    states, _ = kraus_sampled_trajectory(cfg, seed=77)
    assert states.shape == (cfg.n_steps + 1, 3)


def test_reconstruct_replays_measurement_sampled_trajectory():
    cfg = ideal_xz_config(gamma=0.5, dt=0.01, t_final=5.0, seed=31)
    states, record = kraus_sampled_trajectory(cfg, seed=31)
    rec = reconstruct(record, cfg.initial_state, cfg)
    assert np.abs(rec.states - states).max() <= 5 * cfg.dt / cfg.channels[0].tau


def test_reconstruct_tracks_sde_trajectory_diffusively():
    # against the Euler path the filter differs by zero-mean O(dt) kicks that
    # accumulate as a sqrt(t*dt)/tau walk; check at that scale
    cfg = ideal_xz_config(gamma=0.5, dt=0.01, t_final=5.0, seed=8)
    devs = []
    for sid in range(10):
        traj, rec = sde.simulate_trajectory(cfg, stream_id=sid)
        back = reconstruct(rec, cfg.initial_state, cfg)
        devs.append(np.abs(back.states - traj.states).max())
    scale = math.sqrt(cfg.t_final * cfg.dt) / cfg.channels[0].tau
    assert np.median(devs) <= 5 * scale


def test_replay_of_general_axis_tracks_sde_trajectory():
    # experimental-scale parameters (times in microseconds) with the second
    # axis at pi/3.  The RMS distance between SDE and replayed paths, pooled
    # over three streams, is 0.031 +- 0.004 (max 0.042 over 60 seeds); the
    # x-axis update applied to this channel gives 0.26 +- 0.01
    gamma = 1 / 1.3
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, gamma, 0.54), ChannelConfig(math.pi / 3, gamma, 0.41)),
        dt=0.004,
        t_final=16.0,
        initial_state=polar_to_bloch(math.pi / 4),
        environment=QubitEnvironment(2 * math.pi * 0.012, (1 / 60 + 1 / 30) / 2),
        rng_seed=5,
    )
    sq = []
    for sid in range(3):
        traj, rec = sde.simulate_trajectory(cfg, stream_id=sid)
        back = reconstruct(rec, cfg.initial_state, cfg)
        sq.append(np.sum((back.states - traj.states) ** 2, axis=1))
    assert math.sqrt(float(np.mean(sq))) < 0.05


def test_readout_record_file_roundtrip(tmp_path):
    cfg = ideal_xz_config(t_final=0.1, seed=2)
    _, record = sde.simulate_trajectory(cfg)
    path = tmp_path / "readouts.txt"
    write_readout_records(path, record, cfg)
    back, params = read_readout_records(path)
    assert np.allclose(back.times, record.times, atol=1e-15)
    assert np.array_equal(back.r_z, record.r_z)
    assert np.array_equal(back.r_phi, record.r_phi)
    assert params["dt"] == cfg.dt


def test_readout_record_malformed_row(tmp_path):
    cfg = ideal_xz_config(t_final=0.05, seed=2)
    _, record = sde.simulate_trajectory(cfg)
    path = tmp_path / "readouts.txt"
    write_readout_records(path, record, cfg)
    lines = path.read_text().splitlines()
    lines[3] = "0.02,not_a_number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":4"):
        read_readout_records(path)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_readout_record_rejects_non_finite(tmp_path, field):
    cfg = ideal_xz_config(t_final=0.05, seed=2)
    _, record = sde.simulate_trajectory(cfg)
    path = tmp_path / "readouts.txt"
    write_readout_records(path, record, cfg)
    lines = path.read_text().splitlines()
    lines[3] = f"0.02,{field},0.1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":4: non-finite"):
        read_readout_records(path)


# texts for the two readout parsers: the one-call fast path and the line loop
HEADER = "# dt=0.01 gamma_z=0.5\nt,r_z,r_x\n"
ROWS = ["0.0,0.25,-1.5", "0.01,-0.0,5e-324", "0.02,1e-3,2.5"]


def body(*rows):
    return "".join(row + "\n" for row in rows)


# name: (text, whether the fast path reads it itself)
PARSE_CASES = {
    "as written": (HEADER + body(*ROWS), True),
    "blank lines": (HEADER + body(ROWS[0], "", "", *ROWS[1:], ""), True),
    "crlf": ((HEADER + body(*ROWS)).replace("\n", "\r\n"), True),
    "blank lines, crlf": ((HEADER + body(ROWS[0], "", *ROWS[1:])).replace("\n", "\r\n"), True),
    "spaces and tabs around fields": (HEADER + body(" 0.0 ,\t0.25\t, -1.5 ", *ROWS[1:]), True),
    "no final newline": ((HEADER + body(*ROWS))[:-1], True),
    "one row": (HEADER + body(ROWS[0]), True),
    "blank line first in body": (HEADER + body("", *ROWS), False),
    "whitespace-only line": (HEADER + body(ROWS[0], " \t ", *ROWS[1:]), False),
    "underscore digits": (HEADER + body("1_0,0.25,-1.5"), False),
    "non-ASCII digit": (HEADER + body("\u0661,0.25,-1.5"), False),
    "overflow": (HEADER + body(ROWS[0], "0.01,1e500,0.5"), False),
    "nan": (HEADER + body(ROWS[0], "0.01,nan,0.5"), False),
    "trailing comma": (HEADER + body(ROWS[0], "0.01,0.5,0.5,"), False),
    "2-column row": (HEADER + body(ROWS[0], "0.01,0.5"), False),
    "2 columns throughout": (HEADER + body("0.0,0.5", "0.01,0.5"), False),
    "second # line": (HEADER + body(ROWS[0], "# eta_z=0.9", *ROWS[1:]), False),
    "repeated column line": (HEADER + body(ROWS[0], "t,r_z,r_x", *ROWS[1:]), False),
    "header not on line 1": ("\n" + HEADER + body(*ROWS), False),
    "no header": ("t,r_z,r_x\n" + body(*ROWS), False),
    "malformed header": ("# dt=a\nt,r_z,r_x\n" + body(*ROWS), False),
    "header only": (HEADER, False),
    "header only, no final newline": (HEADER[:-1], False),
}


def bits(record):
    return [getattr(record, f).tobytes() for f in ("times", "r_z", "r_phi")]


def read_both(path):
    """(result or message) of the public reader and of the line loop."""
    out = []
    for read in (read_readout_records, bayes._read_lines):
        try:
            record, params = read(path)
            out.append((bits(record), params))
        except ValueError as exc:
            out.append(str(exc))
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", PARSE_CASES)
def test_readout_fast_path_reads_what_the_line_loop_reads(tmp_path, name):
    # the line loop is the reference; the fast path either gives its arrays
    # bit for bit or leaves the text to it, and no case warns
    text, fast_reads = PARSE_CASES[name]
    path = tmp_path / "readouts.txt"
    path.write_bytes(text.encode())
    fast = bayes._read_fast(path)
    assert (fast is not None) == fast_reads
    public, loop = read_both(path)
    assert public == loop
    if fast is not None:
        assert (bits(fast[0]), fast[1]) == loop
    if name == "as written":
        columns = [0.0, 0.01, 0.02], [0.25, -0.0, 1e-3], [-1.5, 5e-324, 2.5]
        assert loop == ([np.array(c).tobytes() for c in columns], {"dt": 0.01, "gamma_z": 0.5})


def test_readout_fast_path_agrees_on_random_texts(tmp_path):
    # fields and lines spliced from pieces either parser may take differently
    pieces = ["1", "-0.0", "2.5e-3", "1_0", "\u0661", "1e500", "nan", "inf", "0x1", ".", "e",
              " ", "\t", "\x0c", "\x85", "\x00", ",", "\n", "\r", "#", "t,r_z,r_x", ""]
    rng = np.random.default_rng(11)
    path = tmp_path / "readouts.txt"
    taken = 0
    for _ in range(300):
        rows = []
        for _ in range(rng.integers(0, 5)):
            row = ",".join(rng.choice(["0.5", "-1", "3e-2"], 3))
            k = rng.integers(len(row) + 1)
            rows.append(row[:k] + rng.choice(pieces) + row[k:] if rng.random() < 0.4 else row)
        newline = rng.choice(["\n", "\r\n"])
        path.write_bytes((HEADER + body(*rows)).replace("\n", newline).encode())
        fast = bayes._read_fast(path)
        public, loop = read_both(path)
        assert public == loop
        if fast is not None:
            assert (bits(fast[0]), fast[1]) == loop
            taken += 1
    assert 50 < taken < 300

def test_replay_rejects_nan_readout():
    # a NaN norm must not pass the positivity check
    cfg = ideal_xz_config(t_final=0.1)
    r = np.zeros((cfg.n_steps, 2))
    r[3, 1] = np.nan
    with pytest.raises(ReconstructionError, match="step 3"):
        reconstruct_batch(r, r, cfg.initial_state.as_array(), cfg)


@pytest.mark.parametrize("width", [1, 3])
def test_huge_readouts_give_axis_eigenstates(width):
    # each map is scaled by sech a, so a readout far past cosh's overflow
    # projects onto the axis eigenstate without a warning
    cfg = ideal_xz_config(t_final=0.1)
    q_in = cfg.initial_state.as_array()
    r_z, r_x = np.zeros((cfg.n_steps, width)), np.zeros((cfg.n_steps, width))
    r_z[5], r_x[8] = 1e6, -1e300
    states = reconstruct_batch(r_z, r_x, q_in, cfg)
    z_axis, x_axis = (ch.axis for ch in cfg.channels)
    assert np.array_equal(states[6:9], np.broadcast_to(z_axis, (3, width, 3)))
    assert np.array_equal(states[9:], np.broadcast_to(-x_axis, (2, width, 3)))


@pytest.mark.parametrize("width", [1, 2])
def test_replay_rejects_saturated_readouts(width):
    # tanh(1e6 dt / tau) rounds to 1, so +1e6 leaves the z eigenstate +1
    # exactly, and -1e6 (tanh -1) then gives w' = 0 at step 6, although the
    # exact posterior is a state.  At width 1 the 10 steps run as 3 chunks
    # and step 6 lies in the second
    cfg = ideal_xz_config(t_final=0.1)
    r_z, r_x = np.zeros((cfg.n_steps, width)), np.zeros((cfg.n_steps, width))
    r_z[5], r_z[6] = 1e6, -1e6
    with pytest.raises(ReconstructionError, match=r"\(w = 0\) at step 6: .* saturate"):
        reconstruct_batch(r_z, r_x, cfg.initial_state.as_array(), cfg)


@pytest.mark.parametrize("eta, phi", [(1.0, math.pi / 2), (0.5, math.pi / 3)])
def test_replay_matches_density_matrix_kraus_chain(eta, phi):
    # 20k steps, so a narrow replay runs as 141 (width 1) or 17 (width 64)
    # chunks, checked against density matrices stepped one at a time
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, 0.5, eta), ChannelConfig(phi, 0.5, eta)),
        dt=0.005,
        t_final=100.0,
        initial_state=polar_to_bloch(0.9),
        environment=QubitEnvironment(rabi_detuning=0.3, depolarization_rate=0.05),
        rng_seed=12,
    )
    ens = sde.run_ensemble(cfg, 64)
    r_z, r_x = ens.r_z.T, ens.r_phi.T
    q_in = cfg.initial_state.as_array()
    ref = kraus_chain(cfg, r_z, r_x)
    wide = reconstruct_batch(r_z, r_x, q_in, cfg)
    one = reconstruct_batch(r_z[:, :1], r_x[:, :1], q_in, cfg)
    assert np.abs(wide - ref).max() <= 1e-12
    assert np.abs(one - ref[:, :1]).max() <= 1e-12
    lane = reconstruct_batch(r_z[:, 37:38], r_x[:, 37:38], q_in, cfg)
    assert np.abs(lane - wide[:, 37:38]).max() <= 1e-13


@pytest.mark.parametrize("m", [1, 100, 300])
def test_batch_lanes_equal_records_replayed_alone(m):
    # 1000 steps: one record is scanned in 31 chunks, 100 in 3, and 300 are
    # replayed plainly.  Chunk plans round differently, so a record is
    # replayed alone at the batch's plan: as every lane of a batch of m
    # copies of it.  Lanes never mix, so its lane must match bit for bit.
    cfg = ideal_xz_config(t_final=10.0, seed=8)
    ens = sde.run_ensemble(cfg, m)
    r_z, r_x = ens.r_z.T, ens.r_phi.T
    q_in = cfg.initial_state.as_array()
    batch = reconstruct_batch(r_z, r_x, q_in, cfg)
    assert batch.shape == (1001, m, 3)
    for j in sorted({0, m // 3, m - 1}):
        alone = reconstruct_batch(np.repeat(r_z[:, j:j + 1], m, axis=1),
                                  np.repeat(r_x[:, j:j + 1], m, axis=1), q_in, cfg)
        assert np.array_equal(batch[:, j], alone[:, 0])
        assert np.array_equal(alone, np.repeat(alone[:, :1], m, axis=1))
    if m == 1:
        record = sde.ReadoutRecord(ens.times[:-1], ens.r_z[0], ens.r_phi[0])
        assert np.array_equal(batch[:, 0], reconstruct(record, cfg.initial_state, cfg).states)


def test_replay_of_empty_record_is_initial_state():
    cfg = ideal_xz_config(t_final=0.1)
    q_in = cfg.initial_state.as_array()
    states = reconstruct_batch(np.zeros((0, 3)), np.zeros((0, 3)), q_in, cfg)
    assert np.array_equal(states, np.broadcast_to(q_in, (1, 3, 3)))


def _stages_on(monkeypatch, worker: bool) -> None:
    """Run every final pass's stages on one worker thread, or on the calling
    thread, whatever the batch's shape."""
    look_ahead = bayes._look_ahead
    monkeypatch.setattr(bayes, "_look_ahead", lambda items, run, threaded, share:
                        look_ahead(items, run, worker, share))


@pytest.mark.parametrize("r_z, r_x", [
    # an r_x one step short was padded with readout 0 and replayed
    (np.zeros((100, 3)), np.zeros((99, 3))),
    # unequal lane counts failed inside _scan with a broadcast error
    (np.zeros((100, 3)), np.zeros((100, 2))),
    # 1-D readouts failed with "not enough values to unpack"
    (np.zeros(100), np.zeros(100)),
    (np.zeros((100, 3, 1)), np.zeros((100, 3, 1))),
])
def test_replay_refuses_readouts_of_other_shapes(monkeypatch, r_z, r_x):
    monkeypatch.setattr(bayes, "_coefficients", None)  # raised before any work
    cfg = ideal_xz_config(t_final=1.0)
    with pytest.raises(ValueError, match=re.escape(f"r_z {r_z.shape} and r_x {r_x.shape}")):
        reconstruct_batch(r_z, r_x, cfg.initial_state.as_array(), cfg)


@pytest.mark.parametrize("q_in", [
    # was replayed and reported as "positivity violated by 1 at step 0"
    (1.0, 1.0, 0.0),
    (1.0 + 1e-9, 0.0, 0.0),
    (math.nan, 0.0, 0.0),
    (0.0, -math.inf, 0.0),
    (0.6, 0.8),
    ((0.6,), (0.0,), (0.8,)),
])
def test_replay_refuses_an_initial_state_that_is_not_one(monkeypatch, q_in):
    monkeypatch.setattr(bayes, "_coefficients", None)  # raised before any work
    cfg = ideal_xz_config(t_final=1.0)
    r = np.zeros((cfg.n_steps, 2))
    with pytest.raises(DomainError, match="initial state"):
        reconstruct_batch(r, r, np.array(q_in), cfg)


def test_replay_takes_a_pure_initial_state_within_tolerance():
    cfg = ideal_xz_config(t_final=0.1)
    r = np.zeros((cfg.n_steps, 2))
    q_in = np.array([0.6, 0.0, 0.8]) * (1.0 + 1e-12)
    assert 1.0 < q_in @ q_in <= 1.0 + bayes.POSITIVITY_TOL
    assert np.array_equal(reconstruct_batch(r, r, q_in, cfg)[0], [q_in, q_in])


def _stage_threads(monkeypatch) -> list:
    """The thread of each ``_normalise`` call from here on."""
    normalise, threads = bayes._normalise, []

    def normalise_here(*args):
        threads.append(threading.current_thread())
        return normalise(*args)

    monkeypatch.setattr(bayes, "_normalise", normalise_here)
    return threads


@pytest.mark.parametrize("n, m, worker", [
    (4000, 1, False),  # a single record, scanned in 63 chunks
    (1000, 100, False),  # 3 chunks
    (100, 3, False),  # 5 chunks
    (100, 12, True),  # the plain recursion, as at any width
    (500, 300, True),
    (500, 2000, True),
])
def test_only_a_plain_recursion_starts_a_thread(monkeypatch, n, m, worker):
    threads = _stage_threads(monkeypatch)
    cfg = ideal_xz_config(t_final=n * 0.01)
    r = np.zeros((n, m))
    reconstruct_batch(r, r, cfg.initial_state.as_array(), cfg)
    assert threads
    assert {t is threading.main_thread() for t in threads} == {not worker}
    assert len(set(threads)) == 1


def test_a_chunked_replay_imports_no_executor():
    src = str(Path(bayes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, numpy as np; from xzmeas import bayes; "
            "from xzmeas.core import ChannelConfig, SimConfig; "
            "cfg = SimConfig((ChannelConfig(0, 1, 1), ChannelConfig(1, 1, 1)), 0.01, 10.0); "
            "r = np.zeros((1000, 1)); bayes.reconstruct_batch(r, r, np.zeros(3), cfg); "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("n", [0, 16, 37, 500])
def test_worker_and_calling_thread_replay_the_same_bytes(monkeypatch, n):
    # no span, one short span, a full span and a short one, and 16 spans
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, 0.5, 0.8), ChannelConfig(1.1, 0.4, 0.6)),
        dt=0.004,
        t_final=max(n, 1) * 0.004,
        initial_state=polar_to_bloch(0.7),
        environment=QubitEnvironment(rabi_detuning=0.3, depolarization_rate=0.05),
    )
    r_z, r_x = np.random.default_rng(n).normal(scale=5.0, size=(2, n, 64))
    q_in = cfg.initial_state.as_array()
    runs = []
    for worker in (True, False):
        with monkeypatch.context() as patch:
            _stages_on(patch, worker)
            threads = _stage_threads(patch)
            runs.append(reconstruct_batch(r_z, r_x, q_in, cfg))
        assert len(threads) == -(-n // bayes._SPAN)  # one _normalise call per span
        assert all((t is threading.main_thread()) is not worker for t in threads)
    assert runs[0].shape == (n + 1, 64, 3)
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], reconstruct_batch(r_z, r_x, q_in, cfg))


def _failing_readouts(kind: str, steps: dict, n: int, m: int):
    """Zero readouts (n, m) of both channels, failing in lane j at step
    steps[j]: a NaN, or saturated against the step before."""
    r_z, r_x = np.zeros((n, m)), np.zeros((n, m))
    for lane, step in steps.items():
        if kind == "nan":
            r_x[step, lane] = np.nan
        else:
            r_z[step - 1:step + 1, lane] = 1e6, -1e6
    return r_z, r_x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["nan", "saturated"])
@pytest.mark.parametrize("step", [3, 50, 98])
@pytest.mark.parametrize("worker", [True, False])
def test_stages_name_the_earliest_failing_step(monkeypatch, kind, step, worker):
    # 100 steps in 4 spans, the last of 4 steps: a failure in the first, a
    # middle and the last span, with later failures in other lanes, one in
    # the same span and one in the next span, if there is one
    _stages_on(monkeypatch, worker)
    cfg = ideal_xz_config(t_final=1.0)
    steps = {7: step, 2: min(step + 1, 99), 11: min(step + bayes._SPAN + 8, 99)}
    r_z, r_x = _failing_readouts(kind, steps, 100, 12)
    with pytest.raises(ReconstructionError, match=rf"at step {step}(:|$)"):
        reconstruct_batch(r_z, r_x, cfg.initial_state.as_array(), cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["nan", "saturated"])
@pytest.mark.parametrize("worker", [True, False])
@pytest.mark.parametrize("steps, named", [({0: 43, 2: 17}, 17), ({0: 43, 1: 57}, 43)])
def test_a_later_block_failing_first_does_not_name_the_error(monkeypatch, kind, worker,
                                                             steps, named):
    # 3 lanes of 100 steps run as 5 chunks of 20 steps, so block 0 holds
    # step 43 (chunk 2) and is normalised before block 1, which holds steps
    # 17 (chunk 0) and 57 (chunk 2)
    _stages_on(monkeypatch, worker)
    cfg = ideal_xz_config(t_final=1.0)
    r_z, r_x = _failing_readouts(kind, steps, 100, 3)
    with pytest.raises(ReconstructionError, match=rf"at step {named}(:|$)"):
        reconstruct_batch(r_z, r_x, cfg.initial_state.as_array(), cfg)


class _StageFailed(Exception):
    pass


@pytest.mark.parametrize("stage", ["_normalise", "_coefficients"])
def test_stage_error_on_the_worker_reaches_the_caller(monkeypatch, stage):
    # one started thread runs every stage; an error there is raised on the
    # calling thread, after the join
    real, threads = getattr(bayes, stage), []

    def fail_second_call(*args):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise _StageFailed
        return real(*args)

    monkeypatch.setattr(bayes, stage, fail_second_call)
    cfg = ideal_xz_config(t_final=1.0)
    r = np.zeros((cfg.n_steps, 64))  # the plain recursion
    before = threading.active_count()
    with pytest.raises(_StageFailed):
        reconstruct_batch(r, r, cfg.initial_state.as_array(), cfg)
    assert threads[0] is threads[1] is not threading.main_thread()
    assert not threads[0].is_alive()
    assert threading.active_count() == before
