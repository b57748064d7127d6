import math

import numpy as np
import pytest

from xzmeas.core import (
    BlochState,
    ChannelConfig,
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
