import dataclasses
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from xzmeas.core import (
    NORM_TOL,
    ChannelConfig,
    QubitEnvironment,
    SimConfig,
    polar_to_bloch,
)
from xzmeas import sde
from xzmeas.sde import (
    IntegratorError,
    load_ensemble,
    noise_stream,
    polar_bridge,
    polar_ensemble,
    polar_states,
    run_ensemble,
    save_ensemble,
    simulate_trajectory,
)

from conftest import ideal_xz_config, kernel_run


def drift_matrix(cfg):
    """Linear generator of the ensemble-mean evolution."""
    cz, cp = cfg.channels
    gz, gp, phi = cz.gamma, cp.gamma, cp.axis_angle
    gamma = cfg.environment.depolarization_rate
    omega = cfg.environment.rabi_detuning
    s2 = 0.5 * gp * math.sin(2 * phi)
    return np.array(
        [
            [-(gz + gp * math.cos(phi) ** 2) - gamma, 0.0, s2 + omega],
            [0.0, -(gz + gp), 0.0],
            [s2 - omega, 0.0, -gp * math.sin(phi) ** 2 - gamma],
        ]
    )


def general_config(dt=0.002, t_final=1.0, seed=0):
    """Unequal, non-ideal channels at a general angle, with an environment."""
    return SimConfig(
        channels=(ChannelConfig(0.0, 0.4, 0.8), ChannelConfig(0.7, 0.3, 0.6)),
        dt=dt,
        t_final=t_final,
        initial_state=polar_to_bloch(0.9),
        environment=QubitEnvironment(0.3, 0.05),
        rng_seed=seed,
    )


def test_drift_matches_linear_generator(rng):
    # with zero draws one kernel step is the Euler step of the linear drift
    for cfg in (ideal_xz_config(), general_config()):
        a = drift_matrix(cfg)
        q = rng.uniform(-0.5, 0.5, (3, 20))
        states, _ = kernel_run(cfg, q, np.zeros((1, 2, 20)))
        assert np.allclose((states[1] - q) / cfg.dt, a @ q, atol=1e-14)


def test_noise_free_evolution_matches_matrix_exponential():
    # all draws zero: Euler integration of the linear drift, O(dt) global error
    cfg = general_config()
    q0 = cfg.initial_state.as_array()[:, None]
    states, _ = kernel_run(cfg, q0, np.zeros((cfg.n_steps, 2, 1)))
    q = states[-1, :, 0]
    exact = expm(drift_matrix(cfg) * cfg.t_final) @ cfg.initial_state.as_array()
    assert np.allclose(q, exact, atol=5 * cfg.dt)

    # halving dt halves the error (first-order convergence)
    cfg2 = dataclasses.replace(cfg, dt=cfg.dt / 2)
    states2, _ = kernel_run(cfg2, q0, np.zeros((cfg2.n_steps, 2, 1)))
    q2 = states2[-1, :, 0]
    err1 = np.linalg.norm(q - exact)
    err2 = np.linalg.norm(q2 - exact)
    assert err2 < 0.7 * err1


def test_fused_step_matches_euler_maruyama_from_generator(rng):
    # independent route: q + A q dt + sum_c g_c(q) sqrt(dt) xi_c with the
    # diffusion vectors g_c = (n_c - (n_c.q) q)/sqrt(tau_c) built here
    cfg = general_config(dt=0.004)
    a = drift_matrix(cfg)
    m = 500
    q = rng.normal(size=(3, m))
    q *= rng.uniform(0, 0.8, m) / np.linalg.norm(q, axis=0)
    xi = rng.standard_normal((1, 2, m))
    states, readouts = kernel_run(cfg, q, xi)
    expect = q + (a @ q) * cfg.dt
    for c, ch in enumerate(cfg.channels):
        n_c = np.array([math.sin(ch.axis_angle), 0.0, math.cos(ch.axis_angle)])
        m_c = n_c @ q
        g_c = (n_c[:, None] - m_c * q) / math.sqrt(ch.tau)
        expect += g_c * math.sqrt(cfg.dt) * xi[0, c]
        r_c = m_c + math.sqrt(ch.tau / cfg.dt) * xi[0, c]
        assert np.abs(readouts[0, c] - r_c).max() <= 1e-13
    assert np.linalg.norm(expect, axis=0).max() < 1.0  # no projection involved
    assert np.abs(states[1] - expect).max() <= 1e-13


def test_purity_never_exceeds_tolerance(rng):
    # random mixed states, random draws: accepted steps keep norm <= 1 + tol
    cfg = ideal_xz_config(gamma=0.5, dt=0.04, t_final=0.04)
    n = 200_000
    v = rng.normal(size=(n, 3))
    v *= (rng.uniform(0, 1, n) ** (1 / 3) / np.linalg.norm(v, axis=1))[:, None]
    states, _ = kernel_run(cfg, v.T, rng.standard_normal((1, 2, n)))
    norms = np.linalg.norm(states[1], axis=0)
    assert norms.max() <= 1.0 + NORM_TOL


def test_renormalize_rejects_blowups(monkeypatch):
    # a draw far outside the overshoot window at step 7 raises, naming the
    # step, whether the batch steps on floats (width 1) or on rows (width 3)
    cfg = ideal_xz_config(t_final=0.1)
    for width in (1, 3):
        xi = np.zeros((cfg.n_steps, 2, width))
        xi[7, 1, 0] = 1e3
        with pytest.raises(IntegratorError, match="step 7"):
            kernel_run(cfg, np.repeat(cfg.initial_state.as_array()[:, None], width, axis=1), xi)
    # through run_ensemble the error also names the chunk's stream range
    monkeypatch.setattr(sde, "noise_stream", lambda seed, sid, n: xi[:, :, 0])
    with pytest.raises(IntegratorError, match=r"step 7 \(streams 3\.\.5\)"):
        run_ensemble(cfg, 3, stream_offset=3)
    with pytest.raises(IntegratorError, match=r"step 7 \(streams 3\.\.3\)"):
        run_ensemble(cfg, 1, stream_offset=3)


def test_nan_draw_raises_integrator_error():
    cfg = ideal_xz_config(t_final=0.1)
    for width, member in ((3, 1), (1, 0)):
        xi = np.zeros((cfg.n_steps, 2, width))
        xi[4, 0, member] = np.nan
        with pytest.raises(IntegratorError, match="step 4"):
            kernel_run(cfg, np.repeat(cfg.initial_state.as_array()[:, None], width, axis=1), xi)


def test_y_decoupled_for_xz_measurement():
    cfg = ideal_xz_config(t_final=1.0, seed=5)
    traj, _ = simulate_trajectory(cfg)
    assert np.all(traj.states[:, 1] == 0.0)


def test_readout_mean_and_variance(rng):
    cfg = ideal_xz_config()
    cz, cp = cfg.channels
    q = np.repeat(polar_to_bloch(0.7).as_array()[:, None], 100, axis=1)
    draws = rng.standard_normal(20_000)
    xi = np.zeros((1, 2, 100))
    xi[0, 0] = draws[:100]
    _, readouts = kernel_run(cfg, q, xi)
    assert np.allclose(
        readouts[0, 0], math.cos(0.7) + math.sqrt(cz.tau / cfg.dt) * draws[:100], atol=1e-12
    )
    # x-type channel reads sin(theta)
    assert readouts[0, 1, 0] == pytest.approx(math.sin(0.7))
    # variance of the noise part is tau/dt
    full = math.cos(0.7) + math.sqrt(cz.tau / cfg.dt) * draws
    assert np.var(full) == pytest.approx(cz.tau / cfg.dt, rel=0.05)


def test_polar_step_is_brownian():
    # one exact step of the polar sampler: theta + sqrt(dt / tau_m) * draw
    th = polar_ensemble(0.3, 1.0, np.array([0.01]), 5, seed=4)
    draws = np.random.Generator(np.random.Philox(key=[4, 0])).standard_normal(5)
    assert th[:, 0] == pytest.approx(0.3 + draws * math.sqrt(0.01))


def test_noise_stream_deterministic_and_independent():
    a = noise_stream(42, 7, 100)
    b = noise_stream(42, 7, 100)
    c = noise_stream(42, 8, 100)
    assert a.shape == (100, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _fresh_stream(seed, sid, n):
    key = np.array([seed, sid], np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n, 2))


def test_noise_stream_equals_fresh_philox():
    # the thread's re-keyed generator forgets the previous key's counter and
    # buffer: each call equals a newly built generator under its own key
    for seed, sid, n in ((42, 7, 100), (5, 1, 33), (42, 7, 100), (0, 0, 1),
                         (2**64 - 1, 2**63 + 5, 17), (3, 2**64 - 1, 64)):
        assert np.array_equal(noise_stream(seed, sid, n), _fresh_stream(seed, sid, n))


def test_noise_stream_from_concurrent_threads():
    keys = [(seed, sid) for seed in (1, 2**40 + 3) for sid in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda key: noise_stream(*key, 129), keys))
    finally:
        sys.setswitchinterval(interval)
    for key, draws in zip(keys, got):
        assert np.array_equal(draws, _fresh_stream(*key, 129))


def test_seeds_above_2_pow_63_keep_their_own_streams():
    # a key list mixing a word >= 2**63 with a smaller one goes through
    # float64: 2**63 + 1 drew as 2**63, and 2**64 - 1 as seed 0
    for a, b in ((2**63, 2**63 + 1), (0, 2**64 - 1)):
        assert not np.array_equal(noise_stream(a, 0, 4), noise_stream(b, 0, 4))
        assert not np.array_equal(polar_ensemble(0.3, 1.0, [1.0], 4, seed=a),
                                  polar_ensemble(0.3, 1.0, [1.0], 4, seed=b))
        assert not np.array_equal(polar_bridge(0.3, 1.0, [0.5, 1.0], np.zeros(4), seed=a),
                                  polar_bridge(0.3, 1.0, [0.5, 1.0], np.zeros(4), seed=b))


def _ensemble_digest(ens):
    return hashlib.sha256(ens.states.tobytes() + ens.r_z.tobytes() + ens.r_phi.tobytes()).hexdigest()


@pytest.mark.parametrize("count, chunk", [(67, 5000), (65, 32), (2, 5000)])
def test_ensemble_digest_independent_of_cpu_count(monkeypatch, count, chunk):
    # uneven column ranges per thread, a last chunk of one member, and fewer
    # members than CPUs
    cfg = general_config(t_final=0.046, seed=11)
    digests = {_ensemble_digest(_run_with(monkeypatch, cfg, count, chunk=chunk, cpus=cpus))
               for cpus in (1, 2, 3)}
    assert len(digests) == 1


def test_noise_error_on_a_started_thread_reaches_the_caller(monkeypatch):
    # with two CPUs the second half of the columns is drawn on a started
    # thread, and there the stream ids pass 2**64
    cfg = ideal_xz_config(t_final=0.1)
    with pytest.raises(OverflowError):
        _run_with(monkeypatch, cfg, 10, chunk=5000, cpus=2, stream_offset=2**64 - 6)


def _run_with(monkeypatch, cfg, count, chunk, cpus, **kw):
    """run_ensemble with the chunk width and usable CPU count replaced."""
    monkeypatch.setattr(sde, "_CHUNK", chunk)
    monkeypatch.setattr(sde, "_usable_cpus", lambda: cpus)
    return run_ensemble(cfg, count, **kw)


def test_ensemble_deterministic_across_workers_and_chunks(monkeypatch):
    cfg = ideal_xz_config(t_final=0.2, seed=9)
    e1 = _run_with(monkeypatch, cfg, 64, chunk=16, cpus=1)
    e2 = _run_with(monkeypatch, cfg, 64, chunk=16, cpus=4)
    e3 = _run_with(monkeypatch, cfg, 64, chunk=64, cpus=2)
    assert np.array_equal(e1.states, e2.states)
    assert np.array_equal(e1.states, e3.states)
    assert np.array_equal(e1.r_z, e2.r_z)


def test_ensemble_members_match_single_trajectories():
    cfg = ideal_xz_config(t_final=0.1, seed=3)
    ens = run_ensemble(cfg, 5)
    for sid in range(5):
        traj, rec = simulate_trajectory(cfg, stream_id=sid)
        assert np.array_equal(ens.states[sid], traj.states)
        assert np.array_equal(ens.r_z[sid], rec.r_z)
        assert np.array_equal(ens.r_phi[sid], rec.r_phi)


def experimental_config(seed):
    """The 4000-step record of the benchmark's record replay: unequal
    efficiencies, Rabi detuning and depolarization at dt = 0.004."""
    gamma = 1 / 1.3
    return SimConfig(
        channels=(ChannelConfig(0.0, gamma, 0.54), ChannelConfig(math.pi / 2, gamma, 0.41)),
        dt=0.004,
        t_final=16.0,
        initial_state=polar_to_bloch(math.pi / 4),
        environment=QubitEnvironment(2 * math.pi * 0.012, (1 / 60 + 1 / 30) / 2),
        rng_seed=seed,
    )


@pytest.mark.parametrize("cfg", [experimental_config(seed=5),
                                 ideal_xz_config(t_final=20.0, seed=8)],
                         ids=["experimental", "ideal"])
def test_long_float_path_equals_row_path(cfg):
    # a trajectory steps on Python floats, a 3-wide ensemble on numpy rows;
    # every state and readout agrees bit for bit over thousands of steps
    ens = run_ensemble(cfg, 3, stream_offset=40)
    assert cfg.n_steps >= 2000
    for j in range(3):
        traj, rec = simulate_trajectory(cfg, stream_id=40 + j)
        assert np.array_equal(traj.states, ens.states[j])
        assert np.array_equal(rec.r_z, ens.r_z[j])
        assert np.array_equal(rec.r_phi, ens.r_phi[j])
    if cfg.channels[0].eta == 1.0:
        # at eta = 1 the path is projected back on to the sphere many times
        norms = np.linalg.norm(ens.states[:, 1:], axis=2)
        assert (np.abs(norms - 1.0) <= 1e-15).sum(axis=1).min() > 10


def test_ensemble_bit_identical_across_chunk_widths(monkeypatch):
    # odd widths and a step count off the kernel's block size; the ideal
    # channels exercise the norm projection, the general ones every coefficient.
    # Each chunk's noise is drawn into disjoint columns from more threads than
    # cores, switching often, so a range written to the wrong columns shows as
    # a mismatch
    interval = sys.getswitchinterval()
    for cfg in (ideal_xz_config(t_final=0.23, seed=4), general_config(t_final=0.046, seed=4)):
        ref = _run_with(monkeypatch, cfg, 67, chunk=67, cpus=1)
        for chunk in (1, 3, 7, 33):
            sys.setswitchinterval(1e-5)
            try:
                ens = _run_with(monkeypatch, cfg, 67, chunk=chunk, cpus=4)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(ens.states, ref.states)
            assert np.array_equal(ens.r_z, ref.r_z)
            assert np.array_equal(ens.r_phi, ref.r_phi)
        for sid in (0, 5, 66):
            traj, rec = simulate_trajectory(cfg, stream_id=sid)
            assert np.array_equal(traj.states, ref.states[sid])
            assert np.array_equal(rec.r_z, ref.r_z[sid])
            assert np.array_equal(rec.r_phi, ref.r_phi[sid])


def test_ensemble_stream_offset_slabs_match_full_run(monkeypatch):
    cfg = ideal_xz_config(t_final=0.2, seed=9)
    full = _run_with(monkeypatch, cfg, 64, chunk=17, cpus=2)
    lo = _run_with(monkeypatch, cfg, 32, chunk=9, cpus=2)
    hi = _run_with(monkeypatch, cfg, 32, chunk=9, cpus=2, stream_offset=32)
    assert np.array_equal(full.states, np.concatenate([lo.states, hi.states]))
    assert np.array_equal(full.r_z, np.concatenate([lo.r_z, hi.r_z]))
    assert np.array_equal(hi.stream_ids, np.arange(32, 64))


def test_save_load_roundtrip_bit_exact(tmp_path):
    cfg = ideal_xz_config(t_final=0.1, seed=21)
    ens = run_ensemble(cfg, 10)
    path = tmp_path / "ens.npz"
    save_ensemble(path, ens)
    back = load_ensemble(path)
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.times, ens.times)
    assert np.array_equal(back.r_z, ens.r_z)
    assert np.array_equal(back.r_phi, ens.r_phi)
    assert np.array_equal(back.stream_ids, ens.stream_ids)
    assert back.config == ens.config


@pytest.mark.parametrize("count, chunk", [(1, 5000), (22, 7)])
def test_saved_views_equal_saved_contiguous_copies(tmp_path, monkeypatch, count, chunk):
    # run_ensemble hands out transposed views of its (time, coordinate,
    # member) blocks; they must be saved in C order, byte for byte as C
    # copies, never with fortran_order.  22 members in chunks of 7 end on a
    # chunk of one.
    ens = _run_with(monkeypatch, ideal_xz_config(t_final=0.2, seed=4), count, chunk=chunk, cpus=2)
    copies = dataclasses.replace(
        ens, **{k: np.ascontiguousarray(getattr(ens, k)) for k in ("states", "r_z", "r_phi")})
    save_ensemble(tmp_path / "views.npz", ens)
    save_ensemble(tmp_path / "copies.npz", copies)
    assert (tmp_path / "views.npz").read_bytes() == (tmp_path / "copies.npz").read_bytes()
    assert not ens.r_z.flags.c_contiguous  # the views are what was saved


def test_polar_ensemble_statistics():
    times = np.array([0.5, 1.0, 2.0])
    th = polar_ensemble(0.3, 1.0, times, 200_000, seed=11)
    assert th.shape == (200_000, 3)
    # exact Brownian motion: mean theta_in, variance t/tau
    for j, t in enumerate(times):
        assert th[:, j].mean() == pytest.approx(0.3, abs=3 * math.sqrt(t / 200_000))
        assert th[:, j].var() == pytest.approx(t, rel=0.02)
    # increments independent of the past
    inc = th[:, 2] - th[:, 1]
    assert abs(np.corrcoef(inc, th[:, 1] - 0.3)[0, 1]) < 0.01


def test_polar_ensemble_time_zero_draws_nothing():
    times = np.array([0.0, 0.5, 1.25])
    th = polar_ensemble(0.3, 1.0, times, 1000, seed=6)
    assert np.all(th[:, 0] == 0.3)
    assert np.array_equal(th[:, 1:], polar_ensemble(0.3, 1.0, times[1:], 1000, seed=6))


def test_polar_bridge_pins_both_ends():
    times = np.array([0.0, 0.4, 1.1, 2.0])
    end = np.array([0.3, -5.0, 0.3 + 4 * math.pi, 1e-3])
    th = polar_bridge(0.3, 1.0, times, end, seed=6)
    assert th.shape == (4, 4)
    assert np.all(th[:, 0] == 0.3)
    assert np.array_equal(th[:, -1], end)
    # without a sample at t = 0 the path still leaves theta_in; a single
    # time draws nothing and returns the end angles
    no_zero = polar_bridge(0.3, 1.0, times[1:], end, seed=6)
    assert np.array_equal(no_zero, th[:, 1:])
    assert np.array_equal(polar_bridge(0.3, 1.0, times[-1:], end), end[:, None])


def test_polar_bridge_statistics():
    # bridge from 0.3 at t = 0 to 1.8 at T = 2 with tau_m = 0.5: theta(t) has
    # mean theta_in + (t/T)(theta_T - theta_in), and covariance
    # s (T - t) / (T tau_m) for s <= t
    n, tau, t_end, th_in, th_end = 200_000, 0.5, 2.0, 0.3, 1.8
    times = np.array([0.5, 1.0, 1.6, t_end])
    th = polar_bridge(th_in, tau, times, np.full(n, th_end), seed=12)
    cov = np.minimum.outer(times, times) * (t_end - np.maximum.outer(times, times)) / (t_end * tau)
    for j, t in enumerate(times[:-1]):
        mean = th_in + t / t_end * (th_end - th_in)
        var = cov[j, j]
        assert abs(th[:, j].mean() - mean) <= 4 * math.sqrt(var / n)
        assert abs(th[:, j].var(ddof=1) - var) <= 4 * var * math.sqrt(2 / (n - 1))
    d0, d2 = th[:, 0] - th[:, 0].mean(), th[:, 2] - th[:, 2].mean()
    se = math.sqrt((cov[0, 0] * cov[2, 2] + cov[0, 2] ** 2) / n)
    assert abs(np.mean(d0 * d2) - cov[0, 2]) <= 4 * se


def test_polar_states_layout():
    th = np.array([[0.0, math.pi / 2]])
    st = polar_states(th)
    assert np.allclose(st[0, 0], [0, 0, 1])
    assert np.allclose(st[0, 1], [1, 0, 0], atol=1e-15)


def test_cartesian_matches_polar_correlators():
    # phi = pi/2, eta = 1, equal rates: both integrators sample the same law
    from xzmeas.estimator import SelectionCriterion, SubEnsemble, correlate, select

    # at eta = 1 the Euler path hugs the sphere from inside with an O(sqrt(dt))
    # radial offset, so dt must be small enough to put that bias below the
    # Monte Carlo noise floor at this trajectory count
    cfg = ideal_xz_config(gamma=0.5, dt=0.0005, t_final=1.0, theta_in=0.6, seed=17)
    ens = run_ensemble(cfg, 8_000, keep_readouts=False)
    crit = SelectionCriterion(theta_in=0.6, t_total=cfg.t_final)
    sub_c = select(ens, crit)

    grid = np.linspace(0.1, 1.0, 10)
    th = polar_ensemble(0.6, 1.0, grid, 8_000, seed=18)
    sub_p = SubEnsemble(
        times=grid, states=polar_states(th), accepted_count=8_000, total_count=8_000
    )
    for t in grid:
        for a, b in (("z", "z"), ("z", "x"), ("x", "x")):
            vc, sc = correlate(sub_c, a, b, float(t), float(grid[0]))
            vp, sp = correlate(sub_p, a, b, float(t), float(grid[0]))
            assert abs(vc - vp) <= 3 * math.hypot(sc, sp), (a, b, t)
