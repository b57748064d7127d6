import concurrent.futures
import dataclasses
import hashlib
import math
import os
import sys
import threading
import types
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
    def draw(gens, out):
        out[:] = 0.0
        out[:, 7, 1] = 1e3

    monkeypatch.setattr(sde, "_draw", draw)
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
    # each call equals a newly built generator under its own key, whatever
    # was drawn before
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
    # the machine's reported CPU count must not reach the output, with a
    # chunk wider than the ensemble, a last chunk of one member, and fewer
    # members than CPUs
    cfg = general_config(t_final=0.046, seed=11)
    digests = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        digests.add(_ensemble_digest(_run_with(monkeypatch, cfg, count, chunk=chunk)))
    assert len(digests) == 1


class _DrawFailed(Exception):
    pass


def _drawer() -> str:
    """Which thread draws: the calling thread or the noise worker."""
    return "caller" if threading.current_thread() is threading.main_thread() else "worker"


class _SplitDraws(ThreadPoolExecutor):
    """The noise worker's executor, made to split each slice's blocks with the
    calling thread in one way.  ``worker``: submit waits until the worker has
    drawn them all.  ``caller``: the worker starts only when the caller waits
    for it, once it has drawn them all itself.  ``alternate``: the two take
    turns, the worker first, each waiting after a block until the other has
    taken one or has none left; this needs ``turns`` as ``sde._draw``."""

    def __init__(self, split, max_workers):
        super().__init__(max_workers)
        self.split = split
        self.cond = threading.Condition()
        self.entered = {"caller": 0, "worker": 0}
        self.done = {"caller": False, "worker": False}

    def submit(self, fn, *args):
        if self.split == "caller":
            return types.SimpleNamespace(
                result=lambda: ThreadPoolExecutor.submit(self, fn, *args).result())
        if self.split == "worker":
            drawn = super().submit(fn, *args)
            concurrent.futures.wait([drawn])
            return drawn
        with self.cond:
            self.done.update(caller=False, worker=False)
            first = self.entered["worker"]

        def task(*args):
            try:
                fn(*args)
            finally:
                self.left("worker")

        drawn = super().submit(task, *args)
        with self.cond:
            assert self.cond.wait_for(
                lambda: self.entered["worker"] > first or self.done["worker"], 10)
        return types.SimpleNamespace(result=lambda: (self.left("caller"), drawn.result()))

    def left(self, who):
        with self.cond:
            self.done[who] = True
            self.cond.notify_all()

    def turns(self, draw):
        """``draw`` taking turns: between two blocks of one thread, the other
        takes one."""
        def take_turns(gens, out):
            me = _drawer()
            other = "worker" if me == "caller" else "caller"
            with self.cond:
                self.entered[me] += 1
                mark = self.entered[other]
                self.cond.notify_all()
            draw(gens, out)
            with self.cond:
                assert self.cond.wait_for(
                    lambda: self.entered[other] > mark or self.done[other], 10)
        return take_turns


def _force_split(monkeypatch, split):
    """Patch run_ensemble's executor to ``_SplitDraws(split)``; returns a list
    that collects (thread, block index within the chunk) per block drawn."""
    draws, executors = [], []

    def executor(max_workers):
        executors.append(_SplitDraws(split, max_workers))
        return executors[-1]

    draw = sde._draw

    def note(gens, out):
        block = (out.ctypes.data - out.base.ctypes.data) // out.base.strides[0]
        draws.append((_drawer(), block))
        (executors[-1].turns(draw) if split == "alternate" else draw)(gens, out)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", executor)
    monkeypatch.setattr(sde, "_draw", note)
    return draws


@pytest.mark.parametrize("chunk", [5120, 128])
@pytest.mark.parametrize("split", ["worker", "caller", "alternate"])
def test_ensemble_same_whichever_thread_draws_each_block(monkeypatch, split, chunk):
    # members 10..209 fill blocks 0..3 only in part, in one chunk or in two
    # (10..127 and 128..209); _SLICE + 3 steps are a full slice and a 3-step one
    cfg = general_config(t_final=(sde._SLICE + 3) * 0.002, seed=12)
    assert cfg.n_steps == sde._SLICE + 3
    ref = _run_with(monkeypatch, cfg, 200, chunk=chunk, stream_offset=10)
    draws = _force_split(monkeypatch, split)
    ens = _run_with(monkeypatch, cfg, 200, chunk=chunk, stream_offset=10)
    assert np.array_equal(ens.states, ref.states)
    assert np.array_equal(ens.r_z, ref.r_z)
    assert np.array_equal(ens.r_phi, ref.r_phi)
    assert len(draws) == 4 * 2  # four blocks, two slices
    if split == "alternate":
        assert all(who == ("worker", "caller")[block % 2] for who, block in draws)
    else:
        assert {who for who, _ in draws} == {split}


def test_noise_error_on_a_started_thread_reaches_the_caller(monkeypatch):
    # an error in a draw on the worker is raised on the calling thread, after
    # the join; the worker is made to draw every block
    cfg = ideal_xz_config(t_final=1.0)
    assert cfg.n_steps > sde._SLICE
    _force_split(monkeypatch, "worker")
    draw, threads = sde._draw, []
    before = threading.active_count()

    def fail_second_slice(gens, out):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise _DrawFailed
        draw(gens, out)

    monkeypatch.setattr(sde, "_draw", fail_second_slice)
    with pytest.raises(_DrawFailed):
        _run_with(monkeypatch, cfg, 10, chunk=5120)
    assert threads[0] is threads[1] is not threading.main_thread()
    assert not threads[0].is_alive()
    assert threading.active_count() == before


def test_noise_error_on_the_calling_thread_waits_for_the_worker(monkeypatch):
    # the caller's draw fails while the worker still holds a block of the
    # same slice; the error leaves run_ensemble only after the join
    cfg = ideal_xz_config(t_final=1.0)
    draw, threads, failed = sde._draw, [], threading.Event()
    before = threading.active_count()

    def fail_on_the_caller(gens, out):
        threads.append(threading.current_thread())
        if _drawer() == "caller":
            failed.set()
            raise _DrawFailed
        assert failed.wait(10)
        draw(gens, out)

    monkeypatch.setattr(sde, "_draw", fail_on_the_caller)
    with pytest.raises(_DrawFailed):
        _run_with(monkeypatch, cfg, 130, chunk=5120)
    workers = {t for t in threads if t is not threading.main_thread()}
    assert threading.main_thread() in threads
    assert len(workers) == 1 and not workers.pop().is_alive()
    assert threading.active_count() == before


def test_integrator_error_stops_the_noise_thread(monkeypatch):
    # a blow-up in the first slice, while the worker has the next ones to
    # draw; the draws end at the next slice, and no thread outlives the call
    cfg = ideal_xz_config(t_final=2.0)
    draw, threads = sde._draw, []
    before = threading.active_count()

    def blow_up_at_step_7(gens, out):
        threads.append(threading.current_thread())
        draw(gens, out)
        if len(threads) == 1:
            out[:, 7, 1] = 1e3

    monkeypatch.setattr(sde, "_draw", blow_up_at_step_7)
    with pytest.raises(IntegratorError, match=r"step 7 \(streams 0\.\.9\)"):
        _run_with(monkeypatch, cfg, 10, chunk=5120)
    # run_ensemble has joined the worker before the error leaves it
    assert len(threads) <= 2
    assert not any(t.is_alive() for t in threads if t is not threading.main_thread())
    assert threading.active_count() == before


def test_stream_ids_past_2_pow_64_rejected_before_drawing(monkeypatch):
    cfg = ideal_xz_config(t_final=0.1, seed=2)
    ok = _run_with(monkeypatch, cfg, 6, chunk=5120, stream_offset=2**64 - 6)
    assert ok.stream_ids.tolist() == list(range(2**64 - 6, 2**64))

    def no_draws(gens, out):
        raise AssertionError("drew noise")

    monkeypatch.setattr(sde, "_draw", no_draws)
    for offset, count in ((2**64 - 6, 7), (2**64, 1), (-1, 3)):
        with pytest.raises(OverflowError):
            _run_with(monkeypatch, cfg, count, chunk=5120, stream_offset=offset)


def _run_with(monkeypatch, cfg, count, chunk, **kw):
    """run_ensemble with the chunk width replaced."""
    monkeypatch.setattr(sde, "_CHUNK", chunk)
    return run_ensemble(cfg, count, **kw)


def test_ensemble_deterministic_across_workers_and_chunks(monkeypatch):
    # each call shares its draws with a worker of its own, which has ended
    # when it returns; the bytes do not depend on the chunk width
    cfg = ideal_xz_config(t_final=0.2, seed=9)
    draw, workers = sde._draw, set()

    def draw_and_note(gens, out):
        if _drawer() == "worker":
            workers.add(threading.current_thread())
        draw(gens, out)

    monkeypatch.setattr(sde, "_draw", draw_and_note)
    e1 = _run_with(monkeypatch, cfg, 64, chunk=16)
    first = set(workers)
    e2 = _run_with(monkeypatch, cfg, 64, chunk=64)
    assert np.array_equal(e1.states, e2.states)
    assert np.array_equal(e1.r_z, e2.r_z)
    assert np.array_equal(e1.r_phi, e2.r_phi)
    assert len(first) <= 1 and len(workers - first) <= 1
    assert not any(w.is_alive() for w in workers)


def test_ensemble_members_match_single_trajectories():
    cfg = ideal_xz_config(t_final=0.1, seed=3)
    ens = run_ensemble(cfg, 5)
    for sid in range(5):
        one = run_ensemble(cfg, 1, stream_offset=sid)
        assert np.array_equal(ens.states[sid], one.states[0])
        assert np.array_equal(ens.r_z[sid], one.r_z[0])
        assert np.array_equal(ens.r_phi[sid], one.r_phi[0])


def _block_draws(seed, block, n):
    """Block ``block``'s draws, from a new generator in one call."""
    return sde._block_generator(seed, block).standard_normal((n, 2, sde._BLOCK_IDS))


def test_block_draws_independent_of_slice_length(monkeypatch):
    # member s is column s % 64 of its block's (n, 2, 64) draws, however many
    # steps a slice holds, including slices that do not divide n
    cfg = general_config(t_final=0.062, seed=6)
    n = cfg.n_steps
    blocks = [_block_draws(6, b, n) for b in (0, 1)]
    for width in (1, 5, 7, 64, 1000):
        gens = [sde._block_generator(6, b) for b in (0, 1)]
        out = np.empty((2, n, 2, sde._BLOCK_IDS))
        for k0 in range(0, n, width):
            sde._draw(gens, out[:, k0:k0 + width])
        assert np.array_equal(out, np.stack(blocks))
    ref = _run_with(monkeypatch, cfg, 70, chunk=5120)
    for width in (1, 7, 1000):
        monkeypatch.setattr(sde, "_SLICE", width)
        ens = _run_with(monkeypatch, cfg, 70, chunk=5120)
        assert _ensemble_digest(ens) == _ensemble_digest(ref)
    for s in (0, 63, 64, 69):
        xi = blocks[s // 64][:, :, s % 64][:, :, None]
        states, readouts = kernel_run(cfg, cfg.initial_state.as_array()[:, None], xi)
        assert np.array_equal(ref.states[s], states[:, :, 0])
        assert np.array_equal(ref.r_z[s], readouts[:, 0, 0])
        assert np.array_equal(ref.r_phi[s], readouts[:, 1, 0])


@pytest.mark.parametrize("chunk, width", [(5120, 1), (5120, 2), (64, 2), (7, 1), (3, 3)])
def test_member_same_in_every_ensemble(monkeypatch, chunk, width):
    # offsets and counts that start and end inside a block, span several
    # blocks, or hold one member, stepped through noise slices of ``width``
    # steps, so that each chunk reuses its two buffers many times
    cfg = general_config(t_final=0.03, seed=13)
    full = _run_with(monkeypatch, cfg, 200, chunk=5120)
    monkeypatch.setattr(sde, "_SLICE", width)
    for offset, count in ((0, 200), (5, 3), (60, 10), (63, 66), (64, 64), (130, 70), (199, 1)):
        ens = _run_with(monkeypatch, cfg, count, chunk=chunk, stream_offset=offset)
        assert np.array_equal(ens.states, full.states[offset:offset + count])
        assert np.array_equal(ens.r_z, full.r_z[offset:offset + count])
        assert np.array_equal(ens.r_phi, full.r_phi[offset:offset + count])


def test_block_draws_differ_from_noise_streams():
    # a block and a trajectory under the same key words draw in disjoint
    # counter domains
    for seed, block in ((0, 0), (3, 1), (2**64 - 1, 2**58 - 1)):
        draws = _block_draws(seed, block, 8)
        stream = noise_stream(seed, block, 8 * sde._BLOCK_IDS)
        assert not np.isin(draws, stream).any()
        assert not np.isin(draws[:, :, 0], noise_stream(seed, block, 8)).any()


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
    # a trajectory steps on Python floats, a 3-wide batch fed the same
    # noise streams on numpy rows; every state and readout agrees bit for bit
    # over thousands of steps
    n = cfg.n_steps
    assert n >= 2000
    xi = np.stack([noise_stream(cfg.rng_seed, 40 + j, n) for j in range(3)], axis=2)
    states, readouts = kernel_run(cfg, np.repeat(cfg.initial_state.as_array()[:, None], 3, axis=1), xi)
    for j in range(3):
        traj, rec = simulate_trajectory(cfg, stream_id=40 + j)
        assert np.array_equal(traj.states, states[:, :, j])
        assert np.array_equal(rec.r_z, readouts[:, 0, j])
        assert np.array_equal(rec.r_phi, readouts[:, 1, j])
    if cfg.channels[0].eta == 1.0:
        # at eta = 1 the path is projected back on to the sphere many times
        norms = np.linalg.norm(states[1:], axis=1)
        assert (np.abs(norms - 1.0) <= 1e-15).sum(axis=0).min() > 10


def test_ensemble_bit_identical_across_chunk_widths(monkeypatch):
    # odd widths and a step count off the slice length; the ideal channels
    # exercise the norm projection, the general ones every coefficient.  Chunks
    # wider than the ensemble, a last chunk of one member (65 in chunks of 32)
    # and a two-member ensemble equal the leading members of the reference.
    # The worker starts on each slice's draws while the caller steps the one
    # before, and the caller draws what is left, switching threads often, so
    # a block stepped before it is drawn, or a buffer drawn into before its
    # slice is stepped, shows as a mismatch
    interval = sys.getswitchinterval()
    for cfg in (ideal_xz_config(t_final=0.23, seed=4), general_config(t_final=0.046, seed=4)):
        ref = _run_with(monkeypatch, cfg, 67, chunk=67)
        for count, chunk in ((67, 1), (67, 3), (67, 7), (67, 33), (67, 5000), (65, 32), (2, 5000)):
            sys.setswitchinterval(1e-5)
            try:
                ens = _run_with(monkeypatch, cfg, count, chunk=chunk)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(ens.states, ref.states[:count])
            assert np.array_equal(ens.r_z, ref.r_z[:count])
            assert np.array_equal(ens.r_phi, ref.r_phi[:count])
        for sid in (0, 5, 66):
            one = run_ensemble(cfg, 1, stream_offset=sid)
            assert np.array_equal(one.states[0], ref.states[sid])
            assert np.array_equal(one.r_z[0], ref.r_z[sid])
            assert np.array_equal(one.r_phi[0], ref.r_phi[sid])


def test_ensemble_stream_offset_slabs_match_full_run(monkeypatch):
    cfg = ideal_xz_config(t_final=0.2, seed=9)
    full = _run_with(monkeypatch, cfg, 64, chunk=17)
    lo = _run_with(monkeypatch, cfg, 32, chunk=9)
    hi = _run_with(monkeypatch, cfg, 32, chunk=9, stream_offset=32)
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
    ens = _run_with(monkeypatch, ideal_xz_config(t_final=0.2, seed=4), count, chunk=chunk)
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
