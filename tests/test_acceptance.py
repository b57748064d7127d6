"""Release-gate suite: cross-backend agreement at stated tolerances.

Each test is one gate and prints a single PASS/FAIL line on the real stdout
(bypassing capture) so the gate status is visible in any pytest run.  The
gates cross-validate the four backends (Monte Carlo, closed-form conditional
averages, diffusion-kernel quadrature, tree-level perturbation theory), the
Bayesian reconstruction loop, and campaign determinism.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from xzmeas import analytic, cli
from xzmeas.analytic import (
    BoundaryCondition,
    correlator_cond,
    correlator_pre,
    subens_avg_state,
)
from xzmeas.bayes import reconstruct, reconstruct_batch
from xzmeas.core import (
    ChannelConfig,
    QubitEnvironment,
    SimConfig,
    polar_to_bloch,
)
from xzmeas.estimator import (
    SelectionCriterion,
    SubEnsemble,
    correlate,
    covariance,
    select,
    select_polar,
)
from xzmeas.fpe import KernelParams, transition_prob
from xzmeas.perturb import TreeParams, cov_tree, var_tree
from xzmeas.sde import polar_ensemble, polar_states, run_ensemble

from conftest import ideal_xz_config
from test_bayes import kraus_sampled_trajectory
from test_sde import drift_matrix

THETA_IN = math.pi / 4
THETA_F = 7 * math.pi / 8
TAU = 1.0


@pytest.fixture
def gate(capfd):
    """Report a gate verdict on the real stdout, then enforce it."""

    def _gate(label, ok):
        with capfd.disabled():
            print(f"[gate] {label}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok, f"gate failed: {label}"

    return _gate


def _polar_sub(count, t_total, times, seed, window=0.05):
    """Post-selected sub-ensemble of exact polar trajectories."""
    crit = SelectionCriterion(THETA_IN, t_total, THETA_F, window)
    return select_polar(crit, TAU, times, count, seed=seed)


def test_exact_backends_agree(gate):
    # the direct winding sum of the path integral vs its Poisson resummation,
    # the diffusion kernel's Fourier-mode series, each forced at every
    # horizon: every sign pair on a 5x5 time grid, three horizons
    signs = np.array([(s1, s2) for s1 in (1, -1) for s2 in (1, -1)], dtype=float)
    start = time.perf_counter()
    worst = 0.0
    for t_total in (TAU, 3.5 * TAU, 10 * TAU):
        bc = BoundaryCondition(THETA_IN, TAU, THETA_F, t_total)
        grid = np.linspace(0.1 * t_total, 0.9 * t_total, 5)
        times = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        a = analytic._source_average(signs, times, bc, resummed=False)
        b = analytic._source_average(signs, times, bc, resummed=True)
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - start
    gate("exact backends agree (1e-10, <1s)", worst <= 1e-10 and elapsed < 1.0)


def test_postselected_correlators_match_mc(gate):
    # 1e6 exact polar trajectories, post-selected, against the closed forms
    t_total = 3.5
    t2 = 1.75
    t1_grid = np.linspace(0.175, 3.325, 20)
    times = np.unique(np.concatenate([[0.0, t2, t_total], t1_grid]))
    sub = _polar_sub(1_000_000, t_total, times, seed=11)
    bc = BoundaryCondition(THETA_IN, TAU, THETA_F, t_total)
    ok = sub.accepted_count > 1000
    for kind in ("zz", "zx"):
        for t1 in t1_grid:
            val, se = correlate(sub, kind[0], kind[1], float(t1), t2)
            ref = correlator_cond(kind, float(t1), t2, bc)
            ok = ok and abs(val - ref) <= 3 * se
    gate("post-selected correlators vs MC (3 SE, 20-pt grid)", ok)


def test_bridge_state_pins_boundaries_and_decoheres(gate):
    t_total = 10.0
    bc = BoundaryCondition(THETA_IN, TAU, THETA_F, t_total)
    q0 = subens_avg_state(0.0, bc)
    qT = subens_avg_state(t_total, bc)
    pinned = np.array_equal(
        q0.as_array(), polar_to_bloch(THETA_IN).as_array()
    ) and np.array_equal(qT.as_array(), polar_to_bloch(THETA_F).as_array())
    mid = subens_avg_state(t_total / 2, bc)
    decohered = np.linalg.norm(mid.as_array()) < 0.1

    times = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
    sub = _polar_sub(1_000_000, t_total, times, seed=13)
    mc_ok = True
    for t in (2.5, 5.0, 7.5):
        ref = subens_avg_state(t, bc).as_array()
        i = int(np.argmin(np.abs(times - t)))
        for c in (0, 2):
            samples = sub.states[:, i, c]
            se = samples.std(ddof=1) / math.sqrt(len(samples))
            mc_ok = mc_ok and abs(samples.mean() - ref[c]) <= 3 * se
    gate("bridge state pins boundaries, decoheres mid-path",
          pinned and decohered and mc_ok)


def test_preselected_closed_forms(gate):
    t_grid = np.linspace(0.0, 4.0, 9)
    th = polar_ensemble(THETA_IN, TAU, t_grid, 200_000, seed=17)
    sub = SubEnsemble(
        times=t_grid, states=polar_states(th),
        accepted_count=200_000, total_count=200_000,
    )
    ok = True
    for t in t_grid[1:]:
        val, se = correlate(sub, "z", "z", float(t), float(t))
        ok = ok and abs(val - 0.5) <= 3 * se
        val, se = correlate(sub, "z", "x", float(t), 2.0)
        ref = correlator_pre("zx", float(t), 2.0, THETA_IN, TAU)
        ok = ok and abs(val - ref) <= 3 * se
    gate("pre-selected closed forms vs MC (3 SE)", ok)


def test_postselection_rates_match_kernel_integral(gate):
    kp = KernelParams.from_tau(TAU)
    window = 0.05
    count = 1_000_000
    rates = []
    ok = True
    for seed, t_total in ((19, 1.0), (23, 3.5), (29, 10.0)):
        times = np.array([t_total])
        crit = SelectionCriterion(THETA_IN, t_total, THETA_F, window)
        # forward sampling and select, not select_polar, whose accepted count
        # is a binomial draw with the very probability it would be checked by
        th = polar_ensemble(THETA_IN, TAU, times, count, seed=seed)
        rate = select(SubEnsemble(times, polar_states(th), count, count), crit).acceptance_rate
        grid = np.linspace(THETA_F - window, THETA_F + window, 401)
        dens = transition_prob(grid, t_total, THETA_IN, 0.0, kp)
        expected = float(np.trapezoid(dens, grid))
        se = math.sqrt(expected * (1 - expected) / count)
        ok = ok and abs(rate - expected) <= 3 * se
        rates.append(rate)
    ok = ok and rates[0] < rates[1] < rates[2]
    for rate, quoted in zip(rates, (0.0012, 0.0030, 0.0034)):
        ok = ok and 0.1 * quoted <= rate <= 10 * quoted
    gate("post-selection rates vs kernel integral (3 binomial SE)", ok)


def _xz_cartesian_snapshots(eta, count, snap_times, seed_offset, dt=0.01,
                            t_final=4.0, slab=20_000):
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, 1.0, eta), ChannelConfig(math.pi / 2, 1.0, eta)),
        dt=dt,
        t_final=t_final,
        initial_state=polar_to_bloch(THETA_IN),
        environment=QubitEnvironment(),
        rng_seed=0,
    )
    idx = np.rint(np.asarray(snap_times) / dt).astype(int)
    parts = []
    for lo in range(0, count, slab):
        n = min(slab, count - lo)
        ens = run_ensemble(cfg, n, keep_readouts=False,
                           stream_offset=seed_offset + lo)
        parts.append(ens.states[:, idx, :].copy())
    return np.concatenate(parts)


def test_tree_level_matches_low_efficiency_mc(gate):
    # equal-time covariance and variance curves against the tree-level
    # expressions.  Tree level truncates at first order in eta, so away from
    # small times the residual is a genuine O(eta^2) term that exceeds the
    # Monte Carlo standard error at 1e5 trajectories (it persists as dt -> 0);
    # the gate is 5% relative at the covariance peak, a 3 SE + 8*eta*|tree|
    # truncation allowance elsewhere, and a first-order convergence witness:
    # halving eta (at the best-resolved point) shrinks the relative residual
    # by at least 25%.
    t_grid = np.linspace(0.0, 4.0, 9)
    ok = True
    rel_residual = {}
    for eta, offset in ((0.05, 0), (0.025, 700_000)):
        p = TreeParams(gamma_x=1.0, gamma_z=1.0, eta_x=eta, eta_z=eta,
                       x_in=math.sin(THETA_IN), z_in=math.cos(THETA_IN))
        states = _xz_cartesian_snapshots(eta, 100_000, t_grid,
                                         seed_offset=offset)
        sub = SubEnsemble(times=t_grid, states=states,
                          accepted_count=len(states), total_count=len(states))
        tree = cov_tree("zx", t_grid, t_grid, p)
        peak = int(np.argmax(np.abs(tree)))
        for j, t in enumerate(t_grid):
            mc, se = covariance(sub, "z", "x", float(t), float(t))
            tol = 3 * se + 8 * eta * abs(tree[j])
            if j == peak:
                tol = 0.05 * abs(tree[j])
            ok = ok and abs(mc - tree[j]) <= max(tol, 1e-15)
            mc, se = covariance(sub, "z", "z", float(t), float(t))
            vt = var_tree("z", float(t), p)
            ok = ok and abs(mc - vt) <= max(3 * se + 8 * eta * vt, 1e-15)
        mc, _ = covariance(sub, "z", "z", 2.0, 2.0)
        rel_residual[eta] = (mc - var_tree("z", 2.0, p)) / var_tree("z", 2.0, p)
    first_order = (
        abs(rel_residual[0.05]) > 0.02
        and abs(rel_residual[0.025]) <= 0.75 * abs(rel_residual[0.05])
    )

    # at eta = 0.5 the tree-level curve visibly deviates while two
    # independent MC halves stay mutually consistent
    p5 = TreeParams(gamma_x=1.0, gamma_z=1.0, eta_x=0.5, eta_z=0.5,
                    x_in=math.sin(THETA_IN), z_in=math.cos(THETA_IN))
    half_a = _xz_cartesian_snapshots(0.5, 20_000, t_grid, seed_offset=200_000)
    half_b = _xz_cartesian_snapshots(0.5, 20_000, t_grid, seed_offset=220_000)
    sub_a = SubEnsemble(t_grid, half_a, len(half_a), len(half_a))
    sub_b = SubEnsemble(t_grid, half_b, len(half_b), len(half_b))
    tree5 = cov_tree("zx", t_grid, t_grid, p5)
    peak5 = int(np.argmax(np.abs(tree5)))
    tp = float(t_grid[peak5])
    ca, sa = covariance(sub_a, "z", "x", tp, tp)
    cb, sb = covariance(sub_b, "z", "x", tp, tp)
    deviates = abs(0.5 * (ca + cb) - tree5[peak5]) > 0.2 * abs(tree5[peak5])
    consistent = abs(ca - cb) <= 3 * math.hypot(sa, sb)
    gate("tree level vs MC (5% at peak, first-order residual elsewhere; "
          "breaks at eta=0.5)",
          ok and first_order and deviates and consistent)


def test_mean_decay_matches_lindblad(gate):
    ok = True
    for phi in (0.0, math.pi / 4, math.pi / 2):
        cfg = SimConfig(
            channels=(ChannelConfig(0.0, 0.4, 0.7), ChannelConfig(phi, 0.3, 0.6)),
            dt=0.002,
            t_final=2.0,
            initial_state=polar_to_bloch(0.9),
            environment=QubitEnvironment(),
            rng_seed=0,
        )
        ens = run_ensemble(cfg, 10_000, keep_readouts=False)
        a = drift_matrix(cfg)
        for t in (0.5, 1.0, 2.0):
            i = int(round(t / cfg.dt))
            exact = expm(a * t) @ cfg.initial_state.as_array()
            samples = ens.states[:, i, :]
            se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
            ok = ok and bool(
                np.all(np.abs(samples.mean(axis=0) - exact) <= 3 * se + 2 * cfg.dt)
            )
        # decoherence time scales: closed-form eigenvalues of the xz block
        gz, gp = 0.4, 0.3
        root = math.sqrt(gp**2 + gz**2 + 2 * gp * gz * math.cos(2 * phi))
        lam_plus, lam_minus = (root - gz - gp) / 2, (-root - gz - gp) / 2
        block = np.array([[a[0, 0], a[0, 2]], [a[2, 0], a[2, 2]]])
        lams = np.sort(np.linalg.eigvals(block).real)
        ok = ok and abs(lams[1] - lam_plus) <= 1e-12
        ok = ok and abs(lams[0] - lam_minus) <= 1e-12
    gate("ensemble mean matches Lindblad exponentials (3 SE)", ok)


def test_state_reconstruction_closes_loop(gate):
    cfg = ideal_xz_config(gamma=0.5, dt=0.01, t_final=5.0, seed=77)
    states, record = kraus_sampled_trajectory(cfg, seed=77)
    rec = reconstruct(record, cfg.initial_state, cfg)
    dev = np.abs(rec.states - states).max()
    gate("Bayesian loop closure (<= 5 dt/tau)",
          dev <= 5 * cfg.dt / cfg.channels[0].tau)


def test_reconstructed_and_direct_covariances_agree(gate):
    # experimental-scale run (times in microseconds)
    gamma = 1 / 1.3
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, gamma, 0.54),
                  ChannelConfig(math.pi / 2, gamma, 0.41)),
        dt=0.004,
        t_final=2.0,
        initial_state=polar_to_bloch(THETA_IN),
        environment=QubitEnvironment(
            rabi_detuning=2 * math.pi * 0.012,
            depolarization_rate=(1 / 60 + 1 / 30) / 2,
        ),
        rng_seed=0,
    )
    t_grid = np.linspace(0.0, 2.0, 11)
    t2 = 1.0
    idx = np.rint(t_grid / cfg.dt).astype(int)
    q_in = cfg.initial_state.as_array()
    sde_parts, bayes_parts = [], []
    for lo in range(0, 200_000, 20_000):
        ens = run_ensemble(cfg, 20_000, keep_readouts=True, stream_offset=lo)
        sde_parts.append(ens.states[:, idx, :].copy())
        rec = reconstruct_batch(ens.r_z.T, ens.r_phi.T, q_in, cfg)
        bayes_parts.append(rec.transpose(1, 0, 2)[:, idx, :].copy())
    sde_sub = SubEnsemble(t_grid, np.concatenate(sde_parts), 200_000, 200_000)
    bay_sub = SubEnsemble(t_grid, np.concatenate(bayes_parts), 200_000, 200_000)
    ok = True
    mc_curve = np.empty_like(t_grid)
    for j, t1 in enumerate(t_grid):
        c1, s1 = covariance(sde_sub, "z", "x", float(t1), t2)
        c2, s2 = covariance(bay_sub, "z", "x", float(t1), t2)
        mc_curve[j] = c1
        ok = ok and abs(c1 - c2) <= max(3 * math.hypot(s1, s2), 1e-15)
        v1, sv1 = covariance(sde_sub, "z", "z", float(t1), float(t1))
        v2, sv2 = covariance(bay_sub, "z", "z", float(t1), float(t1))
        ok = ok and abs(v1 - v2) <= max(3 * math.hypot(sv1, sv2), 1e-15)

    # tree-level curve: same sign at the MC peak, peak within 20% of horizon
    p = TreeParams(gamma_x=gamma, gamma_z=gamma, eta_x=0.41, eta_z=0.54,
                   x_in=math.sin(THETA_IN), z_in=math.cos(THETA_IN))
    tree = cov_tree("zx", t_grid, t2, p)
    peak_mc = int(np.argmax(np.abs(mc_curve)))
    peak_tree = int(np.argmax(np.abs(tree)))
    qualitative = (
        math.copysign(1, tree[peak_mc]) == math.copysign(1, mc_curve[peak_mc])
        and abs(t_grid[peak_tree] - t_grid[peak_mc]) <= 0.2 * cfg.t_final
    )
    gate("reconstructed vs direct covariances, experimental scale (3 SE)",
          ok and qualitative)


def test_campaign_rerun_is_byte_identical(gate, tmp_path):
    def config(out):
        return {
            "schema_version": 1,
            "mode": "simulate",
            "output_dir": str(out),
            "seed": 5,
            "count": 400,
            "sim": {
                "channels": [
                    {"axis_angle": 0.0, "gamma": 0.5, "eta": 1.0},
                    {"axis_angle": math.pi / 2, "gamma": 0.5, "eta": 1.0},
                ],
                "dt": 0.02,
                "t_final": 1.0,
                "initial_theta": THETA_IN,
            },
            "t1_grid": [0.2, 0.6, 1.0],
            "t2": 0.4,
        }

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfgp = tmp_path / f"{name}.json"
        cfgp.write_text(json.dumps(config(out), indent=2) + "\n")
        assert cli.run(cfgp) == cli.EXIT_OK
        outs.append(out)
    csvs_a = sorted(f.name for f in outs[0].glob("*.csv"))
    csvs_b = sorted(f.name for f in outs[1].glob("*.csv"))
    identical = csvs_a == csvs_b and len(csvs_a) > 0 and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in csvs_a
    )
    gate("campaign rerun is byte-identical", identical)
