"""Experimental-scale run: direct SDE ensemble vs Bayesian replay.

Simulates 2e4 trajectories at transmon-like parameters (times in
microseconds), reconstructs each trajectory from its own readout record with
the Bayesian filter, and compares the covariance curves from the two routes
against the tree-level prediction.  Writes demos/out/experimental/
covariances.csv.
"""

import math
import pathlib

import numpy as np

from xzmeas.bayes import reconstruct_batch
from xzmeas.core import ChannelConfig, QubitEnvironment, SimConfig, polar_to_bloch, write_table
from xzmeas.estimator import SubEnsemble, covariance
from xzmeas.perturb import TreeParams, cov_tree
from xzmeas.sde import run_ensemble

THETA_IN = math.pi / 4
OUT = pathlib.Path(__file__).parent / "out" / "experimental"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    gamma = 1 / 1.3
    cfg = SimConfig(
        channels=(
            ChannelConfig(0.0, gamma, 0.54),
            ChannelConfig(math.pi / 2, gamma, 0.41),
        ),
        dt=0.004,
        t_final=2.0,
        initial_state=polar_to_bloch(THETA_IN),
        environment=QubitEnvironment(
            rabi_detuning=2 * math.pi * 0.012,
            depolarization_rate=(1 / 60 + 1 / 30) / 2,
        ),
        rng_seed=0,
    )
    count = 20_000
    t_grid = np.linspace(0.0, 2.0, 11)
    t2 = 1.0
    idx = np.rint(t_grid / cfg.dt).astype(int)

    ens = run_ensemble(cfg, count, keep_readouts=True)
    rec = reconstruct_batch(ens.r_z.T, ens.r_phi.T,
                            cfg.initial_state.as_array(), cfg)
    sde_sub = SubEnsemble(t_grid, ens.states[:, idx, :], count, count)
    bay_sub = SubEnsemble(t_grid, rec.transpose(1, 0, 2)[:, idx, :],
                          count, count)
    p = TreeParams(gamma_x=gamma, gamma_z=gamma, eta_x=0.41, eta_z=0.54,
                   x_in=math.sin(THETA_IN), z_in=math.cos(THETA_IN))

    cov_sde = covariance(sde_sub, "z", "x", t_grid, t2)
    cov_bay = covariance(bay_sub, "z", "x", t_grid, t2)
    tree = cov_tree("zx", t_grid, t2, p)
    rows = list(zip(*(v.tolist() for v in (t_grid, *cov_sde, *cov_bay, tree))))
    write_table(OUT / "covariances.csv",
                "t1,cov_zx_sde,se_sde,cov_zx_bayes,se_bayes,cov_zx_tree", rows)

    print(f"{'t1 (us)':>8} {'sde':>10} {'bayes':>10} {'tree':>10}")
    for t1, c_sde, _, c_bay, _, tree in rows:
        print(f"{t1:8.2f} {c_sde:10.4f} {c_bay:10.4f} {tree:10.4f}")
    print(f"wrote {OUT}/covariances.csv")


if __name__ == "__main__":
    main()
