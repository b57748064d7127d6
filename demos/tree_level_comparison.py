"""Tree-level covariances against Monte Carlo at low and high efficiency.

Equal-time Cov[z(t)x(t)] and Var[z(t)] curves for eta = 0.05 (where the
first-order expansion works well) and eta = 0.5 (where it visibly breaks),
each against a 2e4-trajectory Cartesian ensemble.  Writes
demos/out/tree/comparison.csv.
"""

import math
import pathlib

import numpy as np

from xzmeas.core import ChannelConfig, QubitEnvironment, SimConfig, polar_to_bloch, write_table
from xzmeas.estimator import SubEnsemble, covariance
from xzmeas.perturb import TreeParams, cov_tree, var_tree
from xzmeas.sde import run_ensemble

THETA_IN = math.pi / 4
OUT = pathlib.Path(__file__).parent / "out" / "tree"


def mc_snapshots(eta, count, t_grid, dt=0.01, stream_offset=0):
    cfg = SimConfig(
        channels=(
            ChannelConfig(0.0, 1.0, eta),
            ChannelConfig(math.pi / 2, 1.0, eta),
        ),
        dt=dt,
        t_final=float(t_grid[-1]),
        initial_state=polar_to_bloch(THETA_IN),
        environment=QubitEnvironment(),
        rng_seed=0,
    )
    ens = run_ensemble(cfg, count, keep_readouts=False, stream_offset=stream_offset)
    idx = np.rint(np.asarray(t_grid) / dt).astype(int)
    return SubEnsemble(np.asarray(t_grid, dtype=float), ens.states[:, idx, :],
                       count, count)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    t_grid = np.linspace(0.0, 4.0, 17)
    rows = []
    for eta in (0.05, 0.5):
        p = TreeParams(gamma_x=1.0, gamma_z=1.0, eta_x=eta, eta_z=eta,
                       x_in=math.sin(THETA_IN), z_in=math.cos(THETA_IN))
        sub = mc_snapshots(eta, 20_000, t_grid)
        ts = t_grid[1:]
        curves = (cov_tree("zx", ts, ts, p), *covariance(sub, "z", "x", ts, ts),
                  var_tree("z", ts, p), *covariance(sub, "z", "z", ts, ts))
        rows += [(eta, *r) for r in zip(ts.tolist(), *(v.tolist() for v in curves))]

    write_table(OUT / "comparison.csv", "eta,t,cov_zx_tree,cov_zx_mc,cov_zx_se,"
                "var_z_tree,var_z_mc,var_z_se", rows)

    print(f"{'eta':>5} {'t':>5} {'cov tree':>10} {'cov mc':>10} "
          f"{'var tree':>10} {'var mc':>10}")
    for eta, t, ct, cm, _, vt, vm, _ in rows[::4]:
        print(f"{eta:5.2f} {t:5.2f} {ct:10.4f} {cm:10.4f} {vt:10.4f} {vm:10.4f}")
    print(f"wrote {OUT}/comparison.csv")


if __name__ == "__main__":
    main()
