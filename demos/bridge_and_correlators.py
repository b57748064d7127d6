"""Sub-ensemble averages and post-selected correlators, desk scale.

Computes the pre/post-selected bridge state for three horizons and the
two-time correlators at T = 3.5 tau_m from the closed forms, then overlays a
post-selected Monte Carlo estimate (2e5 exact polar trajectories).  Writes
CSVs into demos/out/bridge/.
"""

import math
import pathlib

import numpy as np

from xzmeas.analytic import BoundaryCondition, correlator_cond, subens_avg_state
from xzmeas.core import write_table
from xzmeas.estimator import SelectionCriterion, correlate, select_polar

THETA_IN = math.pi / 4
THETA_F = 7 * math.pi / 8
TAU = 1.0
OUT = pathlib.Path(__file__).parent / "out" / "bridge"


def bridge_curves():
    rows = []
    for t_total in (1.0, 3.5, 10.0):
        bc = BoundaryCondition(THETA_IN, TAU, THETA_F, t_total)
        ts = np.linspace(0.0, t_total, 101)
        q = subens_avg_state(ts, bc)
        rows += [(t_total, t, x, z) for t, (x, _, z) in zip(ts.tolist(), q.tolist())]
    return rows


def mc_correlators(t_total=3.5, t2=1.75, count=200_000, window=0.05, seed=2):
    t1_grid = np.linspace(0.175, 3.325, 19)
    times = np.unique(np.concatenate([[0.0, t2, t_total], t1_grid]))
    crit = SelectionCriterion(THETA_IN, t_total, THETA_F, window)
    sub = select_polar(crit, TAU, times, count, seed=seed)
    bc = BoundaryCondition(THETA_IN, TAU, THETA_F, t_total)
    rows = []
    kinds = ("zz", "zx", "xx")
    for kind, exact in zip(kinds, correlator_cond(kinds, t1_grid, t2, bc)):
        mc, se = correlate(sub, kind[0], kind[1], t1_grid, t2)
        curves = (t1_grid, exact, mc, se)
        rows += [(kind, *r) for r in zip(*(v.tolist() for v in curves))]
    return sub.acceptance_rate, rows


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    write_table(OUT / "bridge_state.csv", "t_total,t,x,z", bridge_curves())
    rate, rows = mc_correlators()
    write_table(OUT / "correlators.csv", "kind,t1,exact,mc,std_error", rows)

    print(f"post-selection acceptance rate: {100 * rate:.2f}%")
    print(f"{'kind':<5} {'t1':>6} {'exact':>10} {'mc':>10} {'se':>8}")
    for kind, t1, exact, mc, se in rows[::3]:
        print(f"{kind:<5} {t1:6.2f} {exact:10.4f} {mc:10.4f} {se:8.4f}")
    print(f"wrote {OUT}/bridge_state.csv and correlators.csv")


if __name__ == "__main__":
    main()
