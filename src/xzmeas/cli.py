"""Batch front-end: config-driven campaigns over the library backends.

Reads a JSON config (schema documented in the repo README), runs the
requested mode, and writes CSV tables, gnuplot-compatible plot scripts, and a
manifest sufficient to reproduce every output byte-for-byte.

Exit codes: 0 success, 2 cross-validation gate failure, 3 config or usage
error, 4 numerical error (an empty post-selected sub-ensemble included).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    BoundaryCondition,
    SeriesError,
    correlator_cond,
    correlator_pre,
    subens_avg_state,
)
from .bayes import ReconstructionError, read_readout_records, reconstruct
from .core import (
    BlochState,
    ChannelConfig,
    DomainError,
    QubitEnvironment,
    SimConfig,
    open_rewrite,
    polar_to_bloch,
)
from .estimator import (
    SelectionCriterion,
    SelectionError,
    SubEnsemble,
    correlate,
    covariance,
    select,
    select_polar,
    variance,
    write_correlator_csv,
)
from .fpe import ConditioningError, KernelParams, two_sided_density
from .perturb import TreeParams, cov_tree, mean_tree, var_tree
# polar_ensemble and polar_states stay in this namespace beside the other
# stages of a campaign, where profilers look the stages up by name
from .sde import IntegratorError, polar_ensemble, polar_states, run_ensemble, save_ensemble  # noqa: F401

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_GATE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (
    SeriesError, ConditioningError, ReconstructionError, IntegratorError, SelectionError
)


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field {key!r}")
    return cfg[key]


def _grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        try:
            return np.linspace(spec["start"], spec["stop"], spec["num"])
        except KeyError as exc:
            raise ConfigError(f"grid spec missing field {exc}") from None
    return np.asarray(spec, dtype=float)


def _sim_config(spec: dict, seed_override=None) -> SimConfig:
    try:
        channels = tuple(ChannelConfig(**c) for c in _require(spec, "channels"))
        env = QubitEnvironment(**spec.get("environment", {}))
        if "initial_theta" in spec:
            initial = polar_to_bloch(spec["initial_theta"])
        else:
            initial = BlochState(*spec.get("initial_state", (0.0, 0.0, 1.0)))
        seed = seed_override if seed_override is not None else spec.get("rng_seed", 0)
        return SimConfig(
            channels=channels,
            dt=_require(spec, "dt"),
            t_final=_require(spec, "t_final"),
            initial_state=initial,
            environment=env,
            rng_seed=seed,
        )
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"invalid sim config: {exc}") from None


def _write_plot_script(path: Path, title: str, csv_name: str, columns) -> None:
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key autotitle columnhead outside",
    ]
    plots = ", ".join(f"'{csv_name}' using {spec} with linespoints" for spec in columns)
    lines.append(f"plot {plots}")
    with open_rewrite(path) as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _exact_correlator(kind: str, t1: np.ndarray, t2: float, bc: BoundaryCondition) -> np.ndarray:
    """Closed-form correlator on the whole t1 grid, one call per kind."""
    if bc.post_selected:
        return correlator_cond(kind, t1, t2, bc)
    return correlator_pre(kind, t1, t2, bc.theta_in, bc.tau_m)


def _mode_analytic(cfg: dict, out: Path) -> list[str]:
    bc = BoundaryCondition(
        theta_in=_require(cfg, "theta_in"),
        tau_m=_require(cfg, "tau_m"),
        theta_f=cfg.get("theta_f"),
        t_total=cfg.get("t_total"),
    )
    outputs = []
    t1 = _grid(_require(cfg, "t1_grid"))
    t2 = float(_require(cfg, "t2"))
    rows = []
    for kind in cfg.get("kinds", ["zz", "zx", "xx"]):
        values = _exact_correlator(kind, t1, t2, bc)
        rows += [(float(t), t2, kind, v, 0.0, 0, 0) for t, v in zip(t1, values)]
    csv = out / "analytic_correlators.csv"
    write_correlator_csv(csv, rows)
    outputs.append(csv.name)
    if bc.post_selected:
        path = out / "analytic_state.csv"
        with open_rewrite(path) as fh:
            fh.write("t,x,z,norm\n")
            for t in np.linspace(0.0, bc.t_total, cfg.get("state_points", 101)):
                q = subens_avg_state(float(t), bc)
                fh.write(f"{float(t)!r},{q.x!r},{q.z!r},{math.hypot(q.x, q.z)!r}\n")
        outputs.append(path.name)
        gp = out / "fig1a.gp"
        _write_plot_script(gp, "sub-ensemble average state", path.name, ["1:2", "1:3", "1:4"])
        outputs.append(gp.name)
    gp = out / "fig1b.gp"
    _write_plot_script(gp, "conditional correlators", csv.name, ["1:4"])
    outputs.append(gp.name)
    return outputs


def _mode_fpe(cfg: dict, out: Path) -> list[str]:
    bc = BoundaryCondition(
        theta_in=_require(cfg, "theta_in"),
        tau_m=_require(cfg, "tau_m"),
        theta_f=_require(cfg, "theta_f"),
        t_total=_require(cfg, "t_total"),
    )
    kp = KernelParams.from_tau(bc.tau_m)
    thetas = np.linspace(0.0, 2 * math.pi, cfg.get("theta_points", 181))
    path = out / "fpe_density.csv"
    with open_rewrite(path) as fh:
        fh.write(
            "theta," + ",".join(f"t={float(t)!r}" for t in _require(cfg, "times")) + "\n"
        )
        dens = [two_sided_density(thetas, float(t), bc, kp) for t in cfg["times"]]
        for i, th in enumerate(thetas):
            fh.write(
                f"{float(th)!r}," + ",".join(f"{float(d[i])!r}" for d in dens) + "\n"
            )
    gp = out / "fig3.gp"
    cols = [f"1:{i + 2}" for i in range(len(cfg["times"]))]
    _write_plot_script(gp, "two-sided density snapshots", path.name, cols)
    return [path.name, gp.name]


def _mode_perturb(cfg: dict, out: Path) -> list[str]:
    theta_in = _require(cfg, "theta_in")
    p = TreeParams(
        gamma_x=_require(cfg, "gamma_x"),
        gamma_z=_require(cfg, "gamma_z"),
        eta_x=_require(cfg, "eta_x"),
        eta_z=_require(cfg, "eta_z"),
        x_in=math.sin(theta_in),
        z_in=math.cos(theta_in),
    )
    t1 = _grid(_require(cfg, "t1_grid"))
    t2 = float(_require(cfg, "t2"))
    rows = []
    for kind in cfg.get("kinds", ["zz", "zx", "xx"]):
        for t in t1:
            rows.append((float(t), t2, f"cov_{kind}", cov_tree(kind, float(t), t2, p), 0.0, 0, 0))
    for coord in ("x", "z"):
        for t in t1:
            rows.append((float(t), float(t), f"var_{coord}", var_tree(coord, float(t), p), 0.0, 0, 0))
            rows.append((float(t), float(t), f"mean_{coord}", mean_tree(coord, float(t), p), 0.0, 0, 0))
    csv = out / "perturb_correlators.csv"
    write_correlator_csv(csv, rows)
    gp = out / "fig2.gp"
    _write_plot_script(gp, "tree-level covariances", csv.name, ["1:4"])
    return [csv.name, gp.name]


def _mc_subensemble(cfg: dict, seed: int) -> SubEnsemble:
    """Ideal-XZ polar Monte Carlo sampled exactly on the needed grid."""
    tau_m = _require(cfg, "tau_m")
    t1 = _grid(_require(cfg, "t1_grid"))
    t2 = float(_require(cfg, "t2"))
    t_total = float(_require(cfg, "t_total"))
    times = np.unique(np.concatenate([t1, [t2, t_total]]))
    crit = SelectionCriterion(
        theta_in=_require(cfg, "theta_in"),
        t_total=t_total,
        theta_f=cfg.get("theta_f"),
        angular_window=cfg.get("angular_window", 0.05),
    )
    return select_polar(crit, tau_m, times, int(_require(cfg, "count")), seed)


def _mode_compare(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    """Cross-validate ideal-XZ Monte Carlo against the analytic backend."""
    bc = BoundaryCondition(
        theta_in=_require(cfg, "theta_in"),
        tau_m=_require(cfg, "tau_m"),
        theta_f=cfg.get("theta_f"),
        t_total=cfg.get("t_total"),
    )
    sub = _mc_subensemble(cfg, seed)
    t1 = _grid(cfg["t1_grid"])
    t2 = float(cfg["t2"])
    n_sigma = cfg.get("n_sigma", 3.0)
    rows = []
    ok = True
    for kind in cfg.get("kinds", ["zz", "zx"]):
        for t, ref in zip(t1, _exact_correlator(kind, t1, t2, bc)):
            mc, se = correlate(sub, kind[0], kind[1], float(t), t2)
            rows.append((float(t), t2, f"mc_{kind}", mc, se, sub.accepted_count, sub.total_count))
            rows.append((float(t), t2, f"analytic_{kind}", ref, 0.0, 0, 0))
            if abs(mc - ref) > n_sigma * se:
                ok = False
    csv = out / "compare.csv"
    write_correlator_csv(csv, rows)
    return [csv.name], ok


def _mode_simulate(cfg: dict, out: Path, seed: int) -> list[str]:
    sim = _sim_config(_require(cfg, "sim"), seed_override=seed)
    save = bool(cfg.get("save_ensemble", False))
    ens = run_ensemble(sim, int(_require(cfg, "count")), keep_readouts=save)
    outputs = []
    if save:
        path = out / "ensemble.npz"
        save_ensemble(path, ens)
        outputs.append(path.name)
    sel_spec = cfg.get("selection")
    if sel_spec is None:
        crit = SelectionCriterion(theta_in=0.0, t_total=sim.t_final)
    else:
        crit = SelectionCriterion(**sel_spec)
    sub = select(ens, crit)
    rows = []
    t1 = _grid(_require(cfg, "t1_grid"))
    t2 = float(_require(cfg, "t2"))
    for kind in cfg.get("kinds", ["zz", "zx", "xx"]):
        for t in t1:
            v, se = correlate(sub, kind[0], kind[1], float(t), t2)
            rows.append((float(t), t2, kind, v, se, sub.accepted_count, sub.total_count))
            cv, cse = covariance(sub, kind[0], kind[1], float(t), t2)
            rows.append((float(t), t2, f"cov_{kind}", cv, cse, sub.accepted_count, sub.total_count))
    for coord in ("x", "z"):
        for t in t1:
            v, se = variance(sub, coord, float(t))
            rows.append((float(t), float(t), f"var_{coord}", v, se, sub.accepted_count, sub.total_count))
    csv = out / "mc_correlators.csv"
    write_correlator_csv(csv, rows)
    outputs.append(csv.name)
    gp = out / "fig4.gp"
    _write_plot_script(gp, "Monte Carlo covariances/variances", csv.name, ["1:4"])
    outputs.append(gp.name)
    return outputs


def _mode_reconstruct(cfg: dict, out: Path, seed: int) -> list[str]:
    path = _require(cfg, "input")
    try:
        record, _params = read_readout_records(path)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"readout file: {exc}") from None
    sim = _sim_config(_require(cfg, "sim"), seed_override=seed)
    q_in = (
        polar_to_bloch(cfg["initial_theta"])
        if "initial_theta" in cfg
        else sim.initial_state
    )
    traj = reconstruct(record, q_in, sim)
    path = out / "reconstructed_trajectory.csv"
    with open_rewrite(path) as fh:
        fh.write("t,x,y,z\n")
        for t, (x, y, z) in zip(traj.times, traj.states):
            fh.write(f"{float(t)!r},{float(x)!r},{float(y)!r},{float(z)!r}\n")
    return [path.name]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(config_path, seed=None, output=None) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: {config_path}:{exc.lineno}: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if cfg.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
            )
        mode = _require(cfg, "mode")
        out = Path(output or cfg.get("output_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        effective_seed = seed if seed is not None else cfg.get("seed", 0)
        gate_ok = True
        if mode == "analytic":
            outputs = _mode_analytic(cfg, out)
        elif mode == "fpe":
            outputs = _mode_fpe(cfg, out)
        elif mode == "perturb":
            outputs = _mode_perturb(cfg, out)
        elif mode == "compare":
            outputs, gate_ok = _mode_compare(cfg, out, effective_seed)
        elif mode == "simulate":
            outputs = _mode_simulate(cfg, out, effective_seed)
        elif mode == "reconstruct":
            outputs = _mode_reconstruct(cfg, out, effective_seed)
        else:
            raise ConfigError(f"unknown mode {mode!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"config error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": cfg,
        "seed": effective_seed,
        "outputs": sorted(outputs),
        "gate_ok": gate_ok,
    }
    with open_rewrite(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if gate_ok else EXIT_GATE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmeas",
        description="Trajectory/correlator campaigns for two-axis continuous qubit measurement",
    )
    parser.add_argument("--config", required=True, help="path to JSON campaign config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output", default=None, help="override output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as a failed gate
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    return run(args.config, seed=args.seed, output=args.output)


if __name__ == "__main__":
    sys.exit(main())
