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
from .bayes import ReconstructionError, read_readout_records, readout_header, reconstruct
from .core import (
    DomainError, SimConfig, column_rows, open_rewrite, polar_to_bloch, require_memory, write_table,
)
from .estimator import (
    SelectionCriterion,
    SelectionError,
    correlate,
    covariance,
    select,
    select_polar,
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


def _count(cfg: dict, key: str = "count", *default) -> int:
    """Field ``key``: a positive integer below 2**63 (an integral float such
    as 1e6 included), never a bool; ``default`` stands in for a missing
    field.  Larger counts overflowed numpy's C longs."""
    count = cfg.get(key, *default) if default else _require(cfg, key)
    if (isinstance(count, bool) or not isinstance(count, (int, float))
            or not 1 <= count < 2**63 or not float(count).is_integer()):
        raise ConfigError(f"{key} must be a positive integer below 2**63, got {count!r}")
    return int(count)


def _path(cfg: dict, key: str) -> str:
    """Field ``key``: a file path, as a non-empty string.  An integer would
    be opened as a file descriptor, and read and closed."""
    path = _require(cfg, key)
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{key} must be a non-empty path string, got {path!r}")
    return path


def _seed(value, name: str) -> int:
    """A seed: an integer in [0, 2**64), the range of a Philox key word;
    never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return value


def _number(cfg: dict, key: str, *default) -> float | None:
    """Field ``key``: an int or a float, never a bool; ``default`` stands in
    for a missing field, and a default of None lets the field be null.
    Ranges and finiteness are the domain types' to check."""
    value = cfg.get(key, *default) if default else _require(cfg, key)
    if value is None and default == (None,):
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _grid(cfg: dict, key: str) -> np.ndarray:
    """Field ``key``: a 1-D grid, a list or ``{"start", "stop", "num"}``; a
    ``num`` whose grid exceeds physical memory is refused before it is built."""
    spec = _require(cfg, key)
    try:
        if isinstance(spec, dict):
            require_memory(8.0 * spec["num"], f"{key} num {spec['num']!r}")
            grid = np.linspace(spec["start"], spec["stop"], spec["num"])
        else:
            grid = np.asarray(spec, dtype=float)
    except KeyError as exc:
        raise ConfigError(f"grid {key} missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid {key}={spec!r}: {exc}") from None
    if grid.ndim != 1:
        raise ConfigError(f"{key} must be a 1-D grid, got {spec!r}")
    return grid


def _kinds(cfg: dict, default=("zz", "zx", "xx")) -> list[str]:
    """The ``kinds`` field: a list of two-letter names such as "zx"; the
    letters are the estimators' and closed forms' to check."""
    kinds = cfg.get("kinds", default)
    if not isinstance(kinds, (list, tuple)) or not all(
            isinstance(k, str) and len(k) == 2 for k in kinds):
        raise ConfigError(f"kinds must be a list of two-letter names, got {kinds!r}")
    return list(kinds)


def _curve(cfg: dict) -> tuple[np.ndarray, float]:
    """The ``t1_grid`` and ``t2`` fields."""
    return _grid(cfg, "t1_grid"), _number(cfg, "t2")


def _boundary(cfg: dict, optional=("theta_f", "t_total")) -> BoundaryCondition:
    """The BoundaryCondition of theta_in, tau_m, theta_f and t_total; a field
    in ``optional`` may be missing."""
    fields = ("theta_in", "tau_m", "theta_f", "t_total")
    return BoundaryCondition(
        *(_number(cfg, k, None) if k in optional else _number(cfg, k) for k in fields)
    )


def _campaign_seed(cfg: dict, flag) -> int:
    """The seed that runs: ``--seed``, else the config's ``seed``, else a
    ``sim.rng_seed``, else 0."""
    if flag is not None:
        return _seed(flag, "seed")
    if "seed" in cfg:
        return _seed(cfg["seed"], "seed")
    sim = cfg.get("sim")
    if isinstance(sim, dict) and "rng_seed" in sim:
        return _seed(sim["rng_seed"], "sim.rng_seed")
    return 0


def _sim_config(cfg: dict, seed: int) -> SimConfig:
    """The ``sim`` block under the campaign seed; a ``rng_seed`` in it is
    checked like any seed, and runs only where it is the campaign seed (see
    ``_campaign_seed``)."""
    spec = _require(cfg, "sim")
    try:
        _seed(spec.get("rng_seed", 0), "sim.rng_seed")
        return SimConfig.from_dict({**spec, "rng_seed": seed})
    except KeyError as exc:
        raise ConfigError(f"missing config field {exc}") from None
    except (TypeError, AttributeError, DomainError) as exc:
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
# modes: each takes (cfg, out, seed) and returns (outputs, gate_ok)
# ---------------------------------------------------------------------------

def _exact_correlator(kind: str, t1: np.ndarray, t2: float, bc: BoundaryCondition) -> np.ndarray:
    """Closed-form correlator on the whole t1 grid, one call per kind."""
    if bc.post_selected:
        return correlator_cond(kind, t1, t2, bc)
    return correlator_pre(kind, t1, t2, bc.theta_in, bc.tau_m)


def _mode_analytic(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    bc = _boundary(cfg)
    t1, t2 = _curve(cfg)
    points = _count(cfg, "state_points", 101)
    require_memory(32.0 * points, f"state_points {points}")  # times and states
    rows = []
    for kind in _kinds(cfg):
        values = _exact_correlator(kind, t1, t2, bc)
        rows += [(t, t2, kind, v, 0.0, 0, 0) for t, v in zip(t1.tolist(), values.tolist())]
    csv = out / "analytic_correlators.csv"
    write_correlator_csv(csv, rows)
    outputs = [csv.name, "fig1b.gp"]
    if bc.post_selected:
        path = out / "analytic_state.csv"
        ts = np.linspace(0.0, bc.t_total, points)
        states = zip(ts.tolist(), subens_avg_state(ts, bc).tolist())
        write_table(path, "t,x,z,norm", ((t, x, z, math.hypot(x, z)) for t, (x, _, z) in states))
        _write_plot_script(out / "fig1a.gp", "sub-ensemble average state", path.name,
                           ["1:2", "1:3", "1:4"])
        outputs += [path.name, "fig1a.gp"]
    _write_plot_script(out / "fig1b.gp", "conditional correlators", csv.name, ["1:4"])
    return outputs, True


def _mode_fpe(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    bc = _boundary(cfg, optional=())
    times = _grid(cfg, "times").tolist()
    points = _count(cfg, "theta_points", 181)
    require_memory(8.0 * points * (len(times) + 1), f"theta_points {points} at {len(times)} times")
    thetas = np.linspace(0.0, 2 * math.pi, points)
    kp = KernelParams.from_tau(bc.tau_m)
    dens = [two_sided_density(thetas, t, bc, kp).tolist() for t in times]
    path = out / "fpe_density.csv"
    write_table(path, ",".join(["theta", *(f"t={t!r}" for t in times)]),
                zip(thetas.tolist(), *dens))
    cols = [f"1:{i + 2}" for i in range(len(times))]
    _write_plot_script(out / "fig3.gp", "two-sided density snapshots", path.name, cols)
    return [path.name, "fig3.gp"], True


def _mode_perturb(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    rates = [_number(cfg, k) for k in ("gamma_x", "gamma_z", "eta_x", "eta_z")]
    theta_in = _number(cfg, "theta_in")
    if not math.isfinite(theta_in):  # TreeParams sees only its sine and cosine
        raise ConfigError(f"theta_in must be finite, got {theta_in}")
    p = TreeParams(*rates, x_in=math.sin(theta_in), z_in=math.cos(theta_in))
    t1, t2 = _curve(cfg)
    for key, t in (("t1_grid", t1), ("t2", np.array([t2]))):
        bad = t[~((t >= 0) & (t < math.inf))]  # NaN included
        if bad.size:
            raise DomainError(f"{key} must be finite and >= 0, got {bad[0]}")
    ts = t1.tolist()
    rows = []
    for kind in _kinds(cfg):
        rows += [(t, t2, f"cov_{kind}", v, 0.0, 0, 0)
                 for t, v in zip(ts, cov_tree(kind, t1, t2, p).tolist())]
    for c in ("x", "z"):
        for t, v, m in zip(ts, var_tree(c, t1, p).tolist(), mean_tree(c, t1, p).tolist()):
            rows += [(t, t, f"var_{c}", v, 0.0, 0, 0), (t, t, f"mean_{c}", m, 0.0, 0, 0)]
    csv = out / "perturb_correlators.csv"
    write_correlator_csv(csv, rows)
    _write_plot_script(out / "fig2.gp", "tree-level covariances", csv.name, ["1:4"])
    return [csv.name, "fig2.gp"], True


def _mode_compare(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    """Cross-validate ideal-XZ polar Monte Carlo, sampled exactly on the
    needed grid, against the analytic backend."""
    bc = _boundary(cfg, optional=("theta_f",))
    t1, t2 = _curve(cfg)
    kinds = _kinds(cfg, ("zz", "zx"))
    n_sigma = _number(cfg, "n_sigma", 3.0)
    crit = SelectionCriterion(bc.theta_in, bc.t_total, bc.theta_f,
                              _number(cfg, "angular_window", 0.05))
    times = np.unique(np.concatenate([t1, [t2, bc.t_total]]))
    sub = select_polar(crit, bc.tau_m, times, _count(cfg), seed)
    n = (sub.accepted_count, sub.total_count)
    rows = []
    ok = True
    for kind in kinds:
        ref = _exact_correlator(kind, t1, t2, bc)
        mc, se = correlate(sub, kind[0], kind[1], t1, t2)
        if np.any(np.abs(mc - ref) > n_sigma * se):
            ok = False
        for t, m, s, r in zip(t1.tolist(), mc.tolist(), se.tolist(), ref.tolist()):
            rows += [(t, t2, f"mc_{kind}", m, s, *n), (t, t2, f"analytic_{kind}", r, 0.0, 0, 0)]
    csv = out / "compare.csv"
    write_correlator_csv(csv, rows)
    return [csv.name], ok


def _mode_simulate(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    sim = _sim_config(cfg, seed)
    t1, t2 = _curve(cfg)
    kinds = _kinds(cfg)
    count = _count(cfg)
    sel = cfg.get("selection")
    default = {"theta_in": 0.0, "t_total": sim.t_final}
    try:
        crit = SelectionCriterion(**(default if sel is None else sel))
    except TypeError as exc:
        raise ConfigError(f"invalid selection: {exc}") from None
    save = bool(cfg.get("save_ensemble", False))
    ens = run_ensemble(sim, count, keep_readouts=save)
    outputs = []
    if save:
        path = out / "ensemble.npz"
        save_ensemble(path, ens)
        outputs.append(path.name)
    sub = select(ens, crit)
    n = (sub.accepted_count, sub.total_count)
    rows = []
    ts = t1.tolist()
    for kind in kinds:
        curves = (*correlate(sub, kind[0], kind[1], t1, t2),
                  *covariance(sub, kind[0], kind[1], t1, t2))
        for t, m, s, c, cs in zip(ts, *(v.tolist() for v in curves)):
            rows += [(t, t2, kind, m, s, *n), (t, t2, f"cov_{kind}", c, cs, *n)]
    for c in ("x", "z"):
        var, se = covariance(sub, c, c, t1, t1)
        rows += [(t, t, f"var_{c}", v, s, *n) for t, v, s in zip(ts, var.tolist(), se.tolist())]
    csv = out / "mc_correlators.csv"
    write_correlator_csv(csv, rows)
    _write_plot_script(out / "fig4.gp", "Monte Carlo covariances/variances", csv.name, ["1:4"])
    return outputs + [csv.name, "fig4.gp"], True


def _mode_reconstruct(cfg: dict, out: Path, seed: int) -> tuple[list[str], bool]:
    path = _path(cfg, "input")
    try:
        record, header = read_readout_records(path)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"readout file: {exc}") from None
    sim = _sim_config(cfg, seed)
    theta = _number(cfg, "initial_theta", None)
    # a field the header lacks is taken from the config alone
    for key, value in readout_header(sim).items():
        if header.get(key, value) != value:
            raise ConfigError(
                f"readout file {path}: header {key}={header[key]!r}, sim config {key}={value!r}"
            )
    if len(record.times) != sim.n_steps:
        raise ConfigError(f"readout file {path}: {len(record.times)} rows, but sim runs"
                          f" {sim.n_steps} steps (t_final / dt)")
    kdt = sim.dt * np.arange(len(record.times))
    off = np.flatnonzero(np.abs(record.times - kdt) > 1e-9 * np.maximum(1.0, kdt))
    if off.size:
        raise ConfigError(f"readout file {path}: time {record.times[off[0]]} at step {off[0]}"
                          f" is not step * dt = {kdt[off[0]]}")
    traj = reconstruct(record, sim.initial_state if theta is None else polar_to_bloch(theta), sim)
    path = out / "reconstructed_trajectory.csv"
    write_table(path, "t,x,y,z", column_rows(traj.times, traj.states))
    return [path.name], True


_MODES = {"analytic": _mode_analytic, "fpe": _mode_fpe, "perturb": _mode_perturb,
          "compare": _mode_compare, "simulate": _mode_simulate, "reconstruct": _mode_reconstruct}


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
        effective_seed = _campaign_seed(cfg, seed)
        out = Path(output or cfg.get("output_dir", "."))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # an existing file at the path (FileExistsError) or on it
            # (NotADirectoryError), or no permission
            raise ConfigError(f"output directory {str(out)!r}: {exc.strerror}") from None
        if not isinstance(mode, str) or mode not in _MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        outputs, gate_ok = _MODES[mode](cfg, out, effective_seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"config error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        # past an address-space cap, below the physical memory require_memory checks
        print(f"config error: mode {cfg.get('mode')!r} ran out of memory", file=sys.stderr)
        return EXIT_CONFIG

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
