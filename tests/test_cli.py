import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xzmeas import cli
from xzmeas.analytic import BoundaryCondition, correlator_cond
from xzmeas.estimator import SelectionCriterion, correlate, read_correlator_csv, select_polar
from xzmeas.fpe import KernelParams, two_sided_density
from xzmeas.perturb import TreeParams, cov_tree, mean_tree, var_tree


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def analytic_config(out):
    return {
        "schema_version": 1,
        "mode": "analytic",
        "output_dir": str(out),
        "theta_in": math.pi / 4,
        "theta_f": 7 * math.pi / 8,
        "t_total": 3.5,
        "tau_m": 1.0,
        "t1_grid": {"start": 0.25, "stop": 3.25, "num": 5},
        "t2": 1.75,
        "state_points": 11,
    }


def test_mode_analytic_matches_library(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, analytic_config(out))
    assert cli.run(cfgp) == cli.EXIT_OK
    rows = read_correlator_csv(out / "analytic_correlators.csv")
    bc = BoundaryCondition(math.pi / 4, 1.0, 7 * math.pi / 8, 3.5)
    for t1, t2, kind, value, se, acc, tot in rows:
        assert value == pytest.approx(correlator_cond(kind, t1, t2, bc), abs=1e-12)
    assert (out / "fig1a.gp").exists()
    assert (out / "fig1b.gp").exists()
    assert (out / "analytic_state.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert "analytic_correlators.csv" in manifest["outputs"]


def test_mode_fpe(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "mode": "fpe",
            "output_dir": str(out),
            "theta_in": math.pi / 4,
            "theta_f": 7 * math.pi / 8,
            "t_total": 3.5,
            "tau_m": 1.0,
            "times": [0.5, 1.75, 3.0],
            "theta_points": 61,
        },
    )
    assert cli.run(cfgp) == cli.EXIT_OK
    text = (out / "fpe_density.csv").read_text().splitlines()
    assert text[0].startswith("theta,")
    assert len(text) == 62
    assert (out / "fig3.gp").exists()


def test_mode_perturb(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "mode": "perturb",
            "output_dir": str(out),
            "theta_in": math.pi / 4,
            "gamma_x": 1.0,
            "gamma_z": 1.0,
            "eta_x": 0.05,
            "eta_z": 0.05,
            "t1_grid": [0.5, 1.0, 2.0],
            "t2": 1.0,
        },
    )
    assert cli.run(cfgp) == cli.EXIT_OK
    kinds = {r[2] for r in read_correlator_csv(out / "perturb_correlators.csv")}
    assert {"cov_zz", "cov_zx", "cov_xx", "var_x", "var_z", "mean_x", "mean_z"} <= kinds


def compare_config(out, count=200_000, n_sigma=3.0):
    return {
        "schema_version": 1,
        "mode": "compare",
        "output_dir": str(out),
        "theta_in": math.pi / 4,
        "theta_f": 7 * math.pi / 8,
        "t_total": 3.5,
        "tau_m": 1.0,
        "angular_window": 0.3,
        "count": count,
        "t1_grid": [0.5, 1.5, 2.5],
        "t2": 1.75,
        "n_sigma": n_sigma,
        "seed": 5,
    }


def test_mode_compare_gate_passes(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, compare_config(out))
    assert cli.run(cfgp) == cli.EXIT_OK
    rows = read_correlator_csv(out / "compare.csv")
    assert any(r[2].startswith("mc_") for r in rows)
    assert any(r[2].startswith("analytic_") for r in rows)


def test_mode_compare_gate_fails_when_forced(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, compare_config(out, n_sigma=1e-4))
    assert cli.run(cfgp) == cli.EXIT_GATE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gate_ok"] is False


def test_compare_gate_fails_on_a_row_beyond_n_sigma(tmp_path):
    # a row fails when |mc - ref| > n_sigma * se, and each mc row is what a
    # call of correlate at its one (t1, t2) gives on the same sub-ensemble
    cfg = dict(compare_config(None, count=20_000), kinds=["zz", "zx", "xx"],
               t1_grid={"start": 0.25, "stop": 3.25, "num": 13})
    crit = SelectionCriterion(cfg["theta_in"], cfg["t_total"], cfg["theta_f"], 0.3)
    times = np.unique(np.r_[np.linspace(0.25, 3.25, 13), cfg["t2"], cfg["t_total"]])
    sub = select_polar(crit, cfg["tau_m"], times, cfg["count"], cfg["seed"])
    codes = set()
    for n_sigma in (0.5, 6.0):
        out = tmp_path / str(n_sigma)
        code = cli.run(write_config(tmp_path, dict(cfg, output_dir=str(out), n_sigma=n_sigma)))
        rows = read_correlator_csv(out / "compare.csv")
        ref = {(t1, kind.removeprefix("analytic_")): value
               for t1, _, kind, value, *_ in rows if kind.startswith("analytic_")}
        fails = []
        for t1, t2, kind, value, se, *_ in rows:
            if kind.startswith("mc_"):
                assert (value, se) == correlate(sub, kind[3], kind[4], t1, t2)
                fails.append(abs(value - ref[(t1, kind[3:])]) > n_sigma * se)
        assert len(fails) == 39
        assert code == (cli.EXIT_GATE if any(fails) else cli.EXIT_OK)
        codes.add(code)
    assert codes == {cli.EXIT_OK, cli.EXIT_GATE}


def test_mode_compare_empty_selection_is_numerical_error(tmp_path, capsys):
    # a 0.001 window at T = 0.2 accepts none of 100 trajectories
    cfg = compare_config(tmp_path / "out", count=100)
    cfg.update(angular_window=0.001, t_total=0.2, t1_grid=[0.05, 0.1], t2=0.15)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_NUMERICAL
    assert "numerical error [SelectionError]" in capsys.readouterr().err


def test_fpe_nan_theta_in_exits_config(tmp_path, capsys):
    # json reads the literal NaN; unchecked, it gave an all-NaN table and exit 0
    out = tmp_path / "out"
    cfg = {"schema_version": 1, "mode": "fpe", "output_dir": str(out),
           "theta_in": math.nan, "theta_f": 7 * math.pi / 8, "t_total": 3.5,
           "tau_m": 1.0, "times": [0.5, 1.75, 3.0]}
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert not (out / "fpe_density.csv").exists()
    assert "angles must be finite" in capsys.readouterr().err


def test_compare_nan_theta_f_exits_config(tmp_path, capsys):
    # unchecked, a NaN theta_f accepted no member and read as a numerical error
    cfg = dict(compare_config(tmp_path / "out", count=100), theta_f=math.nan)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert "angles must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode, where, field", [
    ("perturb", "", "theta_in"), ("perturb", "", "gamma_x"),
    ("analytic", "", "tau_m"), ("analytic", "", "t_total"),
    ("compare", "", "t_total"),  # with theta_f null, as t_total is the horizon
    ("simulate", "sim", "dt"), ("simulate", "sim", "t_final"),
    ("simulate", "sim.channels.1", "gamma"), ("simulate", "sim.channels.1", "axis_angle"),
    ("simulate", "sim.environment", "depolarization_rate"),
    ("simulate", "sim.environment", "rabi_detuning"),
])
def test_nan_field_exits_config(tmp_path, capsys, mode, where, field):
    # unchecked, perturb and analytic wrote NaN tables with exit 0, a NaN dt
    # or t_final escaped as a ValueError traceback from round, and a NaN rate
    # or angle of a sim ran on NaN states
    out = tmp_path / "out"
    make = {"simulate": simulate_config, "analytic": analytic_config, "perturb": perturb_config,
            "compare": lambda o: dict(compare_config(o, count=100), theta_f=None)}
    cfg = make[mode](out)
    if mode == "simulate":
        cfg["sim"]["environment"] = {"rabi_detuning": 0.1, "depolarization_rate": 0.1}
    node = cfg
    for key in filter(None, where.split(".")):
        node = node[int(key) if key.isdigit() else key]
    node[field] = math.nan
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("mode", ["analytic", "perturb", "compare"])
@pytest.mark.parametrize("field", ["t1_grid", "t2"])
def test_nan_time_exits_config(tmp_path, capsys, mode, field):
    # unchecked, a pre-selected analytic run and a perturb run wrote NaN rows
    # with exit 0, and compare blamed a finite time for the NaN it met
    out = tmp_path / "out"
    make = {"analytic": lambda o: dict(analytic_config(o), theta_f=None, t_total=None),
            "perturb": perturb_config, "compare": lambda o: compare_config(o, count=100)}
    cfg = make[mode](out)
    cfg[field] = [0.5, math.nan, 1.0] if field == "t1_grid" else math.nan
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error [DomainError]") and ">= 0" in err
    if mode == "compare":
        assert err.rstrip().endswith("nan]")  # the bad entries, its NaN named
    assert not (out / "manifest.json").exists()


def test_fpe_theta_in_far_from_theta_f_runs(tmp_path):
    # theta_in 200 windings out: the wrapped Gaussian's old winding cap gave
    # a zero post-selection probability and a ConditioningError
    out = tmp_path / "out"
    shift = 400 * math.pi
    base = {"schema_version": 1, "mode": "fpe", "theta_f": 1.1, "t_total": 0.02,
            "tau_m": 1.0, "times": [0.005, 0.01, 0.015], "theta_points": 61}
    for name, theta_in in (("far", 1.0 + shift), ("near", 1.0)):
        cfg = dict(base, output_dir=str(out / name), theta_in=theta_in)
        assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK
    far, near = (np.loadtxt(out / n / "fpe_density.csv", delimiter=",", skiprows=1)
                 for n in ("far", "near"))
    np.testing.assert_allclose(far, near, rtol=0, atol=1e-11 * near[:, 1:].max())


def test_import_leaves_the_executor_out():
    # concurrent.futures imports logging, threading's queue and more; only
    # run_ensemble needs it, and a campaign that runs no ensemble pays nothing
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, xzmeas.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("channels", [1, 3])
def test_simulate_needs_a_channel_pair(tmp_path, capsys, channels):
    # unchecked, one channel gave an IndexError and three a broadcasting
    # ValueError, both as tracebacks
    cfg = simulate_config(tmp_path / "out")
    cfg["sim"]["channels"] = [{"axis_angle": 0.0, "gamma": 0.5}] * channels
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert f"channels must be a (z, phi) pair, got {channels}" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -5, 2.5, True, 1e300, 2**63])
@pytest.mark.parametrize("mode", ["compare", "simulate"])
def test_count_must_be_positive_integer(tmp_path, capsys, mode, count):
    # unchecked, 0 and -5 escaped as a ValueError traceback (or read as an
    # empty post-selection), 2.5 ran as 2 and true as 1; 1e300 escaped as an
    # OverflowError, from the binomial draw in compare and from run_ensemble's
    # stream-id check in simulate
    make = compare_config if mode == "compare" else simulate_config
    cfg = dict(make(tmp_path / "out"), count=count)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert "count must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1e300, 1e17, 1e15])
@pytest.mark.parametrize("field", ["theta_in", "theta_f"])
def test_compare_angle_too_coarse_for_its_window_exits_config(tmp_path, capsys, field, value):
    # unchecked, 1e300 looped in _window_finals, as theta_f - theta_in + 2 pi n
    # stopped changing, until a MemoryError; 1e17 exited 2, and 1e15 exited 0
    # with angles 0.125 apart, coarser than the 0.05 window
    cfg = dict(compare_config(tmp_path / "out", count=100), angular_window=0.05)
    cfg[field] = value
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert f"{field} {value!r} is too large for angular_window 0.05" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("dt", 1e-300), ("t_final", 1e6)])
def test_simulate_arrays_past_memory_exit_config(tmp_path, capsys, field, value):
    # unchecked, dt = 1e-300 escaped from run_ensemble's np.empty as
    # "ValueError: Maximum allowed dimension exceeded", and t_final = 1e6 at
    # count 10 as a MemoryError for 11 GiB of states; the count is raised
    # where this machine has more memory than that
    cfg = simulate_config(tmp_path / "out")
    cfg["sim"][field] = value
    n = round(cfg["sim"]["t_final"] / cfg["sim"]["dt"])
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    cfg["count"] = max(10, memory // (24 * (n + 1)) + 1)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    need = 24 * cfg["count"] * (n + 1)
    assert f"count {cfg['count']} x {n:.6g} steps needs {need:.4g} bytes" in capsys.readouterr().err


def test_fpe_density_just_past_the_old_crossover_integrates_to_one(tmp_path):
    # D t = 0.01 took the cosine series, which lost the far tail of the
    # post-selection probability: the density integrated to 2.0e-33
    out = tmp_path / "out"
    cfg = {"schema_version": 1, "mode": "fpe", "output_dir": str(out), "theta_in": 0.0,
           "theta_f": 2.126, "tau_m": 1.0, "t_total": 0.02, "times": [0.01]}
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK
    theta, density = np.loadtxt(out / "fpe_density.csv", delimiter=",", skiprows=1).T
    assert density[:-1].sum() * (theta[1] - theta[0]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("mode, field", [
    ("analytic", "tau_m"), ("compare", "tau_m"), ("simulate", "t2"), ("perturb", "gamma_x"),
    ("analytic_preselected", "t2"), ("analytic_preselected", "t1_grid"),
])
def test_infinite_field_exits_config(tmp_path, capsys, mode, field):
    # unchecked, an infinite tau_m gave NaN correlators in analytic and a
    # ZeroDivisionError in compare, simulate snapped t2 = inf to t = 0,
    # perturb wrote NaN rows, and a pre-selected analytic run wrote a row at
    # t = inf and an Infinity token in manifest.json; each exited 0 but compare
    out = tmp_path / "out"
    make = {"simulate": simulate_config, "analytic": analytic_config, "perturb": perturb_config,
            "compare": lambda o: compare_config(o, count=100),
            "analytic_preselected": lambda o: dict(analytic_config(o), theta_f=None, t_total=None)}
    cfg = dict(make[mode](out), **{field: [0.1, math.inf] if field == "t1_grid" else math.inf})
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err and "inf" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("field, value", [("t1_grid", [0.5, math.inf]), ("gamma_x", 1e300)])
def test_perturb_refuses_a_row_that_is_not_finite(tmp_path, capsys, field, value):
    # unchecked, an infinite time wrote 2 NaN rows, and a rate of 1e300 wrote
    # 4 after an overflow in exp, each with exit 0
    out = tmp_path / "out"
    cfg = dict(perturb_config(out), **{field: value})
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error [DomainError]") and field in err
    assert not (out / "perturb_correlators.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("mode", ["analytic", "compare"])
def test_one_closed_form_call_per_campaign(tmp_path, monkeypatch, mode):
    # every kind of a post-selected campaign comes from one pass over the
    # four phase averages; the bc stays the 4th positional argument
    calls = []

    def counted(kinds, t1, t2, bc):
        calls.append((list(kinds), bc))
        return correlator_cond(kinds, t1, t2, bc)

    monkeypatch.setattr(cli, "correlator_cond", counted)
    kinds = ["zz", "zx", "xz", "xx"]
    make = {"analytic": analytic_config, "compare": lambda o: compare_config(o, count=20_000)}
    cfg = dict(make[mode](tmp_path / "out"), kinds=kinds)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK
    assert [k for k, _ in calls] == [kinds] and calls[0][1].post_selected


def test_memory_error_under_an_address_space_cap_exits_config(tmp_path):
    # 1e8 state points pass the physical-memory check, but not a 1.5 GB cap
    # on the address space; the MemoryError escaped as a traceback, exit 1
    pytest.importorskip("resource")
    cfg = write_config(tmp_path, dict(analytic_config(tmp_path / "out"), state_points=10**8))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import resource, sys; hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, hard)); "
            "from xzmeas import cli; sys.exit(cli.run(sys.argv[1]))")
    done = subprocess.run([sys.executable, "-c", code, str(cfg)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == cli.EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("config error") and "memory" in done.stderr


BIG = 10**12


@pytest.mark.parametrize("mode, field, value", [
    ("analytic", "state_points", BIG), ("fpe", "theta_points", BIG),
    ("analytic", "t1_grid", {"start": 0.5, "stop": 1.0, "num": BIG}),
    ("perturb", "t1_grid", {"start": 0.5, "stop": 1.0, "num": BIG}),
    ("compare", "t1_grid", {"start": 0.5, "stop": 1.0, "num": BIG}),
    ("simulate", "t1_grid", {"start": 0.2, "stop": 1.0, "num": BIG}),
    ("fpe", "times", {"start": 0.5, "stop": 1.0, "num": BIG}),
    ("compare", "count", BIG),
])
def test_size_past_memory_exits_config(tmp_path, capsys, mode, field, value):
    # unchecked, each escaped as a MemoryError traceback under a 3 GB
    # address-space cap, exit 1; compare's count asked for 550 GiB of draws
    out = tmp_path / "out"
    make = {"simulate": simulate_config, "analytic": analytic_config, "fpe": fpe_config,
            "perturb": perturb_config, "compare": compare_config}
    cfg = dict(make[mode](out), **{field: value})
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err and "physical memory" in err
    assert not (out / "manifest.json").exists()


def simulate_config(out, seed=3):
    return {
        "schema_version": 1,
        "mode": "simulate",
        "output_dir": str(out),
        "seed": seed,
        "count": 400,
        "sim": {
            "channels": [
                {"axis_angle": 0.0, "gamma": 0.5, "eta": 1.0},
                {"axis_angle": math.pi / 2, "gamma": 0.5, "eta": 1.0},
            ],
            "dt": 0.02,
            "t_final": 1.0,
            "initial_theta": math.pi / 4,
        },
        "t1_grid": [0.2, 0.6, 1.0],
        "t2": 0.4,
    }


def test_mode_simulate_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    c1 = write_config(tmp_path, simulate_config(out1), "c1.json")
    c2 = write_config(tmp_path, simulate_config(out2), "c2.json")
    assert cli.run(c1) == cli.EXIT_OK
    assert cli.run(c2) == cli.EXIT_OK
    assert (out1 / "mc_correlators.csv").read_bytes() == (
        out2 / "mc_correlators.csv"
    ).read_bytes()
    # a different seed changes the bytes
    out3 = tmp_path / "c"
    c3 = write_config(tmp_path, simulate_config(out3, seed=4), "c3.json")
    assert cli.run(c3) == cli.EXIT_OK
    assert (out1 / "mc_correlators.csv").read_bytes() != (
        out3 / "mc_correlators.csv"
    ).read_bytes()


def test_manifest_replay(tmp_path):
    out1 = tmp_path / "a"
    c1 = write_config(tmp_path, simulate_config(out1), "c1.json")
    assert cli.run(c1) == cli.EXIT_OK
    manifest = json.loads((out1 / "manifest.json").read_text())
    # replaying the recorded config and seed reproduces every output
    out2 = tmp_path / "replay"
    replay_cfg = dict(manifest["config"])
    replay_cfg["output_dir"] = str(out2)
    c2 = write_config(tmp_path, replay_cfg, "replay.json")
    assert cli.run(c2, seed=manifest["seed"]) == cli.EXIT_OK
    for name in manifest["outputs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("seed", ["abc", 1.5, True, -1, 2**64])
@pytest.mark.parametrize("where", ["seed", "sim.rng_seed", "--seed"])
def test_seed_must_be_64_bit_unsigned_integer(tmp_path, capsys, where, seed):
    # unchecked, "abc" escaped as a ValueError traceback, 1.5 and true ran as
    # seed 1, and -1 wrapped to 2**64 - 1
    cfg = simulate_config(tmp_path / "out")
    if where == "--seed":
        code = cli.main(["--config", str(write_config(tmp_path, cfg)), "--seed", str(seed)])
    else:
        if where == "seed":
            cfg["seed"] = seed
        else:
            cfg["sim"]["rng_seed"] = seed
        code = cli.run(write_config(tmp_path, cfg))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    # argparse refuses what is not an int before the range check sees it
    assert (f"{where.lstrip('-')} must be an integer in [0, 2**64)" in err
            or "argument --seed: invalid int value" in err)


def test_largest_seed_runs(tmp_path):
    cfg = dict(simulate_config(tmp_path / "out", seed=2**64 - 1), count=3)
    cfg["sim"]["rng_seed"] = 2**64 - 1
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK


def test_seed_flag_overrides_config(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    c = write_config(tmp_path, simulate_config(out1))
    assert cli.run(c, seed=99) == cli.EXIT_OK
    cfg2 = simulate_config(out2, seed=99)
    cfg2["output_dir"] = str(out2)
    c2 = write_config(tmp_path, cfg2, "c2.json")
    assert cli.run(c2) == cli.EXIT_OK
    assert (out1 / "mc_correlators.csv").read_bytes() == (
        out2 / "mc_correlators.csv"
    ).read_bytes()


def _simulate_bytes(tmp_path, name, seed=None, rng_seed=None, flag=None):
    """mc_correlators.csv and the manifest seed of a simulate campaign with
    the given seeds; None leaves a seed out."""
    cfg = simulate_config(tmp_path / name)
    del cfg["seed"]
    if seed is not None:
        cfg["seed"] = seed
    if rng_seed is not None:
        cfg["sim"]["rng_seed"] = rng_seed
    assert cli.run(write_config(tmp_path, cfg, f"{name}.json"), seed=flag) == cli.EXIT_OK
    manifest = json.loads((tmp_path / name / "manifest.json").read_text())
    return (tmp_path / name / "mc_correlators.csv").read_bytes(), manifest["seed"]


def test_rng_seed_stands_in_for_a_missing_seed(tmp_path):
    # precedence: --seed, then seed, then sim.rng_seed, then 0
    by_seed = _simulate_bytes(tmp_path, "seed", seed=5)
    assert by_seed[1] == 5
    assert _simulate_bytes(tmp_path, "rng_seed", rng_seed=5) == by_seed
    assert _simulate_bytes(tmp_path, "both", seed=5, rng_seed=9) == by_seed
    assert _simulate_bytes(tmp_path, "flag", seed=7, rng_seed=9, flag=5) == by_seed
    by_default = _simulate_bytes(tmp_path, "default")
    assert by_default[1] == 0
    assert by_default[0] != by_seed[0]
    assert by_default == _simulate_bytes(tmp_path, "zero", seed=0)


def reconstruct_config(out, rec_path, t_final=0.5):
    """Config replaying a simulated record, written to ``rec_path``."""
    from xzmeas.bayes import write_readout_records
    from xzmeas.core import ChannelConfig, SimConfig, polar_to_bloch
    from xzmeas.sde import simulate_trajectory

    cfg = SimConfig(
        channels=(ChannelConfig(0.0, 0.5, 1.0), ChannelConfig(math.pi / 2, 0.5, 1.0)),
        dt=0.01,
        t_final=t_final,
        initial_state=polar_to_bloch(math.pi / 4),
        rng_seed=2,
    )
    _, record = simulate_trajectory(cfg)
    write_readout_records(rec_path, record, cfg)
    return {
        "schema_version": 1,
        "mode": "reconstruct",
        "output_dir": str(out),
        "input": str(rec_path),
        "initial_theta": math.pi / 4,
        "sim": {
            "channels": [
                {"axis_angle": 0.0, "gamma": 0.5, "eta": 1.0},
                {"axis_angle": math.pi / 2, "gamma": 0.5, "eta": 1.0},
            ],
            "dt": 0.01,
            "t_final": t_final,
            "initial_theta": math.pi / 4,
        },
    }


def test_mode_reconstruct(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, reconstruct_config(out, tmp_path / "readouts.txt"))
    assert cli.run(cfgp) == cli.EXIT_OK
    lines = (out / "reconstructed_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 50 + 2


@pytest.mark.parametrize("value", [1, 0, None, "", []])
def test_reconstruct_input_must_be_a_path(tmp_path, capsys, value):
    # unchecked, 1 and 0 opened that file descriptor, read it and closed it,
    # so an in-process caller lost its stdout or stdin; null escaped as a
    # TypeError traceback
    cfg = dict(reconstruct_config(tmp_path / "out", tmp_path / "readouts.txt"), input=value)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert "input must be a non-empty path string" in capsys.readouterr().err
    for fd in (0, 1, 2):
        os.fstat(fd)


@pytest.mark.parametrize(
    "row", ["0.02,not_a_number,0.1", "0.02,0.5", "0.02,nan,0.1", "0.02,0.5,inf"]
)
def test_mode_reconstruct_rejects_bad_readout_file(tmp_path, row, capsys):
    rec_path = tmp_path / "readouts.txt"
    cfgp = write_config(tmp_path, reconstruct_config(tmp_path / "out", rec_path))
    lines = rec_path.read_text().splitlines()
    lines[3] = row
    rec_path.write_text("\n".join(lines) + "\n")
    assert cli.run(cfgp) == cli.EXIT_CONFIG
    assert "readouts.txt:4" in capsys.readouterr().err


def test_mode_reconstruct_huge_readout(tmp_path, capsys):
    # z readout 1e6 at step 10 (file line 13) projects onto z = +1, which an
    # x readout of 0 at unit efficiency leaves alone; a -1e6 at step 11 then
    # saturates the update against that state, a numerical error, not a row
    # of NaN
    out = tmp_path / "out"
    rec_path = tmp_path / "readouts.txt"
    cfgp = write_config(tmp_path, reconstruct_config(out, rec_path))
    lines = rec_path.read_text().splitlines()
    lines[12] = lines[12].split(",")[0] + ",1e6,0"
    rec_path.write_text("\n".join(lines) + "\n")
    assert cli.run(cfgp) == cli.EXIT_OK
    rows = (out / "reconstructed_trajectory.csv").read_text().splitlines()
    assert [float(v) for v in rows[12].split(",")[1:]] == [0.0, 0.0, 1.0]
    lines[13] = lines[13].split(",")[0] + ",-1e6,0"
    rec_path.write_text("\n".join(lines) + "\n")
    assert cli.run(cfgp) == cli.EXIT_NUMERICAL
    assert "at step 11: readouts" in capsys.readouterr().err


@pytest.mark.parametrize("header, field", [
    ("# dt=0.005 gamma_z=0.5 eta_z=1.0 gamma_x=0.5 eta_x=1.0", "dt"),
    ("# eta_x=0.9", "eta_x"),
    ("# gamma_z=0.5", None),
    ("# dt=0.01 gamma_z=0.5 eta_z=1.0 gamma_x=0.5 eta_x=1.0", None),
    ("# phi_z=0.1", "phi_z"),
    ("# rabi_detuning=0.3", "rabi_detuning"),
    ("# depolarization_rate=0.05", "depolarization_rate"),
])
def test_mode_reconstruct_checks_header(tmp_path, capsys, header, field):
    # the record is written from the config's own sim block; a header field
    # that differs from it exits 3 naming the field, and a field the header
    # lacks, as in the five-field header of older records, is taken from the
    # config
    rec_path = tmp_path / "readouts.txt"
    cfgp = write_config(tmp_path, reconstruct_config(tmp_path / "out", rec_path))
    lines = rec_path.read_text().splitlines()
    assert lines[0] == ("# dt=0.01 gamma_z=0.5 eta_z=1.0 gamma_x=0.5 eta_x=1.0 phi_z=0.0"
                        f" phi_x={math.pi / 2!r} rabi_detuning=0.0 depolarization_rate=0.0")
    lines[0] = header
    rec_path.write_text("\n".join(lines) + "\n")
    if field is None:
        assert cli.run(cfgp) == cli.EXIT_OK
    else:
        assert cli.run(cfgp) == cli.EXIT_CONFIG
        assert f"header {field}=" in capsys.readouterr().err


def test_mode_reconstruct_rejects_record_of_another_axis(tmp_path, capsys):
    # a record written with the phi axis at pi/2 does not replay under pi/3
    rec_path = tmp_path / "readouts.txt"
    cfg = reconstruct_config(tmp_path / "out", rec_path)
    cfg["sim"]["channels"][1]["axis_angle"] = math.pi / 3
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert f"header phi_x={math.pi / 2!r}, sim config phi_x=" in capsys.readouterr().err


@pytest.mark.parametrize("record_t_final, sim_t_final, rows", [
    (0.1, 0.5, 10), (0.5, 0.2, 50), (0.5, 0.5, 0),
])
def test_mode_reconstruct_checks_record_length(tmp_path, capsys, record_t_final, sim_t_final, rows):
    # a 10-row record under a 50-step sim, and a header-only one, replayed
    # and exited 0
    rec_path = tmp_path / "readouts.txt"
    cfg = reconstruct_config(tmp_path / "out", rec_path, record_t_final)
    cfg["sim"]["t_final"] = sim_t_final
    if rows == 0:
        rec_path.write_text("\n".join(rec_path.read_text().splitlines()[:2]) + "\n")
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    steps = round(sim_t_final / 0.01)
    assert f"readouts.txt: {rows} rows, but sim runs {steps} steps" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reconstructed_trajectory.csv").exists()


@pytest.mark.parametrize("change, message", [
    ({"selection": {"bogus": 1, "theta_in": 0.0, "t_total": 1.0}}, "invalid selection"),
    ({"selection": 5}, "invalid selection"),
    ({"t1_grid": ["a"]}, "invalid grid"),
    ({"kinds": ["zq"]}, "unknown coordinate 'q'"),
])
def test_malformed_simulate_config_exits_config(tmp_path, capsys, change, message):
    # each escaped as a TypeError, ValueError or KeyError traceback, exit 1
    cfg = dict(simulate_config(tmp_path / "out"), **change)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_rerun_over_longer_outputs_matches_fresh_run(tmp_path):
    # each campaign first runs with a larger config into "used", then with a
    # smaller one; every file must equal a run into an empty directory
    rec = tmp_path / "readouts.txt"
    big_analytic = analytic_config(None)
    big_analytic.update(t1_grid={"start": 0.25, "stop": 3.25, "num": 9}, state_points=101)
    big_sim = dict(simulate_config(None), save_ensemble=True, count=200)
    fpe = {"schema_version": 1, "mode": "fpe", "theta_in": math.pi / 4,
           "theta_f": 7 * math.pi / 8, "t_total": 3.5, "tau_m": 1.0,
           "times": [0.5, 1.75, 3.0], "theta_points": 61}
    pairs = [
        (lambda: big_analytic, lambda: analytic_config(None)),
        (lambda: fpe, lambda: dict(fpe, theta_points=31)),
        (lambda: big_sim, lambda: dict(big_sim, count=50)),
        (lambda: reconstruct_config(None, rec, 0.5), lambda: reconstruct_config(None, rec, 0.2)),
    ]
    for i, (big, small) in enumerate(pairs):
        used, fresh = tmp_path / f"used{i}", tmp_path / f"fresh{i}"
        assert cli.run(write_config(tmp_path, big()), output=used) == cli.EXIT_OK
        before = {p.name: p.stat().st_size for p in used.iterdir()}
        small_cfg = write_config(tmp_path, small())
        assert cli.run(small_cfg, output=used) == cli.EXIT_OK
        assert cli.run(small_cfg, output=fresh) == cli.EXIT_OK
        names = sorted(p.name for p in fresh.iterdir())
        assert any((used / n).stat().st_size < before[n] for n in names)
        for name in names:
            assert (used / name).read_bytes() == (fresh / name).read_bytes(), name


def test_config_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.run(bad_json) == cli.EXIT_CONFIG

    missing = tmp_path / "missing.json"
    assert cli.run(missing) == cli.EXIT_CONFIG

    no_schema = write_config(tmp_path, {"mode": "analytic"}, "ns.json")
    assert cli.run(no_schema) == cli.EXIT_CONFIG

    unknown = write_config(
        tmp_path, {"schema_version": 1, "mode": "zzz"}, "um.json"
    )
    assert cli.run(unknown) == cli.EXIT_CONFIG

    out = tmp_path / "out"
    cfg = simulate_config(out)
    cfg["sim"]["dt"] = -1.0
    bad_sim = write_config(tmp_path, cfg, "bs.json")
    assert cli.run(bad_sim) == cli.EXIT_CONFIG

    rec_path = tmp_path / "readouts.txt"
    no_input = write_config(tmp_path, reconstruct_config(out, rec_path), "ni.json")
    rec_path.unlink()
    assert cli.run(no_input) == cli.EXIT_CONFIG


@pytest.mark.parametrize("where", ["output_dir", "--output"])
@pytest.mark.parametrize("target, reason", [("taken", "File exists"), ("taken/out", "Not a directory")])
def test_unusable_output_directory_exits_config(tmp_path, capsys, where, target, reason):
    # a file at the output path (FileExistsError) or on it (NotADirectoryError)
    # escaped from mkdir as a traceback, exit 1
    (tmp_path / "taken").write_text("a file\n")
    out = tmp_path / target
    cfgp = write_config(tmp_path, analytic_config(out if where == "output_dir" else None))
    argv = ["--config", str(cfgp)] + (["--output", str(out)] if where == "--output" else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"config error: output directory {str(out)!r}: {reason}" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "a file\n"


def test_main_entrypoint_and_env_threads(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, analytic_config(out))
    assert cli.main(["--config", str(cfgp)]) == cli.EXIT_OK
    # --output overrides output_dir
    out2 = tmp_path / "other"
    assert cli.main(["--config", str(cfgp), "--output", str(out2)]) == cli.EXIT_OK
    assert (out2 / "analytic_correlators.csv").exists()


def test_usage_errors_exit_config(tmp_path, capsys):
    # argparse's own exit code 2 is the gate-failure code
    cfgp = write_config(tmp_path, analytic_config(tmp_path / "out"))
    assert cli.main([]) == cli.EXIT_CONFIG
    assert cli.main(["--config", str(cfgp), "--threads", "2"]) == cli.EXIT_CONFIG
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert cli.main(["--help"]) == cli.EXIT_OK


def test_emitted_csv_reparseable(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, analytic_config(out))
    assert cli.run(cfgp) == cli.EXIT_OK
    rows = read_correlator_csv(out / "analytic_correlators.csv")
    assert len(rows) == 15  # 3 kinds x 5 grid points


def perturb_config(out):
    return {"schema_version": 1, "mode": "perturb", "output_dir": str(out),
            "theta_in": math.pi / 4, "gamma_x": 1.0, "gamma_z": 1.0, "eta_x": 0.05,
            "eta_z": 0.05, "t1_grid": [0.5, 1.0, 2.0], "t2": 1.0}


def fpe_config(out):
    return {"schema_version": 1, "mode": "fpe", "output_dir": str(out),
            "theta_in": math.pi / 4, "theta_f": 7 * math.pi / 8, "t_total": 3.5,
            "tau_m": 1.0, "times": [0.5, 1.75, 3.0], "theta_points": 61}


@pytest.mark.parametrize("mode, field, value", [
    ("simulate", "t2", "a"), ("simulate", "kinds", ["z"]), ("simulate", "kinds", "zz"),
    ("simulate", "t1_grid", 5),
    ("analytic", "t2", "a"), ("analytic", "theta_in", "a"), ("analytic", "state_points", "a"),
    ("analytic", "t1_grid", 5), ("analytic", "kinds", ["z"]),
    ("compare", "n_sigma", "a"), ("compare", "angular_window", "a"), ("compare", "t2", "a"),
    ("compare", "kinds", ["z"]),
    ("fpe", "times", 5), ("fpe", "theta_points", "a"), ("fpe", "tau_m", "a"),
    ("perturb", "gamma_x", "a"), ("perturb", "t2", "a"), ("perturb", "t1_grid", 5),
    ("perturb", "kinds", ["z"]),
    ("reconstruct", "initial_theta", "a"),
])
def test_malformed_field_exits_config(tmp_path, capsys, mode, field, value):
    # all but the t1_grid of analytic and the kinds of analytic, compare and
    # perturb escaped as a TypeError, ValueError or IndexError traceback, exit 1
    out = tmp_path / "out"
    make = {"simulate": simulate_config, "analytic": analytic_config, "fpe": fpe_config,
            "perturb": perturb_config, "compare": lambda o: compare_config(o, count=100),
            "reconstruct": lambda o: reconstruct_config(o, tmp_path / "readouts.txt")}
    cfg = dict(make[mode](out), **{field: value})
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("steps, time, step", [
    (slice(None), "7.0", 0),
    (slice(20, 21), "0.2000001", 20),
])
def test_mode_reconstruct_checks_time_column(tmp_path, capsys, steps, time, step):
    # a record whose time stamps were all rewritten to 7.0 replayed and exited 0
    rec_path = tmp_path / "readouts.txt"
    cfgp = write_config(tmp_path, reconstruct_config(tmp_path / "out", rec_path))
    lines = rec_path.read_text().splitlines()
    rows = lines[2:]
    rows[steps] = [time + "," + row.split(",", 1)[1] for row in rows[steps]]
    rec_path.write_text("\n".join(lines[:2] + rows) + "\n")
    assert cli.run(cfgp) == cli.EXIT_CONFIG
    assert f"time {float(time)!r} at step {step} is not step * dt" in capsys.readouterr().err


# the modes evaluate the closed forms on whole grids; a value must not move
# from what one call per point gives
EXACT_CASES = [(0.5, 0.3, 1.1), (3.5, math.pi / 4, 7 * math.pi / 8), (10.0, 1.2, 2.0)]


@pytest.mark.parametrize("t_total, theta_in, theta_f", EXACT_CASES)
def test_perturb_rows_equal_per_point_calls(tmp_path, t_total, theta_in, theta_f):
    out = tmp_path / "out"
    cfg = dict(perturb_config(out), theta_in=theta_in, gamma_x=0.7, gamma_z=0.4,
               eta_x=0.3, eta_z=0.55, t2=0.4 * t_total,
               t1_grid={"start": 0.0, "stop": t_total, "num": 16})
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK
    p = TreeParams(0.7, 0.4, 0.3, 0.55, math.sin(theta_in), math.cos(theta_in))
    rows = read_correlator_csv(out / "perturb_correlators.csv")
    assert len(rows) == 7 * 16
    for t1, t2, kind, value, *_ in rows:
        name, arg = kind.split("_")
        if name == "cov":
            assert value == cov_tree(arg, t1, t2, p)
        else:
            assert t1 == t2
            assert value == {"var": var_tree, "mean": mean_tree}[name](arg, t1, p)


@pytest.mark.parametrize("t_total, theta_in, theta_f", EXACT_CASES)
def test_fpe_columns_equal_two_sided_density(tmp_path, t_total, theta_in, theta_f):
    out = tmp_path / "out"
    times = [0.01, 0.25 * t_total, 0.5 * t_total, t_total - 0.01]
    cfg = dict(fpe_config(out), theta_in=theta_in, theta_f=theta_f, t_total=t_total,
               times=times, theta_points=91)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK
    lines = (out / "fpe_density.csv").read_text().splitlines()
    assert lines[0] == "theta," + ",".join(f"t={t!r}" for t in times)
    cols = list(zip(*([float(v) for v in line.split(",")] for line in lines[1:])))
    thetas = np.linspace(0.0, 2 * math.pi, 91)
    assert list(cols[0]) == thetas.tolist()
    bc = BoundaryCondition(theta_in, 1.0, theta_f, t_total)
    for t, col in zip(times, cols[1:]):
        assert list(col) == two_sided_density(thetas, t, bc, KernelParams.from_tau(1.0)).tolist()


@pytest.mark.parametrize("t_total, theta_in, theta_f", EXACT_CASES)
def test_analytic_state_norm_is_hypot(tmp_path, t_total, theta_in, theta_f):
    out = tmp_path / "out"
    cfg = dict(analytic_config(out), theta_in=theta_in, theta_f=theta_f, t_total=t_total,
               t1_grid=[0.5 * t_total], t2=0.25 * t_total, state_points=41)
    assert cli.run(write_config(tmp_path, cfg)) == cli.EXIT_OK
    lines = (out / "analytic_state.csv").read_text().splitlines()
    assert lines[0] == "t,x,z,norm" and len(lines) == 42
    for line in lines[1:]:
        t, x, z, norm = map(float, line.split(","))
        assert norm == math.hypot(x, z)
