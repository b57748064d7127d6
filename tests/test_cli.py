import json
import math

import numpy as np
import pytest

from xzmeas import cli
from xzmeas.analytic import BoundaryCondition, correlator_cond
from xzmeas.estimator import read_correlator_csv


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
