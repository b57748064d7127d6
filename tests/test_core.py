import json
import math

import numpy as np
import pytest

from xzmeas.core import (
    BlochState,
    ChannelConfig,
    DomainError,
    QubitEnvironment,
    SimConfig,
    measurement_time,
    open_rewrite,
    polar_to_bloch,
)


def test_measurement_time_value():
    assert measurement_time(0.5, 1.0) == 1.0
    assert measurement_time(1.0 / 1.3, 0.54) == pytest.approx(1.3 / (2 * 0.54))


def test_measurement_time_strictly_decreasing(rng):
    gammas = rng.uniform(0.01, 10.0, 200)
    etas = rng.uniform(0.01, 1.0, 200)
    for g, e in zip(gammas, etas):
        assert measurement_time(g * 1.01, e) < measurement_time(g, e)
        assert measurement_time(g, min(e * 1.01, 1.0)) <= measurement_time(g, e)


def test_measurement_time_domain():
    with pytest.raises(DomainError):
        measurement_time(0.0, 0.5)
    with pytest.raises(DomainError):
        measurement_time(1.0, 0.0)
    with pytest.raises(DomainError):
        measurement_time(1.0, 1.5)
    with pytest.raises(DomainError, match="gamma"):
        measurement_time(math.nan, 0.5)


def test_polar_to_bloch_periodic(rng):
    for theta in rng.uniform(-20, 20, 100):
        a = polar_to_bloch(theta)
        b = polar_to_bloch(theta + 2 * math.pi)
        assert abs(a.x - b.x) < 1e-14
        assert abs(a.z - b.z) < 1e-14


def test_polar_to_bloch_unit_norm(rng):
    thetas = rng.uniform(-100, 100, 10_000)
    for theta in thetas:
        q = polar_to_bloch(theta)
        assert abs(math.sqrt(q.x**2 + q.y**2 + q.z**2) - 1.0) <= 1e-15


def test_bloch_state_norm_invariant():
    BlochState(0.6, 0.0, 0.8)
    with pytest.raises(DomainError):
        BlochState(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        BlochState(math.nan, 0.0, 0.0)


def test_open_rewrite_replaces_content_in_place(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("a much longer earlier content\n")
    inode = path.stat().st_ino
    link = tmp_path / "link.txt"
    link.symlink_to(path)
    with open_rewrite(link) as fh:
        fh.write("short\n")
    assert path.read_text() == "short\n"
    assert link.is_symlink() and path.stat().st_ino == inode
    new = tmp_path / "new.bin"
    with open_rewrite(new, "wb") as fh:
        fh.write(b"\x00\x01")
    assert new.read_bytes() == b"\x00\x01"


def test_bloch_state_roundtrip():
    q = BlochState(0.1, -0.2, 0.3)
    assert np.allclose(q.as_array(), [0.1, -0.2, 0.3])
    assert BlochState.from_array(q.as_array()) == q


def test_channel_config_tau_derived():
    c = ChannelConfig(0.0, 0.5, 0.5)
    assert c.tau == measurement_time(0.5, 0.5)


def test_environment_validation():
    QubitEnvironment(0.1, 0.0)
    with pytest.raises(DomainError):
        QubitEnvironment(0.0, -0.1)
    for rates in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(DomainError):
            QubitEnvironment(*rates)


def _channels():
    return (ChannelConfig(0.0, 0.5, 1.0), ChannelConfig(math.pi / 2, 0.5, 1.0))


def test_sim_config_grid_validation():
    SimConfig(_channels(), dt=0.01, t_final=1.0)
    with pytest.raises(DomainError):
        SimConfig(_channels(), dt=-0.01, t_final=1.0)
    with pytest.raises(DomainError):
        SimConfig(_channels(), dt=0.03, t_final=1.0)  # not a multiple
    for dt, t_final in ((math.nan, 1.0), (0.01, math.nan), (0.01, math.inf), (0.01, 1e-12)):
        with pytest.raises(DomainError):
            SimConfig(_channels(), dt=dt, t_final=t_final)
    with pytest.raises(DomainError, match="axis_angle"):
        ChannelConfig(math.nan, 0.5, 1.0)


def test_sim_config_stability_guard():
    with pytest.raises(DomainError):
        SimConfig(_channels(), dt=0.1, t_final=1.0)  # dt/tau = 0.1 > 0.05


def test_sim_config_times():
    cfg = SimConfig(_channels(), dt=0.01, t_final=0.05)
    assert cfg.n_steps == 5
    assert np.allclose(cfg.times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05])


def test_sim_config_dict_round_trip():
    cfg = SimConfig((ChannelConfig(0.1, 0.5, 0.8), ChannelConfig(1.2, 0.4, 0.6)), dt=0.01,
                    t_final=0.5, initial_state=BlochState(0.6, -0.2, 0.7),
                    environment=QubitEnvironment(0.3, 0.05), rng_seed=2**64 - 1)
    d = cfg.to_dict()
    assert SimConfig.from_dict(json.loads(json.dumps(d))) == cfg
    assert d["initial_state"] == [0.6, -0.2, 0.7]
    assert d["channels"][1] == {"axis_angle": 1.2, "gamma": 0.4, "eta": 0.6}
    assert d["environment"] == {"rabi_detuning": 0.3, "depolarization_rate": 0.05}
