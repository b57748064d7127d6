import math

import numpy as np
import pytest

from xzmeas.core import ChannelConfig, DomainError, SimConfig, polar_to_bloch
from xzmeas.estimator import SelectionCriterion, covariance, correlate, select
from xzmeas.perturb import (
    EigenDecomposition,
    TreeParams,
    cov_tree,
    eig_decoherence,
    mean_tree,
    var_tree,
)
from xzmeas.sde import run_ensemble


P = TreeParams(
    gamma_x=1.0,
    gamma_z=1.0,
    eta_x=0.05,
    eta_z=0.05,
    x_in=math.sin(math.pi / 4),
    z_in=math.cos(math.pi / 4),
)


def test_mean_tree_exponentials():
    assert mean_tree("x", 0.0, P) == pytest.approx(P.x_in)
    assert mean_tree("z", 1.3, P) == pytest.approx(P.z_in * math.exp(-1.3))
    grid = np.linspace(0, 3, 7)
    assert np.allclose(mean_tree("x", grid, P), P.x_in * np.exp(-grid))


def test_cov_tree_symmetric_in_times(rng):
    for _ in range(20):
        t1, t2 = rng.uniform(0, 4, 2)
        for kind in ("zz", "xx"):
            assert cov_tree(kind, t1, t2, P) == pytest.approx(
                cov_tree(kind, t2, t1, P), rel=1e-12, abs=1e-15
            )


def test_cov_tree_linear_in_efficiencies(rng):
    p2 = TreeParams(1.0, 1.0, 0.10, 0.10, P.x_in, P.z_in)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 4, 2)
        for kind in ("zz", "zx", "xx"):
            assert cov_tree(kind, t1, t2, p2) == pytest.approx(
                2 * cov_tree(kind, t1, t2, P), rel=1e-12, abs=1e-16
            )


def test_cov_zx_odd_under_coordinate_flips(rng):
    flipped_x = TreeParams(1.0, 1.0, 0.05, 0.05, -P.x_in, P.z_in)
    flipped_z = TreeParams(1.0, 1.0, 0.05, 0.05, P.x_in, -P.z_in)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 4, 2)
        base = cov_tree("zx", t1, t2, P)
        assert cov_tree("zx", t1, t2, flipped_x) == pytest.approx(-base, rel=1e-12)
        assert cov_tree("zx", t1, t2, flipped_z) == pytest.approx(-base, rel=1e-12)


def test_cov_zx_vanishes_at_zero_overlap():
    assert cov_tree("zx", 0.0, 2.0, P) == 0.0
    assert cov_tree("zx", 2.0, 0.0, P) == 0.0


def test_var_tree_equals_equal_time_cov(rng):
    for _ in range(10):
        t = float(rng.uniform(0, 4))
        assert var_tree("z", t, P) == cov_tree("zz", t, t, P)
        assert var_tree("x", t, P) == cov_tree("xx", t, t, P)


def test_var_tree_small_time_rate():
    # d var/dt at t -> 0 equals the Ito quadratic-variation rate
    t = 1e-7
    rate_z = var_tree("z", t, P) / t
    expect_z = 2 * P.gamma_z * P.eta_z * (1 - P.z_in**2) ** 2 + (
        2 * P.gamma_x * P.eta_x * P.x_in**2 * P.z_in**2
    )
    assert rate_z == pytest.approx(expect_z, rel=1e-5)
    rate_x = var_tree("x", t, P) / t
    expect_x = 2 * P.gamma_x * P.eta_x * (1 - P.x_in**2) ** 2 + (
        2 * P.gamma_z * P.eta_z * P.x_in**2 * P.z_in**2
    )
    assert rate_x == pytest.approx(expect_x, rel=1e-5)


def test_eig_decoherence_limits():
    # phi = 0: both channels dephase along z; rates add in one eigenvalue
    e0 = eig_decoherence(1.0, 0.5, 0.0)
    assert e0.lambda_plus == pytest.approx(0.0, abs=1e-12)
    assert e0.lambda_minus == pytest.approx(-1.5)
    # phi = pi/2: eigenvalues are the two separate rates
    e90 = eig_decoherence(1.0, 0.5, math.pi / 2)
    assert sorted((e90.lambda_plus, e90.lambda_minus)) == pytest.approx([-1.0, -0.5])
    assert e90.xi == pytest.approx(0.25)


def test_eig_decoherence_matches_drift_matrix(rng):
    # the nontrivial xz block of the mean evolution has these eigenvalues
    for _ in range(10):
        gz = float(rng.uniform(0.1, 2.0))
        gp = float(rng.uniform(0.1, 2.0))
        phi = float(rng.uniform(0, math.pi))
        s2 = 0.5 * gp * math.sin(2 * phi)
        a = np.array(
            [
                [-(gz + gp * math.cos(phi) ** 2), s2],
                [s2, -gp * math.sin(phi) ** 2],
            ]
        )
        lams = np.sort(np.linalg.eigvalsh(a))
        e = eig_decoherence(gz, gp, phi)
        assert lams[0] == pytest.approx(e.lambda_minus, rel=1e-12, abs=1e-12)
        assert lams[1] == pytest.approx(e.lambda_plus, rel=1e-12, abs=1e-12)


def test_tree_params_validation():
    with pytest.raises(DomainError):
        TreeParams(0.0, 1.0, 0.1, 0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        TreeParams(1.0, 1.0, 1.5, 0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        TreeParams(1.0, 1.0, 0.1, 0.1, 1.0, 1.0)
    for gamma_x, gamma_z, x_in in ((math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan)):
        with pytest.raises(DomainError):
            TreeParams(gamma_x, gamma_z, 0.1, 0.1, x_in, 1.0)
    for gamma_z, gamma_phi in ((math.nan, 0.5), (0.5, math.nan), (0.0, 0.5), (0.5, -1.0)):
        with pytest.raises(DomainError):
            eig_decoherence(gamma_z, gamma_phi, 0.3)


def test_full_correlator_matches_mc_at_low_efficiency():
    # cov_tree + mean_tree products reconstructs <A(t1)B(t2)> at eta = 0.05
    cfg = SimConfig(
        channels=(ChannelConfig(0.0, 1.0, 0.05), ChannelConfig(math.pi / 2, 1.0, 0.05)),
        dt=0.01,
        t_final=2.0,
        initial_state=polar_to_bloch(math.pi / 4),
        rng_seed=77,
    )
    ens = run_ensemble(cfg, 20_000, keep_readouts=False)
    sub = select(ens, SelectionCriterion(theta_in=math.pi / 4, t_total=cfg.t_final))
    for kind, t1, t2 in (("zz", 0.5, 1.5), ("zx", 1.0, 0.5), ("xx", 0.8, 0.8)):
        mc, se = correlate(sub, kind[0], kind[1], t1, t2)
        tree = cov_tree(kind, t1, t2, P) + mean_tree(kind[0], t1, P) * mean_tree(
            kind[1], t2, P
        )
        assert abs(mc - tree) <= 3 * se, (kind, mc, tree, se)
        cv, cse = covariance(sub, kind[0], kind[1], t1, t2)
        assert abs(cv - cov_tree(kind, t1, t2, P)) <= 3 * cse, kind
