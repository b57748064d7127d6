import math

import numpy as np
import pytest

from xzmeas import analytic, fpe
from xzmeas.analytic import BoundaryCondition, SeriesError
from xzmeas.core import DomainError
from xzmeas.fpe import (
    CROSSOVER,
    KernelParams,
    _wrapped_gaussian,
    cond_avg_fpe_quadrature,
    transition_prob,
    two_sided_density,
)

from conftest import source_average


KP = KernelParams.from_tau(1.0)
BC = BoundaryCondition(theta_in=math.pi / 4, tau_m=1.0, theta_f=7 * math.pi / 8, t_total=3.5)
GRID = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
DX = GRID[1] - GRID[0]


def test_kernel_params():
    assert KP.diffusion == pytest.approx(0.5)  # D = 1/(2 tau)
    assert KernelParams.from_tau(2.0).diffusion == pytest.approx(0.25)
    for diffusion in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            KernelParams(diffusion)
    for t, t0 in ((1.0, 1.0), (0.5, 1.0), (math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            transition_prob(0.0, t, 0.0, t0, KP)


@pytest.mark.parametrize("t", [0.01, 1.0])  # wrapped Gaussian and Fourier series
def test_transition_prob_is_a_float_exactly_when_0d(t):
    # a list theta raised TypeError and a 0-d array gave np.float64
    values = transition_prob([0.2, 1.3], t, 0.7, 0.0, KP)
    assert isinstance(values, np.ndarray) and values.shape == (2,)
    np.testing.assert_array_equal(values, transition_prob(np.array([0.2, 1.3]), t, 0.7, 0.0, KP))
    for theta, theta0 in ((np.array(0.2), 0.7), (0.2, np.array(0.7)), (np.float64(0.2), 0.7)):
        p = transition_prob(theta, t, theta0, 0.0, KP)
        assert type(p) is float and p == transition_prob(0.2, t, 0.7, 0.0, KP)
    assert transition_prob(np.array([0.2]), t, 0.7, 0.0, KP).shape == (1,)


@pytest.mark.parametrize("t", [0.01, 1.0])  # D t on both sides of CROSSOVER
def test_kernel_independent_of_theta0_winding(t):
    # theta0 shifted by 200 windings: the wrapped Gaussian's winding cap
    # used to leave every term out and return 0.0
    shift = 400 * math.pi
    theta = np.linspace(0.5, 1.5, 11)
    np.testing.assert_allclose(transition_prob(theta, t, 1.0 + shift, 0.0, KP),
                               transition_prob(theta, t, 1.0, 0.0, KP), rtol=1e-11)
    assert transition_prob(1.05, t, 1.0 + shift, 0.0, KP) == pytest.approx(
        transition_prob(1.05, t, 1.0, 0.0, KP), rel=1e-11)
    bc = BoundaryCondition(theta_in=1.0, tau_m=1.0, theta_f=1.1, t_total=2 * t)
    far = BoundaryCondition(theta_in=1.0 + shift, tau_m=1.0, theta_f=1.1, t_total=2 * t)
    np.testing.assert_allclose(two_sided_density(theta, t, far, KP),
                               two_sided_density(theta, t, bc, KP), rtol=1e-11)


def test_transition_prob_normalized():
    for t in (0.01, 0.1, 1.0, 10.0):
        p = transition_prob(GRID, t, 0.7, 0.0, KP)
        assert np.all(p >= -1e-13)  # truncation wiggle only
        assert p.sum() * DX == pytest.approx(1.0, abs=1e-10)


def test_transition_prob_series_vs_wrapped_gaussian():
    # both representations agree to 1e-12 absolutely at D*dt in [0.005, 0.02],
    # far below CROSSOVER; there the series loses only the far tail
    from xzmeas.fpe import _fourier_kernel, _wrapped_gaussian

    for x in (0.005, 0.008, 0.01, 0.012, 0.02):
        a = _fourier_kernel(GRID - 0.7, x)
        b = _wrapped_gaussian(GRID - 0.7, x)
        assert np.max(np.abs(a - b)) < 1e-12


def test_fourier_branch_keeps_the_far_tail():
    # with CROSSOVER at D*dt = 0.01, the cosine series gave -7.9e-16 for the
    # density 7.1e-52 at d = 2.18, and relative errors up to 1e90
    d = np.linspace(0.0, math.pi, 201)
    for x in np.linspace(CROSSOVER, 0.5, 7):
        np.testing.assert_allclose(transition_prob(d, x / KP.diffusion, 0.0, 0.0, KP),
                                   _wrapped_gaussian(d, x), rtol=1e-10, atol=0)
    assert transition_prob(2.18, 0.02, 0.0, 0.0, KP) == pytest.approx(7.11e-52, rel=1e-3)


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.0099])
def test_wrapped_gaussian_truncation_is_exact(x):
    # 128 windings either side of the middle of d, in the same order: the
    # windings left out contribute exactly 0.0, so the truncated sum matches
    # bit for bit.  The points with u^2/(2 var) = 730 get only a subnormal
    # term, which a truncation that reaches too short would lose
    var = 2.0 * x
    edge = math.sqrt(2 * var * 730.0)
    wide = np.linspace(-3 * math.pi, 3 * math.pi, 2001)
    for d in (
        wide,
        wide + 400 * math.pi,  # 200 windings out
        np.concatenate([wide, wide - 200 * math.pi]),  # spread over 100 windings
        np.array(edge),
        np.array([-edge - 6 * math.pi]),
    ):
        middle = -round(float(d.max() + d.min()) / (4 * math.pi))
        full = np.zeros_like(d)
        for n in range(middle - 128, middle + 129):
            u = d + 2 * math.pi * n
            full += np.exp(-(u**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.array_equal(_wrapped_gaussian(d, x), full)


def test_chapman_kolmogorov(rng):
    for _ in range(5):
        t0, t1, t2 = np.sort(rng.uniform(0.0, 3.0, 3))
        if t1 - t0 < 0.05 or t2 - t1 < 0.05:
            continue
        theta0 = float(rng.uniform(0, 2 * math.pi))
        p1 = transition_prob(GRID, t1, theta0, t0, KP)
        composed = np.array(
            [
                np.sum(transition_prob(th, t2, GRID, t1, KP) * p1) * DX
                for th in GRID[::16]
            ]
        )
        direct = transition_prob(GRID[::16], t2, theta0, t0, KP)
        assert np.max(np.abs(composed - direct)) < 1e-10


def test_detailed_balance(rng):
    # uniform stationary measure: kernel symmetric in its angle arguments
    for _ in range(20):
        a, b = rng.uniform(0, 2 * math.pi, 2)
        t = float(rng.uniform(0.05, 5.0))
        assert transition_prob(a, t, b, 0.0, KP) == pytest.approx(
            float(transition_prob(b, t, a, 0.0, KP)), rel=1e-12
        )


def test_two_sided_density_normalized_and_pinned():
    for t in (0.5, 1.75, 3.0):
        w = two_sided_density(GRID, t, BC, KP)
        assert np.all(w >= 0)
        assert w.sum() * DX == pytest.approx(1.0, abs=1e-9)
    # near the boundaries the bridge concentrates on the boundary angles
    w0 = two_sided_density(GRID, 0.01, BC, KP)
    assert abs(GRID[np.argmax(w0)] - BC.theta_in) < 0.1
    wT = two_sided_density(GRID, BC.t_total - 0.01, BC, KP)
    assert abs(GRID[np.argmax(wT)] - (BC.theta_f % (2 * math.pi))) < 0.1


def test_two_sided_marginalizes_two_point_joint():
    # integrating the two-point bridge joint over the earlier point recovers
    # the one-point bridge density
    t1, t2 = 1.0, 2.2
    p_in = transition_prob(GRID, t1, BC.theta_in, 0.0, KP)
    p_mid = transition_prob(GRID[:, None], t2, GRID[None, :], t1, KP)
    p_out = transition_prob(BC.theta_f, BC.t_total, GRID, t2, KP)
    den = float(transition_prob(BC.theta_f, BC.t_total, BC.theta_in, 0.0, KP))
    w2 = p_out[:, None] * p_mid * p_in[None, :] / den  # (theta2, theta1)
    marg = w2.sum(axis=1) * DX
    w1 = two_sided_density(GRID, t2, BC, KP)
    assert np.max(np.abs(marg - w1)) < 1e-8


# The conditional average as a series over the kernel's Fourier modes is, by
# Poisson resummation, analytic's resummed winding series; the tests below
# force that branch and check it against the direct winding sum and against
# quadrature of the kernel.

def test_cond_avg_fpe_matches_analytic(rng):
    for _ in range(20):
        t1, t2 = np.sort(rng.uniform(0.05, BC.t_total - 0.05, 2))
        s1, s2 = rng.choice([-1, 1], 2)
        src = ((int(s1), float(t1)), (int(s2), float(t2)))
        a = source_average(src, BC, resummed=False)
        b = source_average(src, BC, resummed=True)
        assert abs(a - b) < 1e-10
        # either branch takes the sources in any order
        assert source_average(src[::-1], BC, resummed=False) == pytest.approx(a, abs=1e-14)
        assert source_average(src[::-1], BC, resummed=True) == pytest.approx(b, abs=1e-14)


def test_cond_avg_fpe_truncated_series_raises(monkeypatch):
    src = ((1, 0.9), (-1, 2.1))
    source_average(src, BC, resummed=True)
    monkeypatch.setattr(analytic, "MAX_WINDINGS", 1)
    with pytest.raises(SeriesError, match="not converged"):
        source_average(src, BC, resummed=True)
    monkeypatch.setattr(fpe, "MAX_MODES", 1)
    with pytest.raises(SeriesError, match="not converged"):
        transition_prob(0.3, 1.0, 0.7, 0.0, KP)  # the Fourier branch


def test_cond_avg_fpe_raises_where_its_mode_sum_cancels():
    # at T/tau = 0.02 with theta_f - theta_in = 2.18 the plain Fourier-mode
    # sum cancels to ~3e-15 against terms of total modulus 18; at T/tau = 0.01
    # its 64-mode tails are not converged before it gets that far
    bc = BoundaryCondition(math.pi / 4, 1.0, math.pi / 4 + 2.18, 0.02)
    src = [(-1, 0.004), (1, 0.015)]
    exact = source_average(src, bc, resummed=False)
    assert exact == pytest.approx(0.362 + 0.929j, abs=1e-3)
    assert cond_avg_fpe_quadrature(src, bc, KP, grid=4096) == pytest.approx(exact, abs=1e-12)
    with pytest.raises(SeriesError, match="cancelled"):
        source_average(src, bc, resummed=True)


def test_cond_avg_fpe_matches_quadrature():
    src = ((1, 0.9), (-1, 2.1))
    series = source_average(src, BC, resummed=True)
    quad = cond_avg_fpe_quadrature(src, BC, KP)
    assert abs(series - quad) < 1e-8
    # single source
    src1 = ((1, 1.3),)
    series1 = source_average(src1, BC, resummed=True)
    assert abs(series1 - cond_avg_fpe_quadrature(src1, BC, KP)) < 1e-8
