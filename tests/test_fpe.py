import math

import numpy as np
import pytest

from xzmeas.analytic import BoundaryCondition, SeriesError, SourceSpec, cond_avg_phase
from xzmeas.core import DomainError
from xzmeas.fpe import (
    KernelParams,
    _wrapped_gaussian,
    cond_avg_fpe,
    cond_avg_fpe_quadrature,
    transition_prob,
    two_sided_density,
)


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


def test_transition_prob_normalized():
    for t in (0.01, 0.1, 1.0, 10.0):
        p = transition_prob(GRID, t, 0.7, 0.0, KP)
        assert np.all(p >= -1e-13)  # truncation wiggle only
        assert p.sum() * DX == pytest.approx(1.0, abs=1e-10)


def test_transition_prob_series_vs_wrapped_gaussian():
    # both representations agree through the crossover D*dt in [0.005, 0.02]
    from xzmeas.fpe import _fourier_kernel, _wrapped_gaussian

    for x in (0.005, 0.008, 0.01, 0.012, 0.02):
        a = _fourier_kernel(GRID - 0.7, x, KP.n_max)
        b = _wrapped_gaussian(GRID - 0.7, x, KP.n_max)
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.0099])
def test_wrapped_gaussian_truncation_is_exact(x):
    # every winding of the cap, in the same order: the windings left out
    # contribute exactly 0.0, so the truncated sum matches bit for bit.  The
    # points with u^2/(2 var) = 730 get only a subnormal term, which a
    # truncation that reaches too short would lose
    n_max = KP.n_max
    var = 2.0 * x
    edge = math.sqrt(2 * var * 730.0)
    for d in (
        np.linspace(-3 * math.pi, 3 * math.pi, 2001),
        np.array(edge),
        np.array([-edge - 6 * math.pi]),
    ):
        full = np.zeros_like(d)
        for n in range(-n_max, n_max + 1):
            u = d + 2 * math.pi * n
            full += np.exp(-(u**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.array_equal(_wrapped_gaussian(d, x, n_max), full)


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


def test_cond_avg_fpe_matches_analytic(rng):
    for _ in range(20):
        t1, t2 = np.sort(rng.uniform(0.05, BC.t_total - 0.05, 2))
        s1, s2 = rng.choice([-1, 1], 2)
        src = SourceSpec(points=((int(s1), float(t1)), (int(s2), float(t2))))
        a = cond_avg_phase(src, BC)
        b = cond_avg_fpe(src, BC, KP)
        assert abs(a - b) < 1e-10


def test_cond_avg_fpe_truncated_series_raises():
    src = SourceSpec(points=((1, 0.9), (-1, 2.1)))
    with pytest.raises(SeriesError, match="not converged"):
        cond_avg_fpe(src, BC, KernelParams.from_tau(BC.tau_m, n_max=1))


def test_cond_avg_fpe_raises_where_its_mode_sum_cancels():
    # at T/tau = 0.01 with theta_f - theta_in = 2.18 the plain Fourier-mode
    # sum cancels to ~5e-15 against terms of total modulus 25; unchecked, the
    # series returned 0.95+0.04j where both other routes give 0.363+0.930j
    bc = BoundaryCondition(math.pi / 4, 1.0, math.pi / 4 + 2.18, 0.01)
    src = [(-1, 0.002), (1, 0.0075)]
    exact = cond_avg_phase(src, bc)
    assert exact == pytest.approx(0.363 + 0.930j, abs=1e-3)
    assert cond_avg_fpe_quadrature(src, bc, KP, grid=4096) == pytest.approx(exact, abs=1e-12)
    with pytest.raises(SeriesError, match="cancelled"):
        cond_avg_fpe(src, bc, KP)


def test_cond_avg_fpe_matches_quadrature():
    src = SourceSpec(points=((1, 0.9), (-1, 2.1)))
    series = cond_avg_fpe(src, BC, KP)
    quad = cond_avg_fpe_quadrature(src, BC, KP)
    assert abs(series - quad) < 1e-8
    # single source
    src1 = SourceSpec(points=((1, 1.3),))
    assert abs(cond_avg_fpe(src1, BC, KP) - cond_avg_fpe_quadrature(src1, BC, KP)) < 1e-8
