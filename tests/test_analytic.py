import cmath
import math

import numpy as np
import pytest

from xzmeas.analytic import (
    MAX_POINTS,
    BoundaryCondition,
    SeriesError,
    SourceSpec,
    cond_avg_phase,
    correlator_cond,
    correlator_npoint,
    correlator_pre,
    green,
    subens_avg_state,
)
from xzmeas.core import DomainError
from xzmeas.fpe import KernelParams, transition_prob


BC = BoundaryCondition(theta_in=math.pi / 4, tau_m=1.0, theta_f=7 * math.pi / 8, t_total=3.5)


def test_green_function_properties():
    T = 3.5
    # vanishes when either argument hits a boundary
    assert green(0.0, 1.2, T) == pytest.approx(0.0, abs=1e-15)
    assert green(1.2, T, T) == pytest.approx(0.0, abs=1e-15)
    # symmetric
    assert green(1.0, 2.0, T) == pytest.approx(green(2.0, 1.0, T))
    # explicit value: t < t', G = -(1 - t'/T) t
    assert green(1.0, 2.0, T) == pytest.approx(-(1 - 2.0 / T) * 1.0)
    # equal times: G(t,t) = -(1 - t/T) t
    assert green(1.5, 1.5, T) == pytest.approx(-(1 - 1.5 / T) * 1.5)


def test_correlator_pre_closed_forms(rng):
    # zz with t1 = t2 = t collapses to cos^2(theta_in) + sinh/cosh mix
    theta, tau = math.pi / 4, 1.0
    assert correlator_pre("zz", 0.0, 0.0, theta, tau) == pytest.approx(
        math.cos(theta) ** 2
    )
    assert correlator_pre("zx", 1.0, 2.0, theta, tau) == pytest.approx(
        0.5 * math.exp(-2.5), abs=1e-14
    )
    for _ in range(30):
        t1, t2 = rng.uniform(0, 4, 2)
        tm = min(t1, t2)
        pref = math.exp(-(t1 + t2) / (2 * tau))
        assert correlator_pre("zz", t1, t2, theta, tau) == pytest.approx(
            pref
            * (
                math.cos(theta) ** 2 * math.cosh(tm / tau)
                + math.sin(theta) ** 2 * math.sinh(tm / tau)
            ),
            rel=1e-12,
        )
        assert correlator_pre("zx", t1, t2, theta, tau) == pytest.approx(
            pref * math.exp(-tm / tau) * 0.5 * math.sin(2 * theta), rel=1e-12
        )


def test_correlator_symmetry(rng):
    for _ in range(20):
        t1, t2 = rng.uniform(0.05, BC.t_total - 0.05, 2)
        assert correlator_cond("zx", t1, t2, BC) == pytest.approx(
            correlator_cond("xz", t2, t1, BC), rel=1e-12, abs=1e-14
        )
        assert correlator_cond("zz", t1, t2, BC) == pytest.approx(
            correlator_cond("zz", t2, t1, BC), rel=1e-12, abs=1e-14
        )
        assert correlator_cond("xx", t1, t2, BC) == pytest.approx(
            correlator_cond("xx", t2, t1, BC), rel=1e-12, abs=1e-14
        )


def test_imaginary_parts_negligible(rng):
    for _ in range(40):
        t = sorted(rng.uniform(0.05, BC.t_total - 0.05, 2))
        src = SourceSpec(points=((1, t[0]), (-1, t[1])))
        val = cond_avg_phase(src, BC)
        assert isinstance(val, complex)
        # the correlator assembly cancels imaginary parts below 1e-12
        for kind in ("zz", "zx", "xx"):
            assert isinstance(correlator_cond(kind, t[0], t[1], BC), float)


def test_cauchy_schwarz(rng):
    for _ in range(30):
        t = float(rng.uniform(0.05, BC.t_total - 0.05))
        zz = correlator_cond("zz", t, t, BC)
        xx = correlator_cond("xx", t, t, BC)
        zx = correlator_cond("zx", t, t, BC)
        assert abs(zx) <= math.sqrt(zz * xx) + 1e-12


def test_winding_sum_converged(rng):
    for _ in range(20):
        t1, t2 = rng.uniform(0.05, BC.t_total - 0.05, 2)
        src = SourceSpec(points=tuple(sorted([(1, float(t1)), (1, float(t2))], key=lambda p: p[1])))
        a = cond_avg_phase(src, BC, n_max=32)
        b = cond_avg_phase(src, BC, n_max=64)
        assert abs(a - b) < 1e-12


def test_resummation_branch_continuity():
    # the direct winding sum and its Poisson-resummed form are equal; values
    # straddling the branch switch at T/tau = 1 must agree to rounding, and
    # tiny horizons must stay finite on the direct branch
    from xzmeas.analytic import _winding_ratio, _winding_ratio_resummed

    # below the threshold _winding_ratio takes the direct branch; the resummed
    # form must match it wherever both converge
    for T in (0.3, 0.6, 0.9, 0.999):
        direct = _winding_ratio(0.35, 0.2, T, 1.0, 64)
        resummed = _winding_ratio_resummed(0.35, 0.2, T, 1.0, 64)
        assert abs(direct - resummed) < 1e-12 * max(1.0, abs(direct))
    lo = _winding_ratio(0.35, 0.2, 0.9999, 1.0, 64)
    hi = _winding_ratio(0.35, 0.2, 1.0001, 1.0, 64)
    assert abs(lo - hi) < 1e-3 * abs(lo)
    for frac in (1e-4, 1e-3, 0.009, 0.02):
        bc = BoundaryCondition(theta_in=0.2, tau_m=1.0, theta_f=0.25, t_total=frac)
        src = SourceSpec(points=((1, frac / 2),))
        val = cond_avg_phase(src, bc)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_law_of_total_expectation():
    # integrating the conditional correlator against the final-angle
    # distribution recovers the pre-selected correlator
    tau, T = 1.0, 3.5
    kp = KernelParams.from_tau(tau)
    thetas = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    w = transition_prob(thetas, T, math.pi / 4, 0.0, kp)
    dx = thetas[1] - thetas[0]
    for kind, t1, t2 in (("zz", 0.7, 1.9), ("zx", 0.7, 1.9), ("xx", 1.2, 2.4)):
        total = 0.0
        for theta_f, wf in zip(thetas, w):
            bc = BoundaryCondition(math.pi / 4, tau, float(theta_f), T)
            total += correlator_cond(kind, t1, t2, bc) * wf * dx
        assert total == pytest.approx(
            correlator_pre(kind, t1, t2, math.pi / 4, tau), abs=1e-8
        )


def test_unconditional_reduces_to_preselected():
    bc_free = BoundaryCondition(theta_in=math.pi / 4, tau_m=1.0)
    assert not bc_free.post_selected
    assert correlator_cond("zx", 1.0, 2.0, bc_free) == pytest.approx(
        correlator_pre("zx", 1.0, 2.0, math.pi / 4, 1.0), rel=1e-12
    )
    # long times, where cosh(tmin/tau) alone overflows
    for kind in ("zz", "zx", "xx"):
        assert correlator_cond(kind, 750.0, 800.0, bc_free) == pytest.approx(
            correlator_pre(kind, 750.0, 800.0, math.pi / 4, 1.0), rel=1e-12, abs=1e-300
        )


def test_npoint_reduces_to_two_point():
    v2 = correlator_cond("zx", 0.8, 2.1, BC)
    vn = correlator_npoint(("z", "x"), (0.8, 2.1), BC)
    assert vn == pytest.approx(v2, rel=1e-12)


def test_npoint_three_sources_finite():
    v = correlator_npoint(("x", "z", "x"), (0.5, 1.5, 2.5), BC)
    assert np.isfinite(v)
    # odd number of x insertions at theta_in = 0 with symmetric boundaries
    # vanishes by parity
    bc_sym = BoundaryCondition(theta_in=0.0, tau_m=1.0, theta_f=0.0, t_total=3.5)
    v_sym = correlator_npoint(("x", "z", "x"), (0.5, 1.5, 2.5), bc_sym)
    assert v_sym != 0.0  # even count of x is parity-even, stays finite
    v_odd = correlator_npoint(("x",), (1.5,), bc_sym)
    assert v_odd == pytest.approx(0.0, abs=1e-12)


def test_npoint_caps_points():
    n = MAX_POINTS + 1
    times = np.linspace(0.2, 3.3, n)
    with pytest.raises(DomainError, match=f"MAX_POINTS = {MAX_POINTS}"):
        correlator_npoint("z" * n, times, BC)


def test_truncated_winding_series_raises():
    # one winding either side leaves tails far above SERIES_TOL on both branches
    direct = BoundaryCondition(theta_in=0.3, tau_m=1.0, theta_f=2.0, t_total=1.0)
    resummed = BoundaryCondition(theta_in=0.3, tau_m=1.0, theta_f=2.0, t_total=3.5)
    for bc in (direct, resummed):
        with pytest.raises(SeriesError, match="not converged"):
            cond_avg_phase(((1, 0.4),), bc, n_max=1)
        cond_avg_phase(((1, 0.4),), bc)
    with pytest.raises(SeriesError, match="not converged"):
        subens_avg_state(0.5, direct, n_max=1)
    subens_avg_state(0.5, direct)


@pytest.mark.parametrize(
    "bc",
    [
        BoundaryCondition(theta_in=0.3, tau_m=1.0, theta_f=2.0, t_total=0.5),
        BoundaryCondition(theta_in=0.3, tau_m=1.0, theta_f=2.0, t_total=3.5),
        BoundaryCondition(theta_in=0.3, tau_m=1.0),
    ],
    ids=["direct", "resummed", "preselected"],
)
def test_correlator_cond_on_t1_array_equals_scalar_calls(bc):
    T = bc.t_total or 3.5
    t1 = np.linspace(0.0, T, 16)
    t2 = 0.4 * T
    for kind in ("zz", "zx", "xz", "xx"):
        values = correlator_cond(kind, t1, t2, bc)
        assert isinstance(values, np.ndarray) and values.shape == (16,)
        scalar = [correlator_cond(kind, float(t), t2, bc) for t in t1]
        np.testing.assert_allclose(values, scalar, rtol=0, atol=1e-12)
        if not bc.post_selected:
            pre = correlator_pre(kind, t1, t2, bc.theta_in, bc.tau_m)
            np.testing.assert_allclose(values, pre, rtol=0, atol=1e-12)
            scalar_pre = [correlator_pre(kind, float(t), t2, bc.theta_in, bc.tau_m) for t in t1]
            np.testing.assert_allclose(pre, scalar_pre, rtol=0, atol=1e-12)


def test_scalar_t1_returns_float():
    for bc in (BC, BoundaryCondition(theta_in=0.3, tau_m=1.0)):
        for kind in ("zz", "zx", "xz", "xx"):
            assert type(correlator_cond(kind, 1.2, 2.0, bc)) is float
            assert type(correlator_cond(kind, np.float64(1.2), 2.0, bc)) is float
        assert type(correlator_pre("zz", 1.2, 2.0, 0.3, 1.0)) is float
    assert type(correlator_npoint("zxz", (0.5, 1.5, 2.5), BC)) is float


def test_npoint_rows_equal_one_row_at_a_time(rng):
    times = np.sort(rng.uniform(0.0, BC.t_total, (7, 3)), axis=1)
    times[0] = (0.0, 1.0, BC.t_total)  # sources on both boundaries
    for kinds in ("zzz", "xzx", "zxx"):
        rows = correlator_npoint(kinds, times, BC)
        assert rows.shape == (7,)
        one = [correlator_npoint(kinds, row, BC) for row in times]
        np.testing.assert_allclose(rows, one, rtol=0, atol=1e-12)


def test_green_on_arrays_matches_scalar_calls(rng):
    T = 3.5
    t, t2 = rng.uniform(0.0, T, (2, 9))
    g = green(t[:, None], t2[None, :], T)
    assert g.shape == (9, 9)
    for i in range(9):
        for j in range(9):
            assert g[i, j] == green(float(t[i]), float(t2[j]), T)
    with pytest.raises(DomainError):
        green(np.array([0.5, T + 0.1]), 1.0, T)


def test_truncated_winding_series_raises_on_t1_array():
    t1 = np.linspace(0.1, 0.9, 16)
    for t_total in (1.0, 3.5):  # direct and resummed branch
        bc = BoundaryCondition(theta_in=0.3, tau_m=1.0, theta_f=2.0, t_total=t_total)
        with pytest.raises(SeriesError, match="not converged"):
            correlator_cond("zx", t1, 0.5, bc, n_max=1)
        assert np.all(np.isfinite(correlator_cond("zx", t1, 0.5, bc)))


def test_winding_ratio_skips_only_vanishing_terms(rng):
    # both branches sum only the terms whose scaled weight is not exactly 0.0;
    # a plain sum over a far wider lattice must agree to rounding
    from xzmeas.analytic import _winding_ratio

    def plain(dtheta, S, T, tau):
        if T / tau <= 1.0:
            u = dtheta + 2 * math.pi * np.arange(-200, 201)
            e = -(u**2) * tau / (2 * T)
            num = np.exp(e - e.max() + 1j * S[:, None] * u / T).sum(axis=1)
            return num / np.exp(e - e.max()).sum()
        k = np.arange(-300, 301)
        num = np.exp(1j * k * dtheta - (k * T - S[:, None]) ** 2 / (2 * tau * T)).sum(axis=1)
        return num / np.exp(1j * k * dtheta - k**2 * T / (2 * tau)).sum()

    for T in (0.05, 0.3, 0.99, 1.01, 3.5, 10.0, 30.0):
        for _ in range(5):
            dtheta = float(rng.uniform(-7.0, 7.0))
            S = rng.uniform(-2 * T, 2 * T, 8)
            ratio = _winding_ratio(dtheta, S, T, 1.0, 64)
            np.testing.assert_allclose(ratio, plain(dtheta, S, T, 1.0), rtol=0, atol=1e-13)


def test_check_tails_checks_every_row():
    from xzmeas.analytic import _check_tails

    k = np.arange(-8.0, 9.0)
    converged = -(k**2)  # end terms e^-64 below the peak
    peaks = _check_tails(np.stack([converged, converged - 2.0]))
    np.testing.assert_array_equal(peaks, [0.0, -2.0])
    with pytest.raises(SeriesError, match="not converged"):
        _check_tails(np.stack([converged, converged, -0.1 * k**2]))


def test_array_path_keeps_domain_checks():
    with pytest.raises(DomainError, match="source times"):
        correlator_cond("zz", np.array([0.5, BC.t_total + 0.1]), 1.0, BC)
    with pytest.raises(DomainError, match="n_max"):
        correlator_cond("zz", np.array([0.5, 1.0]), 1.0, BC, n_max=0)
    with pytest.raises(DomainError, match="n_max"):
        correlator_cond("zz", np.array([0.5, 1.0]), 1.0, BC, n_max=65)
    with pytest.raises(DomainError, match="unknown correlator kind"):
        correlator_cond("zy", np.array([0.5, 1.0]), 1.0, BC)


@pytest.mark.parametrize("theta_in,theta_f", [(math.nan, 0.5), (0.3, math.inf), (-math.inf, None)])
def test_boundary_rejects_non_finite_angles(theta_in, theta_f):
    with pytest.raises(DomainError, match="finite"):
        BoundaryCondition(theta_in, 1.0, theta_f, 3.5)


def test_subens_avg_state_boundary_pinning():
    bc = BoundaryCondition(theta_in=math.pi / 4, tau_m=1.0, theta_f=7 * math.pi / 8, t_total=10.0)
    q0 = subens_avg_state(0.0, bc)
    qT = subens_avg_state(bc.t_total, bc)
    assert q0.x == pytest.approx(math.sin(bc.theta_in), abs=1e-12)
    assert q0.z == pytest.approx(math.cos(bc.theta_in), abs=1e-12)
    assert qT.x == pytest.approx(math.sin(bc.theta_f), abs=1e-12)
    assert qT.z == pytest.approx(math.cos(bc.theta_f), abs=1e-12)


def test_subens_avg_state_midpoint_mixedness():
    bc = BoundaryCondition(theta_in=math.pi / 4, tau_m=1.0, theta_f=7 * math.pi / 8, t_total=10.0)
    q = subens_avg_state(bc.t_total / 2, bc)
    assert math.hypot(q.x, q.z) < 0.1


def test_source_spec_validation():
    with pytest.raises(Exception):
        SourceSpec(points=((2, 1.0),))  # signs must be +-1
    with pytest.raises(Exception):
        SourceSpec(points=((1, 2.0), (1, 1.0)))  # times must be ascending
