import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, norm

from xzmeas.core import ChannelConfig, DomainError, SimConfig, polar_to_bloch
from xzmeas.estimator import (
    SelectionCriterion,
    SelectionError,
    SubEnsemble,
    correlate,
    covariance,
    read_correlator_csv,
    select,
    select_polar,
    write_correlator_csv,
)
from xzmeas.fpe import KernelParams, transition_prob
from xzmeas.sde import polar_ensemble, polar_states, run_ensemble


TIMES = np.linspace(0.0, 3.5, 15)


def make_ensemble(count=50_000, seed=4, theta_in=math.pi / 4):
    th = polar_ensemble(theta_in, 1.0, TIMES, count, seed=seed)
    return SubEnsemble(
        times=TIMES, states=polar_states(th), accepted_count=count, total_count=count
    )


@pytest.fixture(scope="module")
def ens():
    return make_ensemble()


def test_select_angular_window(ens):
    crit = SelectionCriterion(
        theta_in=math.pi / 4, t_total=3.5, theta_f=7 * math.pi / 8, angular_window=0.3
    )
    sub = select(ens, crit)
    assert 0 < sub.accepted_count < ens.accepted_count
    finals = np.arctan2(sub.states[:, -1, 0], sub.states[:, -1, 2])
    delta = np.mod(finals - crit.theta_f + math.pi, 2 * math.pi) - math.pi
    assert np.all(np.abs(delta) <= crit.angular_window + 1e-12)
    assert sub.acceptance_rate == sub.accepted_count / ens.total_count


def test_select_keeping_every_member_is_a_view(ens):
    # without theta_f every member is kept; a copy of the states would double
    # a campaign's peak memory
    sub = select(ens, SelectionCriterion(theta_in=math.pi / 4, t_total=2.0))
    idx = int(np.argmin(np.abs(TIMES - 2.0)))
    assert sub.accepted_count == sub.total_count == ens.total_count
    assert np.shares_memory(sub.states, ens.states)
    assert np.array_equal(sub.states, ens.states[:, :idx + 1])


def test_select_window_wraps_windings(ens):
    # angles are unwrapped; selection must treat theta_f modulo 2 pi
    crit = SelectionCriterion(
        theta_in=math.pi / 4,
        t_total=3.5,
        theta_f=7 * math.pi / 8 + 2 * math.pi,
        angular_window=0.3,
    )
    base = SelectionCriterion(
        theta_in=math.pi / 4, t_total=3.5, theta_f=7 * math.pi / 8, angular_window=0.3
    )
    assert select(ens, crit).accepted_count == select(ens, base).accepted_count


def test_select_euclidean(ens):
    crit = SelectionCriterion(
        theta_in=math.pi / 4,
        t_total=3.5,
        theta_f=7 * math.pi / 8,
        angular_window=0.3,
        euclidean=True,
    )
    sub = select(ens, crit)
    # on the unit circle a chord of length w subtends ~w of arc
    assert 0 < sub.accepted_count < ens.accepted_count


@pytest.mark.parametrize("theta_in,theta_f", [(math.nan, 0.5), (0.3, math.inf), (-math.inf, None)])
def test_selection_rejects_non_finite_angles(theta_in, theta_f):
    with pytest.raises(DomainError, match="finite"):
        SelectionCriterion(theta_in, 3.5, theta_f)


def test_selection_refuses_angles_coarser_than_its_window():
    # the window must span 1024 float spacings of theta_in and of theta_f
    SelectionCriterion(1e10, 3.5, 1e10 + 1.0, 0.05)  # spacing 1.9e-6
    for theta_in, theta_f, name in ((1e15, 0.3, "theta_in"), (0.3, 1e12, "theta_f")):
        with pytest.raises(DomainError, match=f"{name} .* too large for angular_window 0.05"):
            SelectionCriterion(theta_in, 3.5, theta_f, 0.05)
    SelectionCriterion(1e300, 3.5)  # no window, nothing to resolve


def test_select_empty_errors(ens):
    crit = SelectionCriterion(
        theta_in=math.pi / 4,
        t_total=3.5,
        theta_f=7 * math.pi / 8,
        angular_window=1e-9,
    )
    with pytest.raises(SelectionError):
        select(ens, crit)


CRITERIA = [
    # the window sits a winding away from the sampled angles
    SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8 + 2 * math.pi, 0.3),
    SelectionCriterion(math.pi / 4, 2.5, 7 * math.pi / 8, 0.3, euclidean=True),
    SelectionCriterion(math.pi / 4, 2.5),
]
CRITERIA_IDS = ["window_with_winding", "euclidean", "no_theta_f"]


@pytest.mark.parametrize("crit", CRITERIA[2:], ids=CRITERIA_IDS[2:])
def test_select_polar_equals_select_on_bloch_states(crit):
    # without theta_f the final angles are polar_ensemble's on the horizon
    # alone, so every member and its final state match select on those states
    idx = int(np.argmin(np.abs(TIMES - crit.t_total)))
    horizon = TIMES[idx:idx + 1]
    final = polar_ensemble(math.pi / 4, 1.0, horizon, 20_000, seed=9)
    ref = select(SubEnsemble(horizon, polar_states(final), 20_000, 20_000), crit)
    sub = select_polar(crit, 1.0, TIMES, 20_000, seed=9)
    assert np.array_equal(sub.times, TIMES[: idx + 1])
    assert sub.states.shape == (ref.accepted_count, idx + 1, 3)
    assert np.array_equal(sub.states[:, -1], ref.states[:, 0])
    assert np.all(sub.states[:, 0] == polar_states(np.array(math.pi / 4)))
    assert (sub.accepted_count, sub.total_count) == (ref.accepted_count, ref.total_count)


# windows for the exact-law tests, one per proposal of the truncated-normal
# sampler: uniform in a tail (winding, euclidean), exponential in a far tail
# at T/tau = 0.05, the normal itself on a wide window around the mode
WINDOWED = CRITERIA[:2] + [
    SelectionCriterion(math.pi / 4, 0.05, math.pi / 4 + 0.9, 0.2),
    SelectionCriterion(math.pi / 4, 1.0, math.pi / 4 + 0.5, 3.0),
]
WINDOWED_IDS = ["window_with_winding", "euclidean", "tail", "wide"]


def half_width(crit):
    if crit.euclidean:
        return 2 * math.asin(min(crit.angular_window / 2, 1.0))
    return crit.angular_window


def window_probability(crit, tau_m=1.0):
    """P(theta(T) within the window mod 2 pi) for theta(T) ~ N(theta_in, T/tau_m)."""
    law = norm(crit.theta_in, math.sqrt(crit.t_total / tau_m))
    w = half_width(crit)
    centers = crit.theta_f + 2 * math.pi * np.arange(-60, 61)
    lo, hi = centers - w, centers + w
    right = lo > crit.theta_in  # above the mean, differences of upper tails
    mass = np.where(right, law.sf(lo) - law.sf(hi), law.cdf(hi) - law.cdf(lo))
    return float(mass.sum())


@pytest.mark.parametrize("crit", WINDOWED, ids=WINDOWED_IDS)
def test_select_polar_accepted_count_is_binomial(crit):
    # 60 seeds against Binomial(count, p): the mean, and the spread through
    # the dispersion statistic, which is chi-square with 60 degrees of freedom
    count = 1_000_000 if crit.t_total < 0.1 else 20_000
    p = window_probability(crit)
    k = np.array([select_polar(crit, 1.0, [crit.t_total], count, seed=s).accepted_count
                  for s in range(60)])
    var = count * p * (1 - p)
    assert abs(k.mean() - count * p) <= 4 * math.sqrt(var / len(k))
    dispersion = float(np.sum((k - count * p) ** 2) / var)
    assert 1e-4 < chi2.sf(dispersion, len(k)) < 1 - 1e-4


@pytest.mark.parametrize(
    "crit", WINDOWED + [SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8, math.pi)],
    ids=WINDOWED_IDS + ["whole_circle"])
def test_select_polar_final_angles_follow_kernel(crit):
    # histogram of the final angle inside the window against the heat kernel
    # of the Fokker-Planck backend, integrated over each bin
    count = 50_000_000 if crit.t_total < 0.1 else 200_000
    sub = select_polar(crit, 1.0, [crit.t_total], count, seed=21)
    final = np.arctan2(sub.states[:, -1, 0], sub.states[:, -1, 2])
    delta = np.mod(final - crit.theta_f + math.pi, 2 * math.pi) - math.pi
    w = half_width(crit)
    edges = np.linspace(-w, w, 21)
    observed, _ = np.histogram(delta, edges)
    assert observed.sum() == sub.accepted_count
    grid = np.linspace(-w, w, 20 * 64 + 1)
    dens = transition_prob(crit.theta_f + grid, crit.t_total, crit.theta_in, 0.0,
                           KernelParams.from_tau(1.0))
    mass = np.array([np.trapezoid(dens[64 * j:64 * j + 65], grid[64 * j:64 * j + 65])
                     for j in range(20)])
    expected = sub.accepted_count * mass / mass.sum()
    assert expected.min() >= 5
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, len(expected) - 1) > 1e-3


@pytest.mark.parametrize("crit", [
    SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8, math.pi),
    SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8, 2.0, euclidean=True),
], ids=["angular", "euclidean"])
def test_select_polar_window_of_whole_circle_accepts_all(crit):
    for seed in range(5):
        assert select_polar(crit, 1.0, TIMES, 10_000, seed=seed).accepted_count == 10_000


def test_select_polar_memory_scales_with_accepted_members():
    # a windowed criterion builds nothing of length count: at 1e7 members the
    # peak traced memory stays below one boolean mask of that length
    crit = SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8, 0.01)
    times = np.array([0.0, 1.75, 3.5])
    count = 10_000_000
    tracemalloc.start()
    try:
        sub = select_polar(crit, 1.0, times, count, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.states.shape == (sub.accepted_count, len(times), 3)
    assert sub.accepted_count < count // 100
    assert peak < count


@pytest.mark.parametrize("count", [0, -5])
def test_select_polar_rejects_count_below_one(count):
    with pytest.raises(ValueError, match="count"):
        select_polar(CRITERIA[0], 1.0, TIMES, count)


@pytest.mark.parametrize("crit", CRITERIA, ids=CRITERIA_IDS)
def test_select_polar_matches_forward_sampling(crit):
    # bridges from accepted final angles against forward paths post-selected
    # by select.  Wide steps make the bridge's conditional variance differ
    # most from a free increment's, so a wrong variance shows.
    count = 100_000
    times = np.array([0.0, 0.75, 1.75, 2.5, 3.5])
    sub = select_polar(crit, 1.0, times, count, seed=3)
    fwd = polar_ensemble(math.pi / 4, 1.0, times, count, seed=5)
    ref = select(SubEnsemble(times, polar_states(fwd), count, count), crit)
    i = 2  # t = 1.75, inside both horizons
    for c in (0, 2):  # <x> and <z>
        v1, v2 = sub.states[:, i, c], ref.states[:, i, c]
        se = math.hypot(v1.std(ddof=1) / math.sqrt(len(v1)), v2.std(ddof=1) / math.sqrt(len(v2)))
        assert abs(v1.mean() - v2.mean()) <= 4 * se
    for a, b, t1 in (("z", "x", times[1]), ("z", "z", times[i])):
        v1, e1 = correlate(sub, a, b, float(t1), float(times[i]))
        v2, e2 = correlate(ref, a, b, float(t1), float(times[i]))
        assert abs(v1 - v2) <= 4 * math.hypot(e1, e2)


def test_select_polar_empty_errors():
    crit = SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8, angular_window=1e-9)
    with pytest.raises(SelectionError):
        select_polar(crit, 1.0, TIMES, 1000, seed=9)


def test_correlate_symmetry(ens):
    v1, e1 = correlate(ens, "z", "x", 1.0, 2.0)
    v2, e2 = correlate(ens, "x", "z", 2.0, 1.0)
    assert v1 == v2 and e1 == e2


def test_covariance_variance_consistency(ens):
    # the equal-time, equal-coordinate covariance is the unbiased variance
    cv, cse = covariance(ens, "z", "z", 1.5, 1.5)
    z = ens.states[:, int(np.argmin(np.abs(ens.times - 1.5))), 2]
    assert cv == pytest.approx(np.var(z, ddof=1), rel=1e-12)
    assert cse == pytest.approx(np.std((z - z.mean()) ** 2, ddof=1) / math.sqrt(len(z)), rel=1e-12)


def test_se_scales_inverse_sqrt_count():
    small = make_ensemble(count=4_000, seed=11)
    big = make_ensemble(count=16_000, seed=12)
    _, se_s = correlate(small, "z", "z", 1.0, 2.0)
    _, se_b = correlate(big, "z", "z", 1.0, 2.0)
    assert se_b == pytest.approx(se_s / 2, rel=0.2)


def test_reordering_invariance(ens):
    perm = np.random.default_rng(0).permutation(ens.accepted_count)
    shuffled = SubEnsemble(
        times=ens.times,
        states=ens.states[perm],
        accepted_count=ens.accepted_count,
        total_count=ens.total_count,
    )
    v1, e1 = correlate(ens, "z", "x", 0.5, 2.5)
    v2, e2 = correlate(shuffled, "z", "x", 0.5, 2.5)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_window_halving_stability(ens):
    # estimates are stable within combined SE when the window halves
    base = SelectionCriterion(
        theta_in=math.pi / 4, t_total=3.5, theta_f=7 * math.pi / 8, angular_window=0.4
    )
    half = SelectionCriterion(
        theta_in=math.pi / 4, t_total=3.5, theta_f=7 * math.pi / 8, angular_window=0.2
    )
    s1 = select(ens, base)
    s2 = select(ens, half)
    for kind in (("z", "z"), ("z", "x")):
        v1, e1 = correlate(s1, kind[0], kind[1], 1.0, 2.0)
        v2, e2 = correlate(s2, kind[0], kind[1], 1.0, 2.0)
        assert abs(v1 - v2) <= 3 * math.hypot(e1, e2)


def test_snap_index_rejects_off_grid(ens):
    with pytest.raises(DomainError):
        correlate(ens, "z", "z", 1.0, 17.0)
    with pytest.raises(DomainError, match="outside"):
        covariance(ens, "z", "z", math.nan, 1.0)


def test_snap_on_non_uniform_grid_uses_smallest_spacing():
    # select_polar's grids are unions of t1 grids and single times; a time
    # 0.9 from the nearest stored one is not stored, whatever the first step
    times = np.array([0.0, 2.0, 2.1, 5.0])
    th = polar_ensemble(0.3, 1.0, times, 50, seed=1)
    sub = SubEnsemble(times, polar_states(th), 50, 50)
    for estimate in (correlate, covariance):
        with pytest.raises(DomainError, match="time 3.0 lies outside"):
            estimate(sub, "z", "z", 3.0, 3.0)
        with pytest.raises(DomainError, match="time 3.0 lies outside"):
            estimate(sub, "z", "x", times, np.array([2.1, 3.0])[:, None])
    assert correlate(sub, "z", "x", 2.1 + 0.04, 5.0) == correlate(sub, "z", "x", 2.1, 5.0)


def reference(estimate, sub, a, b, t1, t2):
    """The 1-D formulas on one strided member column per time."""
    i, j = (int(np.argmin(np.abs(sub.times - t))) for t in (t1, t2))
    va, vb = sub.states[:, i, "xyz".index(a)], sub.states[:, j, "xyz".index(b)]
    n = len(va)
    if estimate is correlate:
        p = va * vb
        return float(np.mean(p)), float(np.std(p, ddof=1) / math.sqrt(n))
    da, db = va - va.mean(), vb - vb.mean()
    return float(np.dot(da, db) / (n - 1)), float(np.std(da * db, ddof=1) / math.sqrt(n))


def kernel_view():
    cfg = SimConfig(channels=(ChannelConfig(0.0, 0.5, 0.8), ChannelConfig(1.2, 0.4, 0.6)),
                    dt=0.02, t_final=0.5, initial_state=polar_to_bloch(0.7))
    ens = run_ensemble(cfg, 9000)
    assert not ens.states.flags.c_contiguous
    return select(ens, SelectionCriterion(0.7, 0.5))


LAYOUTS = {
    "c_ordered": lambda: make_ensemble(count=9000, seed=5),
    "kernel_view": kernel_view,
    "windowed_copy": lambda: select(make_ensemble(count=30_000, seed=6),
                                    SelectionCriterion(math.pi / 4, 3.5, 7 * math.pi / 8, 0.6)),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("estimate", [correlate, covariance])
def test_grid_calls_equal_scalar_calls(layout, estimate):
    # 0 ulp: a campaign's table must not depend on how many points a call takes
    sub = LAYOUTS[layout]()
    grid = sub.times[::2]
    t2 = float(sub.times[len(sub.times) // 3])
    for a, b in (("z", "x"), ("x", "x")):
        for t1s, t2s in ((grid, t2), (grid, grid), (grid[:, None], sub.times[1::4])):
            values, ses = estimate(sub, a, b, t1s, t2s)
            assert values.shape == ses.shape == np.broadcast_shapes(np.shape(t1s), np.shape(t2s))
            for i in np.ndindex(values.shape):
                u, w = np.broadcast_arrays(t1s, t2s)
                scalar = estimate(sub, a, b, float(u[i]), float(w[i]))
                assert (float(values[i]), float(ses[i])) == scalar
                assert scalar == reference(estimate, sub, a, b, float(u[i]), float(w[i]))


@pytest.mark.parametrize("estimate", [correlate, covariance])
def test_scalar_times_give_python_floats(ens, estimate):
    # bench digests hash the repr of these; an np.float64 would change it
    for t1, t2 in ((1.0, 2.0), (np.float64(1.0), 2), (np.array(1.0), np.array(2.0))):
        value, se = estimate(ens, "z", "x", t1, t2)
        assert type(value) is float and type(se) is float


@pytest.mark.parametrize("estimate", [correlate, covariance])
def test_accepted_count_is_checked_before_coordinates(ens, estimate):
    one = SubEnsemble(ens.times, ens.states[:1], 1, 1)
    with pytest.raises(DomainError, match="at least 2"):
        estimate(one, "q", "z", 1.0, 17.0)
    with pytest.raises(DomainError, match="unknown coordinate 'q'"):
        estimate(ens, "q", "z", 17.0, 1.0)


def test_correlator_csv_roundtrip(tmp_path):
    rows = [
        (0.5, 2.0, "zz", 0.123456789012345, 0.001, 100, 1000),
        (1.0, 2.0, "zx", -3.2e-5, 0.002, 100, 1000),
    ]
    path = tmp_path / "corr.csv"
    write_correlator_csv(path, rows)
    back = read_correlator_csv(path)
    assert back == rows
    # repr round-trips floats exactly, so a rewrite is byte-identical
    path2 = tmp_path / "corr2.csv"
    write_correlator_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_correlator_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t1,t2,kind,value,std_error,accepted,total\n1,2,zz,0.1\n")
    with pytest.raises(ValueError, match=":2"):
        read_correlator_csv(path)
