import math

import numpy as np
import pytest

from xzmeas.core import DomainError
from xzmeas.estimator import (
    SelectionCriterion,
    SelectionError,
    SubEnsemble,
    correlate,
    correlate_grid,
    covariance,
    read_correlator_csv,
    select,
    select_polar,
    variance,
    write_correlator_csv,
)
from xzmeas.sde import polar_ensemble, polar_states


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


@pytest.mark.parametrize("crit", CRITERIA, ids=CRITERIA_IDS)
def test_select_polar_equals_select_on_bloch_states(crit):
    # the final angles are polar_ensemble's on the horizon alone, so the
    # acceptance and the final states match select on those Bloch states
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
    cv, cse = covariance(ens, "z", "z", 1.5, 1.5)
    vv, vse = variance(ens, "z", 1.5)
    assert cv == vv and cse == vse


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


def test_correlate_grid(ens):
    grid = TIMES[1:6]
    res = correlate_grid(ens, "z", "x", grid, 2.0)
    assert res.values.shape == grid.shape
    for j, t in enumerate(grid):
        v, e = correlate(ens, "z", "x", float(t), 2.0)
        assert res.values[j] == v
        assert res.std_errors[j] == e


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
