"""Distribution families against independent quadrature and closed forms.

Expected values below were frozen from mpmath quadrature or hand-derived
closed forms before the implementations existed; none were read back
from the code under test.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrates.distributions import (
    FiniteAtomic,
    PiecewiseUniform1D,
    PowerMargin1D,
    ball_mass,
    bayes_risk,
    eta_ball,
    eta_point,
    in_support,
    load_distribution,
    prob_radius,
    sample_labeled,
)
from nnrates._rng import mix64
from nnrates.errors import DomainError, UnsupportedMethodError, ZeroMassError
from nnrates.metric import FiniteMetric
from references import bayes_one_cdf


def two_atoms(etas=(1.0, 0.0), masses=(0.5, 0.5)):
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return FiniteAtomic(fm, list(masses), list(etas))


# -- finite atomic -------------------------------------------------------------


def test_atomic_validation():
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        FiniteAtomic(fm, [0.6, 0.6], [0.5, 0.5])  # masses exceed 1
    with pytest.raises(ValueError):
        FiniteAtomic(fm, [0.5, 0.5], [1.5, 0.0])  # eta outside [0, 1]
    with pytest.raises(ValueError):
        FiniteAtomic(fm, [0.5], [0.5, 0.5])  # length mismatch


def test_constructors_refuse_nan():
    # NaN fails every comparison, so a check written as "refuse when x < 0"
    # lets it through; each check here is written to fail on NaN
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="etas must lie in"):
        FiniteAtomic(fm, [0.5, 0.5], [math.nan, 0.0])
    flat = ([0.0, 0.5, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="priors must be"):
        PiecewiseUniform1D([math.nan, 1.0], flat, flat)
    with pytest.raises(ValueError, match="breakpoints must"):
        PiecewiseUniform1D([0.5, 0.5], ([0.0, math.nan, 1.0], [1.0, 1.0]), flat)


def test_atomic_ball_mass_and_radius():
    fa = two_atoms()
    assert ball_mass(fa, 0, 0.5, kind="closed").value == 0.5
    assert ball_mass(fa, 0, 1.0, kind="closed").value == 1.0
    assert ball_mass(fa, 0, 1.0, kind="open").value == 0.5
    # half the mass sits on the query atom itself
    assert prob_radius(fa, 0, 0.5) == 0.0
    assert prob_radius(fa, 0, 0.500001) == 1.0
    assert prob_radius(fa, 0, 0.0) == 0.0


def test_atomic_eta_ball_closed_and_augmented():
    fa = two_atoms()
    assert eta_ball(fa, 0, 1.0, kind="closed").value == 0.5
    assert eta_ball(fa, 0, 1.0, kind="open").value == 1.0
    # mixture of the open ball and the closed sphere through the z cut:
    # (nu*S_closed + (1-nu)*S_open) / (nu*m_closed + (1-nu)*m_open)
    got = eta_ball(fa, 0, 1.0, kind="augmented", z_cut=0.5)
    assert got.value == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        eta_ball(fa, 0, 1.0, kind="augmented")  # z_cut required
    with pytest.raises(ZeroMassError):
        eta_ball(two_atoms(masses=(1.0, 0.0)), 1, 0.5, kind="closed")


def test_atomic_point_queries():
    fa = two_atoms(etas=(0.9, 0.2))
    assert eta_point(fa, 0) == 0.9
    assert eta_point(fa, 1) == 0.2
    assert in_support(fa, 0)
    assert not in_support(two_atoms(masses=(1.0, 0.0)), 1)
    assert bayes_risk(fa) == pytest.approx(0.5 * 0.1 + 0.5 * 0.2)


def test_atomic_sampling_statistics():
    fa = two_atoms(etas=(0.8, 0.3), masses=(0.25, 0.75))
    pts = sample_labeled(fa, seed=3, n=20000)
    assert len(pts) == 20000
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    zs = np.array([p.z for p in pts])
    assert np.all((zs >= 0.0) & (zs < 1.0))
    frac0 = float(np.mean(xs == 0))
    assert abs(frac0 - 0.25) < 3.0 * math.sqrt(0.25 * 0.75 / 20000)
    eta0 = float(np.mean(ys[xs == 0]))
    assert abs(eta0 - 0.8) < 0.02
    again = sample_labeled(fa, seed=3, n=20000)
    assert pts == again  # same seed, same draw
    # plain Python values: int atoms, float locations on the line, float
    # tie-break draws, int labels, and indices counting from 0
    for dist, x_type in [(fa, int), (make_piecewise(), float), (PowerMargin1D(2.0), float)]:
        sample = sample_labeled(dist, seed=4, n=50)
        assert [type(p.x) for p in sample] == [x_type] * 50
        assert {type(p.z) for p in sample} == {float}
        assert {type(p.y) for p in sample} == {int}
        assert [p.index for p in sample] == list(range(50))


def test_atomic_draw_past_a_short_mass_prefix_lands_on_mass():
    # the masses sum to 1 - 1e-13, within the 1e-12 allowed; a location
    # uniform past the prefix's end takes the last atom of positive mass,
    # never the massless atom 2
    fm = FiniteMetric([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    fa = FiniteAtomic(fm, [0.5, 0.4999999999999, 0.0], [1.0, 0.0, 0.5])
    assert fa._cum[-1] < 0.99999999999995
    xs, _, ys = fa._draw(np.array([[0.99999999999995, 0.2], [0.5, 0.5], [0.1, 0.1]]))
    assert xs.tolist() == [1, 0]
    assert ys.tolist() == [0, 1]


# -- piecewise uniform ---------------------------------------------------------


def make_piecewise():
    # eta is 0.2 on [0, 0.4), undefined on the density gap [0.4, 0.6),
    # and 0.8 on [0.6, 1]; marginal density is 1.25 on both support cells
    priors = [0.5, 0.5]
    class0 = ([0.0, 0.4, 0.6, 1.0], [2.0, 0.0, 0.5])
    class1 = ([0.0, 0.4, 0.6, 1.0], [0.5, 0.0, 2.0])
    return PiecewiseUniform1D(priors, class0, class1)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseUniform1D([0.7, 0.7], ([0.0, 1.0], [1.0]), ([0.0, 1.0], [1.0]))
    with pytest.raises(ValueError):
        PiecewiseUniform1D([0.5, 0.5], ([0.0, 1.0], [0.9]), ([0.0, 1.0], [1.0]))
    with pytest.raises(ValueError):
        PiecewiseUniform1D([0.5, 0.5], ([0.0, 0.3, 0.2, 1.0], [1, 1, 1]), ([0.0, 1.0], [1.0]))


def test_piecewise_cdf_against_quadrature():
    dist = make_piecewise()

    def f(x):
        if x < 0.4:
            return 1.25
        if x < 0.6:
            return 0.0
        return 1.25

    for t in [0.0, 0.1, 0.39, 0.45, 0.6, 0.77, 1.0]:
        pts = [0.0] + [b for b in (0.4, 0.6) if b < t] + [t]
        want = float(mpmath.quad(f, pts)) if t > 0 else 0.0
        assert dist.cdf(t) == pytest.approx(want, abs=1e-12)


def test_cdf_pair_into_matches_scalar_queries():
    ts = np.array([-0.5, 0.0, 0.1, 0.4, 0.45, 0.5, 0.6, 0.77, 1.0, 1.5])
    for dist in (make_piecewise(), PowerMargin1D(1.0)):
        cdf, ones = np.empty((2, ts.size))
        dist._cdf_pair_into(ts, cdf, ones)
        assert cdf.tolist() == [dist.cdf(t) for t in ts.tolist()]
        assert ones.tolist() == [bayes_one_cdf(dist, t) for t in ts.tolist()]


def test_piecewise_eta_and_bayes_risk():
    dist = make_piecewise()
    assert eta_point(dist, 0.2) == pytest.approx(0.25 / 1.25, abs=1e-15)
    assert eta_point(dist, 0.8) == pytest.approx(0.8, abs=1e-15)
    # g = 0.25 on the left cell, f - g = 1.0; right cell g = 1.0, f - g = 0.25
    want = min(0.25, 1.0) * 0.4 + min(1.0, 0.25) * 0.4
    assert bayes_risk(dist) == pytest.approx(want, abs=1e-14)


def test_piecewise_gap_eta_uses_nearest_positive_side():
    dist = make_piecewise()
    # inside the hole the conditional label frequency is taken from the
    # nearest supported segment, left side winning exact ties
    assert eta_point(dist, 0.45) == pytest.approx(0.2, abs=1e-15)
    assert eta_point(dist, 0.55) == pytest.approx(0.8, abs=1e-15)
    assert eta_point(dist, 0.5) == pytest.approx(0.2, abs=1e-15)
    assert not in_support(dist, 0.5)
    assert in_support(dist, 0.2)


def test_piecewise_prob_radius_closed_forms():
    dist = make_piecewise()
    # at x = 0.2 local density is 1.25, so a mass-p ball has radius p/2.5
    # while the ball stays inside [0, 0.4)
    assert prob_radius(dist, 0.2, 0.25) == pytest.approx(0.1, abs=1e-12)
    # crossing the hole: ball [0.2 - r, 0.2 + r] picks up nothing on
    # [0.4, 0.6); to reach mass 0.5 it must stretch to 0.6 + extra
    # 0.5 = 1.25*(0.2 + r') ... solved piecewise below
    r = prob_radius(dist, 0.2, 0.6)
    lo, hi = 0.2 - r, 0.2 + r
    mass = 1.25 * (min(0.4, hi) - max(0.0, lo)) + 1.25 * max(0.0, hi - 0.6)
    assert mass == pytest.approx(0.6, abs=1e-9)
    with pytest.raises(ZeroMassError):
        eta_ball(dist, 0.5, 0.04, kind="closed")  # ball wholly in the hole


def test_piecewise_small_radius_eta_limit():
    dist = make_piecewise()
    # shrinking closed balls converge to the local eta, and to the
    # two-sided density-weighted average exactly at a breakpoint
    assert dist.eta_small_radius_limit(0.2) == pytest.approx(0.2)
    left_f, left_g = 1.25, 0.25
    right_f, right_g = 0.0, 0.0  # hole on the right of 0.4
    assert dist.eta_small_radius_limit(0.4) == pytest.approx(
        (left_g + right_g) / (left_f + right_f)
    )


def test_piecewise_sampling_matches_cdf():
    dist = make_piecewise()
    xs, zs, ys = dist.sample_arrays(11, 40000)
    assert np.all((xs >= 0) & (xs <= 1))
    # no mass may land in the density hole
    assert not np.any((xs >= 0.4) & (xs < 0.6))
    for t in [0.2, 0.39, 0.7, 0.95]:
        want = dist.cdf(t)
        got = float(np.mean(xs <= t))
        assert abs(got - want) < 4.0 * math.sqrt(want * (1 - want) / 40000) + 1e-3
    label_rate = float(np.mean(ys[xs < 0.4]))
    assert abs(label_rate - 0.2) < 0.02


def test_sample_arrays_match_inverse_cdf_reference():
    # the draw spelled out: three uniform arrays in order, a binary search
    # of the mass prefix for each location, labels below eta of the segment
    multi = PiecewiseUniform1D(
        [0.4, 0.6],
        ([0.0, 0.15, 0.4, 0.6, 0.85, 1.0], [2.0, 0.4, 2.0, 0.4, 0.6666666666666666]),
        ([0.0, 0.2, 0.5, 0.7, 1.0], [0.5, 1.5, 0.0, 1.5]),
    )
    for dist in (make_piecewise(), multi, PowerMargin1D(0.5), PowerMargin1D(2.0)):
        for seed, n in [(3, 0), (4, 1), (5, 7), (6, 5000)]:
            rng = np.random.default_rng(np.random.PCG64(mix64(seed)))
            u, zs, v = rng.random(n), rng.random(n), rng.random(n)
            if isinstance(dist, PowerMargin1D):
                xs = u
                s = 2.0 * u - 1.0
                eta = 0.5 + 0.5 * np.sign(s) * np.abs(s) ** dist.gamma
            else:
                prefix = dist._mass_prefix
                j = np.minimum(np.searchsorted(prefix, u, side="right"), dist.f.size) - 1
                xs = dist.breaks[j] + (u - prefix[j]) / dist.f[j]
                eta = dist.seg_eta[j]
            got = dist.sample_arrays(seed, n)
            for part, want in zip(got, (xs, zs, (v < eta).astype(np.int8))):
                assert part.dtype == want.dtype and part.tobytes() == want.tobytes()
            if isinstance(dist, PowerMargin1D):
                # the label frequency that the power margin's labels read
                probes = np.concatenate([xs, [-0.5, 0.0, 0.15, 0.4, 0.5, 0.6, 1.0, 1.5]])
                s = 2.0 * probes - 1.0
                want_eta = 0.5 + 0.5 * np.sign(s) * np.abs(s) ** dist.gamma
                eta = np.empty(probes.size)
                dist._eta_into(probes, eta, np.empty((2, probes.size)))
                assert eta.tobytes() == want_eta.tobytes()


def test_uniforms_past_a_short_mass_prefix_stay_in_the_last_segment_with_mass():
    # both class densities integrate to 1 - 4e-13, which the constructor
    # accepts, so the mass prefix ends below 1 and (0.5, 1] carries no mass.
    # A location uniform at or past the prefix's end used to be placed at
    # +inf, divided by that segment's zero density
    short = 4.0 * (1.0 - 4e-13)
    pure = PiecewiseUniform1D(
        [0.5, 0.5], ([0.0, 0.25, 0.5, 1.0], [short, 0.0, 0.0]), ([0.0, 0.25, 0.5, 1.0], [0.0, short, 0.0])
    )
    mixed = PiecewiseUniform1D(
        [0.5, 0.5], ([0.0, 0.5, 1.0], [short / 2, 0.0]), ([0.0, 0.5, 1.0], [short / 2, 0.0])
    )
    for dist in (pure, mixed):
        end = dist._mass_prefix[-1]
        assert end < 1.0
        top = np.nextafter(end, 0.0)
        u = np.array([0.0, 0.1, 0.3, 0.7, end, 1.0 - 1e-13, np.nextafter(1.0, 0.0)])
        # the uniforms below the end are placed as before, the rest as the
        # largest double below it
        prefix = dist._mass_prefix
        below = np.minimum(u, top)
        j = np.searchsorted(prefix, below, side="right") - 1
        want = dist.breaks[j] + (below - prefix[j]) / dist.f[j]
        assert np.all(want <= 0.5)
        v = np.full(u.size, 0.5)
        got, labels = u.copy(), np.empty(u.size, dtype=bool)
        dist._place(got, v, labels, np.empty((2, u.size)))
        assert got.tobytes() == want.tobytes()
        assert labels.tolist() == (v < dist.seg_eta[j]).tolist()


# -- power margin --------------------------------------------------------------


def test_power_margin_eta_and_bayes_risk():
    pm = PowerMargin1D(1.0)
    for x in [0.0, 0.3, 0.5, 0.77, 1.0]:
        assert eta_point(pm, x) == pytest.approx(x, abs=1e-15)
    assert bayes_risk(pm) == pytest.approx(0.25)
    for gamma in [0.5, 2.0, 3.5]:
        pm = PowerMargin1D(gamma)
        want = float(
            mpmath.quad(lambda x: min(0.5 + 0.5 * mpmath.sign(2 * x - 1) * abs(2 * x - 1) ** gamma,
                                      0.5 - 0.5 * mpmath.sign(2 * x - 1) * abs(2 * x - 1) ** gamma),
                        [0, 0.5, 1])
        )
        assert bayes_risk(pm) == pytest.approx(want, abs=1e-10)
        assert bayes_risk(pm) == pytest.approx(0.5 - 0.5 / (gamma + 1), abs=1e-12)


def test_power_margin_eta_prefix_against_quadrature():
    for gamma in [0.5, 1.0, 2.0]:
        pm = PowerMargin1D(gamma)
        for t in [0.1, 0.5, 0.62, 1.0]:
            pts = [0.0] + ([0.5] if t > 0.5 else []) + [t]
            want = float(
                mpmath.quad(lambda x: 0.5 + 0.5 * mpmath.sign(2 * x - 1) * abs(2 * x - 1) ** gamma,
                            pts)
            )
            assert pm.eta_prefix(t) == pytest.approx(want, abs=1e-12)


def test_power_margin_margin_mass():
    pm = PowerMargin1D(2.0)
    for t in [0.0, 0.1, 0.3, 0.5, 0.8]:
        want = min(1.0, (2.0 * t) ** 0.5)
        assert pm.margin_mass_value(t) == pytest.approx(want, abs=1e-12)


def test_power_margin_prob_radius_interior_and_edge():
    pm = PowerMargin1D(1.0)
    assert prob_radius(pm, 0.5, 0.2) == pytest.approx(0.1, abs=1e-12)
    # near the edge the ball clips at 0, so the radius must stretch
    assert prob_radius(pm, 0.1, 0.5) == pytest.approx(0.4, abs=1e-12)
    assert ball_mass(pm, 0.1, 0.4, kind="closed").value == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.01, max_value=0.99),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_prob_radius_law_property(x, p, gamma):
    pm = PowerMargin1D(gamma)
    r = prob_radius(pm, x, p)
    assert ball_mass(pm, x, r, kind="closed").value >= p - 1e-9


def random_atoms(rng, m: int, grid: bool) -> FiniteAtomic:
    """m planar atoms: at random under the Euclidean metric, or on a 5 x 5 integer grid under the
    L1 metric, where many distances tie; some atoms have no mass."""
    if grid:
        pts = rng.choice(25, size=min(m, 25), replace=False)
        pts = np.stack([pts // 5, pts % 5], axis=1).astype(float)
        matrix = np.abs(pts[:, None] - pts[None]).sum(axis=-1)
    else:
        pts = rng.random((m, 2))
        matrix = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    masses = rng.dirichlet(np.ones(len(pts))) * (rng.random(len(pts)) < 0.8)
    masses[0] += 1.0 - masses.sum()
    return FiniteAtomic(FiniteMetric(matrix), masses, rng.random(len(pts)))


def test_atomic_prob_radius_reaches_every_running_mass_exactly():
    # p runs through the masses of x's row summed in (distance, index)
    # order; the closed ball at the radius must hold p with no tolerance.
    # A ball summed in another order than its radius fell short by up to
    # 5.6e-16 in about a quarter of these cases
    rng = np.random.default_rng(24)
    for trial in range(60):
        dist = random_atoms(rng, int(rng.integers(2, 40)), grid=trial % 2 == 1)
        for x in range(dist.space.size):
            running = itertools.accumulate(dist.masses[dist.space.order[x]].tolist())
            for p in (p for p in running if p <= 1.0):  # rounding may carry the last sums past 1
                r = prob_radius(dist, x, p)
                assert ball_mass(dist, x, r).value >= p, (trial, x, p)


# -- shared ops ----------------------------------------------------------------


def test_ball_mass_kind_validation():
    pm = PowerMargin1D(1.0)
    with pytest.raises(ValueError):
        ball_mass(pm, 0.5, 0.1, kind="augmented")
    with pytest.raises(DomainError):
        ball_mass(pm, 1.5, 0.1, kind="closed")
    with pytest.raises(ValueError):
        prob_radius(pm, 0.5, 1.2)


def test_continuous_open_equals_closed_eta():
    pm = PowerMargin1D(1.0)
    a = eta_ball(pm, 0.3, 0.1, kind="open").value
    b = eta_ball(pm, 0.3, 0.1, kind="closed").value
    c = eta_ball(pm, 0.3, 0.1, kind="augmented", z_cut=0.7).value
    assert a == b == c


def test_load_distribution(tmp_path):
    cfg = {"family": "power_margin_1d", "gamma": 2.0}
    dist = load_distribution(cfg)
    assert isinstance(dist, PowerMargin1D)

    metric_file = tmp_path / "m.txt"
    metric_file.write_text("2\n0 1\n1 0\n")
    cfg = {
        "family": "finite_atomic",
        "metric_file": "m.txt",
        "masses": [0.5, 0.5],
        "etas": [1.0, 0.0],
    }
    dist = load_distribution(cfg, base_dir=tmp_path)
    assert isinstance(dist, FiniteAtomic)

    cfg = {
        "family": "piecewise_uniform_1d",
        "priors": [0.5, 0.5],
        "class0": {"breaks": [0.0, 0.5, 1.0], "densities": [2.0, 0.0]},
        "class1": {"breaks": [0.0, 0.5, 1.0], "densities": [0.0, 2.0]},
    }
    dist = load_distribution(cfg)
    assert isinstance(dist, PiecewiseUniform1D)
    assert eta_point(dist, 0.75) == 1.0

    with pytest.raises(UnsupportedMethodError):
        load_distribution({"family": "gaussian"})
    with pytest.raises(ValueError):
        load_distribution({"family": "power_margin_1d"})  # gamma missing
