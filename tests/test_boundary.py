"""Region classification and region measures against 1-D closed forms.

For the disjoint-support family (pure labels split at 1/2) everything is
known exactly: the band boundary has mass 2*band*p and the high-error
band has mass 2*sqrt(k)/n.  The power-margin family at gamma=1 has
eta(x) = x, where a ball's label frequency equals its clipped midpoint.
"""

import numpy as np
import pytest

from nnrates.boundary import (
    BOUNDARY,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    NOT_IN_SUPPORT,
    boundary_measure,
    high_error_classify,
    high_error_measure,
    margin_mass,
    region_classify,
    region_verdicts,
    smoothness_audit,
)
from nnrates.distributions import FiniteAtomic, PiecewiseUniform1D, PowerMargin1D
from nnrates.errors import DomainError, ZeroMassError
from nnrates.metric import FiniteMetric


def disjoint_family():
    return PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 0.5, 1.0], [2.0, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, 2.0]),
    )


def pure_atoms():
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return FiniteAtomic(fm, [0.5, 0.5], [1.0, 0.0])


def test_region_verdicts_disjoint():
    dist = disjoint_family()
    p, band = 0.2, 0.1
    # interior cutoff at 0.5 + band*p = 0.52
    assert region_classify(dist, 0.7, p, band).verdict == INTERIOR_PLUS
    assert region_classify(dist, 0.3, p, band).verdict == INTERIOR_MINUS
    got = region_classify(dist, 0.51, p, band)
    assert got.verdict == BOUNDARY
    assert got.binding_radius is not None and got.binding_radius > 0.0
    assert region_classify(dist, 0.52, p, band).verdict == INTERIOR_PLUS


def test_region_verdict_off_support_and_split():
    holed = PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 0.4, 0.6, 1.0], [2.5, 0.0, 0.0]),
        ([0.0, 0.4, 0.6, 1.0], [0.0, 0.0, 2.5]),
    )
    assert region_classify(holed, 0.5, 0.2, 0.1).verdict == NOT_IN_SUPPORT
    # a point whose label frequency is exactly 1/2 is boundary by fiat
    pm = PowerMargin1D(1.0)
    got = region_classify(pm, 0.5, 0.2, 0.1)
    assert got.verdict == BOUNDARY
    assert got.binding_radius is None


def test_region_parameter_validation():
    dist = disjoint_family()
    with pytest.raises(ValueError):
        region_classify(dist, 0.7, 0.0, 0.1)
    with pytest.raises(ValueError):
        region_classify(dist, 0.7, 1.5, 0.1)
    with pytest.raises(ValueError):
        region_classify(dist, 0.7, 0.2, 0.6)
    with pytest.raises(DomainError):
        region_classify(dist, 3.0, 0.2, 0.1)


def test_region_nesting_property():
    # shrinking either parameter can only move points out of the boundary
    dist = disjoint_family()
    probes = np.linspace(0.01, 0.99, 29)
    grid = [(0.1, 0.05), (0.1, 0.2), (0.3, 0.05), (0.3, 0.2), (0.5, 0.4)]
    for x in probes:
        for p, band in grid:
            if region_classify(dist, float(x), p, band).verdict != BOUNDARY:
                continue
            for p2, band2 in grid:
                if p2 >= p and band2 >= band:
                    assert region_classify(dist, float(x), p2, band2).verdict == BOUNDARY


def test_boundary_measure_disjoint_closed_form():
    dist = disjoint_family()
    for p in (0.05, 0.2, 0.5):
        for band in (0.05, 0.25, 0.5):
            got = boundary_measure(dist, p, band)
            assert got.value == pytest.approx(2.0 * band * p, abs=1e-9)
            assert got.error_bound < 1e-9


def test_boundary_measure_power_margin():
    # with eta(B(x, r)) = clipped midpoint = x away from the edges, the
    # boundary is exactly the strip |x - 1/2| < band
    pm = PowerMargin1D(1.0)
    for band in (0.1, 0.3):
        got = boundary_measure(pm, 0.2, band)
        assert got.value == pytest.approx(2.0 * band, abs=1e-9)


def test_boundary_measure_atomic_exact():
    fa = pure_atoms()
    got = boundary_measure(fa, 0.4, 0.3)
    # each atom's ball stays on the atom up to mass 1/2 >= p, frequency 1 or 0
    assert got.value == 0.0
    assert got.error_bound == 0.0
    # at p > 1/2 every ball swallows both atoms and averages to 1/2
    got = boundary_measure(fa, 0.9, 0.3)
    assert got.value == 1.0


def test_high_error_band_disjoint():
    dist = disjoint_family()
    n, k = 10000, 100
    width = np.sqrt(k) / n
    member = high_error_classify(dist, 0.5 + width / 2, n, k)
    assert member.verdict and member.side == "plus"
    member = high_error_classify(dist, 0.5 - width / 2, n, k)
    assert member.verdict and member.side == "minus"
    outside = high_error_classify(dist, 0.5 + 3.0 * width, n, k)
    assert not outside.verdict and outside.side == "none"
    got = high_error_measure(dist, n, k)
    assert got.value == pytest.approx(2.0 * width, abs=1e-9)


def test_high_error_vacuous_at_k_one():
    # the band tolerance 1/sqrt(k) reaches 1 at k=1, making the frequency
    # condition vacuous: every supported point with a definite label is in
    fa = pure_atoms()
    assert high_error_classify(fa, 0, 10, 1).verdict
    assert high_error_classify(fa, 1, 10, 1).verdict
    assert high_error_measure(fa, 10, 1).value == 1.0


@pytest.mark.parametrize("n", [20, 40])
def test_high_error_measure_matches_classifier_at_k_four(n):
    # at k=4 the tolerance 1/sqrt(k) is 1/2, so on pure labels every ball
    # average sits within it: the classifier puts every probe in, and the
    # measure must count the whole support, not just the bracket's edges
    dist = disjoint_family()
    probes = np.linspace(0.0, 1.0, 201)
    assert all(high_error_classify(dist, float(x), n, 4).verdict for x in probes)
    got = high_error_measure(dist, n, 4)
    assert got.value == 1.0
    assert got.error_bound == 0.0


def test_high_error_requires_definite_label():
    pm = PowerMargin1D(1.0)
    got = high_error_classify(pm, 0.5, 400, 16)
    assert not got.verdict and got.side == "none"
    inside = high_error_classify(pm, 0.51, 400, 16)
    assert inside.verdict and inside.side == "plus"


def test_margin_mass():
    pm = PowerMargin1D(2.0)
    for t in (0.0, 0.05, 0.2, 0.5):
        assert margin_mass(pm, t) == pytest.approx(min(1.0, (2 * t) ** 0.5), abs=1e-12)
    assert margin_mass(pm, 2.0) == 1.0
    with pytest.raises(ValueError):
        margin_mass(pm, -0.1)
    fa = pure_atoms()
    assert margin_mass(fa, 0.3) == 0.0
    assert margin_mass(fa, 0.5) == 1.0


def test_smoothness_audit_passes_power_margin():
    pm = PowerMargin1D(1.0)
    probes = [(x, r) for x in np.linspace(0.05, 0.95, 19) for r in (0.01, 0.05, 0.2)]
    assert smoothness_audit(pm, 1.0, 0.5, probes) is None


def test_smoothness_audit_finds_witness():
    dist = disjoint_family()
    # ball around 0.49 with radius 0.02 has frequency 1/4 against eta=0,
    # while the allowance at L=1 is only the ball mass 0.04
    witness = smoothness_audit(dist, 1.0, 1.0, [(0.2, 0.01), (0.49, 0.02)])
    assert witness is not None
    assert witness.x == pytest.approx(0.49)
    assert witness.r == pytest.approx(0.02)
    assert witness.amount == pytest.approx(0.25 - 0.04, abs=1e-12)


def test_smoothness_audit_validation():
    pm = PowerMargin1D(1.0)
    with pytest.raises(ValueError):
        smoothness_audit(pm, 0.0, 0.5, [(0.3, 0.1)])
    with pytest.raises(ValueError):
        smoothness_audit(pm, 1.0, -0.5, [(0.3, 0.1)])
    with pytest.raises(ValueError):
        smoothness_audit(pm, 1.0, 0.5, [(0.3, 0.0)])
    holed = disjoint_family()
    with pytest.raises(DomainError):
        smoothness_audit(holed, 1.0, 0.5, [(1.7, 0.1)])


def test_scan_measure_against_monte_carlo():
    # cross-check the bisection scanner on a family with no closed form
    dist = PiecewiseUniform1D(
        [0.4, 0.6],
        ([0.0, 0.3, 0.7, 1.0], [1.5, 1.0, 0.5]),
        ([0.0, 0.3, 0.7, 1.0], [0.5, 1.375, 1.0]),
    )
    p, band = 0.15, 0.12
    got = boundary_measure(dist, p, band)
    xs, _, _ = dist.sample_arrays(7, 4000)
    hits = sum(v.verdict == BOUNDARY for v in region_verdicts(dist, xs, p, band))
    phat = hits / 4000
    sigma = np.sqrt(max(phat * (1 - phat), 1e-6) / 4000)
    assert abs(got.value - phat) < 3.5 * sigma + got.error_bound


def multi_segment_family():
    return PiecewiseUniform1D(
        [0.4, 0.6],
        ([0.0, 0.15, 0.4, 0.6, 0.85, 1.0], [2.0, 0.4, 2.0, 0.4, 0.6666666666666666]),
        ([0.0, 0.2, 0.5, 0.7, 1.0], [0.5, 1.5, 0.0, 1.5]),
    )


@pytest.mark.parametrize("make", [disjoint_family, multi_segment_family, lambda: PowerMargin1D(1.0)])
def test_scan_measures_agree_with_an_eight_times_finer_grid(make):
    # the scan's error_bound covers bisection widths only; a region piece
    # narrower than one cell would be missed at grid=96 and found at 768
    dist = make()
    for p in (0.05, 0.4):
        for band in (0.05, 0.25):
            coarse, fine = (boundary_measure(dist, p, band, grid) for grid in (96, 768))
            assert abs(fine.value - coarse.value) <= coarse.error_bound + fine.error_bound, (p, band)
    for n, k in ((100, 9), (400, 16)):
        coarse, fine = (high_error_measure(dist, n, k, grid) for grid in (96, 768))
        assert abs(fine.value - coarse.value) <= coarse.error_bound + fine.error_bound, (n, k)


# -- the scalar scan, spelled out ----------------------------------------------
# The library classifies whole arrays of points and bisects every root in
# lockstep.  Below is the point-at-a-time scan it replaced, one scalar
# query per candidate radius and one bisection per root; the array path
# must reproduce it bit for bit: verdicts, witness radii and both numbers
# of every measure.


def ref_radius_breakpoints(dist, x):
    if isinstance(dist, FiniteAtomic):
        vals = np.unique(dist.space.matrix[x])
    else:
        vals = np.unique(np.abs(np.asarray(dist.x_breakpoints(), dtype=float) - x))
    return vals[vals > 0.0]


def ref_interval(x, r):
    return max(0.0, x - r), min(1.0, x + r)


def ref_ball_mass(dist, x, r):
    lo, hi = ref_interval(x, r)
    return 0.0 if hi <= lo else float(dist.cdf(hi)) - float(dist.cdf(lo))


def ref_eta_closed(dist, x, r):
    if isinstance(dist, FiniteAtomic):
        mask = dist.space.matrix[x] <= r
        mass = float(dist.masses[mask].sum())
        total = float((dist.masses[mask] * dist.etas[mask]).sum())
    else:
        lo, hi = ref_interval(x, r)
        mass = float(dist.cdf(hi)) - float(dist.cdf(lo)) if hi > lo else 0.0
        total = float(dist.eta_prefix(hi)) - float(dist.eta_prefix(lo))
    if mass <= 0.0:
        raise ZeroMassError(f"ball of radius {r} at {x} has zero mass")
    return total / mass


def ref_prob_radius(dist, x, p):
    if p <= 0.0:
        return 0.0
    if isinstance(dist, FiniteAtomic):
        row = dist.space.matrix[x]
        cum = 0.0
        last_d = None
        for i in np.argsort(row, kind="stable"):
            d = row[i]
            if last_d is not None and d > last_d and cum >= p:
                return float(last_d)
            cum += dist.masses[i]
            last_d = d
        return float(last_d)
    r_max = max(x - 0.0, 1.0 - x)
    crits = [0.0]
    for b in dist.x_breakpoints():
        d = abs(x - float(b))
        if 0.0 < d < r_max:
            crits.append(d)
    crits.append(r_max)
    crits = sorted(set(crits))
    for r_a, r_b in zip(crits, crits[1:]):
        m_a = ref_ball_mass(dist, x, r_a)
        if m_a >= p:
            return r_a
        m_b = ref_ball_mass(dist, x, r_b)
        if m_b >= p:
            return r_a + (p - m_a) * (r_b - r_a) / (m_b - m_a)
    return r_max


def ref_eta_extremes(dist, x, r_lo, r_hi):
    rads = [r_lo]
    rads.extend(float(r) for r in ref_radius_breakpoints(dist, x) if r_lo < r < r_hi)
    if r_hi > r_lo:
        rads.append(r_hi)
    vals = []
    for r in rads:
        v = float(dist.eta_small_radius_limit(x)) if r == 0.0 else ref_eta_closed(dist, x, r)
        vals.append((v, r))
    lo = min(vals, key=lambda t: t[0])
    hi = max(vals, key=lambda t: t[0])
    return lo[0], lo[1], hi[0], hi[1]


def ref_region_verdict(dist, x, p, band):
    if not dist.in_support_value(x):
        return NOT_IN_SUPPORT, None
    eta_x = float(dist.eta_point_value(x))
    if eta_x == 0.5:
        return BOUNDARY, None
    mn, mn_r, mx, mx_r = ref_eta_extremes(dist, x, 0.0, ref_prob_radius(dist, x, p))
    if eta_x > 0.5:
        return (INTERIOR_PLUS, None) if mn >= 0.5 + band else (BOUNDARY, mn_r)
    return (INTERIOR_MINUS, None) if mx <= 0.5 - band else (BOUNDARY, mx_r)


def ref_high_error_verdict(dist, x, n, k):
    if not dist.in_support_value(x):
        return False, "none"
    eta_x = float(dist.eta_point_value(x))
    if eta_x == 0.5:
        return False, "none"
    r_lo = ref_prob_radius(dist, x, k / n)
    r_hi = ref_prob_radius(dist, x, min(1.0, (k + np.sqrt(k) + 1.0) / n))
    mn, _, mx, _ = ref_eta_extremes(dist, x, r_lo, r_hi)
    tol = 1.0 / np.sqrt(k)
    if eta_x > 0.5:
        return (True, "plus") if mx <= 0.5 + tol else (False, "none")
    return (True, "minus") if mn >= 0.5 - tol else (False, "none")


def ref_region_mass(dist, member, grid=96):
    total = 0.0
    err = 0.0
    if isinstance(dist, FiniteAtomic):
        for atom in range(dist.space.size):
            if dist.masses[atom] > 0.0 and member(atom):
                total += float(dist.masses[atom])
        return total, err
    bps = np.unique(np.asarray(dist.x_breakpoints(), dtype=float))
    for a, b in zip(bps[:-1].tolist(), bps[1:].tolist()):
        if not dist.density_at((a + b) / 2.0) > 0.0:
            continue
        xs = np.linspace(a, b, grid + 1)
        flags = [member(float(x)) for x in xs]
        roots = []
        for i in range(grid):
            if flags[i] == flags[i + 1]:
                continue
            lo_x, hi_x = float(xs[i]), float(xs[i + 1])
            while hi_x - lo_x > 1e-12:
                mid = 0.5 * (lo_x + hi_x)
                if member(mid) == flags[i]:
                    lo_x = mid
                else:
                    hi_x = mid
            roots.append(0.5 * (lo_x + hi_x))
            err += float(dist.density_at(0.5 * (lo_x + hi_x))) * (hi_x - lo_x)
        inside = flags[0]
        current = a
        for root in roots:
            if inside:
                total += float(dist.cdf(root)) - float(dist.cdf(current))
            inside = not inside
            current = root
        if inside:
            total += float(dist.cdf(b)) - float(dist.cdf(current))
    return total, err


def three_atoms():
    fm = FiniteMetric(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]))
    return FiniteAtomic(fm, [0.2, 0.3, 0.5], [0.9, 0.2, 0.6])


REFERENCE_FAMILIES = {
    "disjoint": disjoint_family,
    "multi_segment": multi_segment_family,
    "power_margin_0.5": lambda: PowerMargin1D(0.5),
    "power_margin_1": lambda: PowerMargin1D(1.0),
    "power_margin_2": lambda: PowerMargin1D(2.0),
    "three_atoms": three_atoms,
}
LEVELS_AND_BANDS = [(p, band) for p in (0.05, 0.4) for band in (0.05, 0.25)]
SIZES = [(20, 4), (100, 9), (400, 16)]


def reference_probes(dist):
    """A dense grid, every breakpoint with both neighbouring doubles, 0 and 1."""
    if isinstance(dist, FiniteAtomic):
        return list(range(dist.space.size))
    breaks = [float(b) for b in dist.x_breakpoints()]
    near = [float(np.nextafter(b, side)) for b in breaks for side in (-1.0, 2.0)]
    probes = np.linspace(0.0, 1.0, 97).tolist() + breaks + near
    return sorted({x for x in probes if 0.0 <= x <= 1.0})


def test_reference_probes_cover_the_label_zero_gap():
    # class 1 has no density on [0.5, 0.7]: eta is 0 there inside the support
    probes = reference_probes(multi_segment_family())
    for edge in (0.5, 0.7):
        assert {edge, float(np.nextafter(edge, -1.0)), float(np.nextafter(edge, 2.0))} <= set(probes)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroMassError:
        return ZeroMassError


@pytest.mark.parametrize("family", list(REFERENCE_FAMILIES))
def test_verdicts_match_the_scalar_scan(family):
    dist = REFERENCE_FAMILIES[family]()
    probes = reference_probes(dist)
    for p, band in LEVELS_AND_BANDS:
        # one double beside a breakpoint, a candidate radius can hold less
        # mass than rounding keeps; both scans refuse such a point
        want = [outcome(ref_region_verdict, dist, x, p, band) for x in probes]
        fine = [x for x, w in zip(probes, want) if w is not ZeroMassError]
        got = [(v.verdict, v.binding_radius) for v in region_verdicts(dist, fine, p, band)]
        assert got == [w for w in want if w is not ZeroMassError], (p, band)
        for x in set(probes) - set(fine):
            with pytest.raises(ZeroMassError):
                region_classify(dist, x, p, band)
        single = region_classify(dist, fine[len(fine) // 3], p, band)
        assert (single.verdict, single.binding_radius) == got[len(fine) // 3]
    for n, k in SIZES:
        got = [tuple(vars(high_error_classify(dist, x, n, k)).values()) for x in probes]
        assert got == [ref_high_error_verdict(dist, x, n, k) for x in probes], (n, k)


@pytest.mark.parametrize("family", list(REFERENCE_FAMILIES))
def test_measures_match_the_scalar_scan(family):
    dist = REFERENCE_FAMILIES[family]()
    for p, band in LEVELS_AND_BANDS:
        got = boundary_measure(dist, p, band)
        want = ref_region_mass(dist, lambda x: ref_region_verdict(dist, x, p, band)[0] == BOUNDARY)
        assert (got.value, got.error_bound) == want, (p, band)
    for n, k in SIZES:
        got = high_error_measure(dist, n, k)
        want = ref_region_mass(dist, lambda x: ref_high_error_verdict(dist, x, n, k)[0])
        assert (got.value, got.error_bound) == want, (n, k)


@pytest.mark.parametrize("family", ["disjoint", "multi_segment", "power_margin_0.5", "three_atoms"])
def test_probability_radii_match_the_scalar_scan(family):
    dist = REFERENCE_FAMILIES[family]()
    probes = reference_probes(dist)
    from nnrates.distributions import prob_radius

    for p in (0.0, 0.01, 0.05, 0.2, 0.4, 0.77, 1.0):
        want = [ref_prob_radius(dist, x, p) for x in probes]
        assert dist.prob_radius_value(np.asarray(probes), p).tolist() == want
        assert [prob_radius(dist, x, p) for x in probes[:5]] == want[:5]
