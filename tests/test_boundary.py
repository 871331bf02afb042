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
    smoothness_audit,
)
from nnrates.distributions import FiniteAtomic, PiecewiseUniform1D, PowerMargin1D
from nnrates.errors import DomainError
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
    rng = np.random.default_rng(42)
    xs, _, _ = dist.sample_arrays(7, 4000)
    hits = sum(
        region_classify(dist, float(x), p, band).verdict == BOUNDARY for x in xs[:4000]
    )
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
