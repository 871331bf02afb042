"""Effective interiors, decision boundaries, and high-error sets.

A point sits in the plus interior at level (p, band) when its label
frequency exceeds 1/2 and every closed ball around it up to the radius
capturing mass p keeps a ball-averaged label frequency at least
1/2 + band; the minus interior mirrors this below 1/2.  The effective
boundary is everything else in the space.  The high-error set for (n, k)
collects support points whose ball averages stay within 1/sqrt(k) of 1/2
across the radius bracket [radius at mass k/n, radius at mass
(k + sqrt(k) + 1)/n]; the mass of that set drives the expected-mistake
lower bound.

The universal quantifier over radii is discharged analytically, never by
grid search: for every built-in family the map r -> eta(B(x, r)) is
piecewise monotone with breakpoints at the distances from x to the
family's structural breakpoints, so extremes over a radius range are
attained at those candidate radii (plus the small-radius limit).  Points
are classified a whole array at a time: each point's row of the family's
`ball_table` gives its candidate radii, ball sums and probability radii,
and the extremes are a masked min and max over it.

Measures of these regions are exact atom sums for finite-atomic families.
For the 1-D families each region is a finite union of intervals.  Each
positive-density cell starts as one bracket, and each membership call
splits every live bracket into equal parts (`_GRID` of them on the first
call) and keeps each part whose two ends disagree, until every kept part
is at most 1e-12 wide (7 to 9 calls on the stock families at the levels
the tests pin; more when many roots stay live, two parts each a call).  The
reported error_bound sums the density-weighted widths of those final
brackets.  Interval endpoints at structural breakpoints are anchored by
the cells; a piece that starts and ends between two neighbouring points
of one split is missed, in the value and in the bound alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import FiniteAtomic, MassQueryResult
from .errors import DomainError, ZeroMassError

__all__ = [
    "BOUNDARY",
    "INTERIOR_MINUS",
    "INTERIOR_PLUS",
    "NOT_IN_SUPPORT",
    "HighErrorVerdict",
    "RegionVerdict",
    "SmoothnessViolation",
    "boundary_measure",
    "high_error_classify",
    "high_error_measure",
    "margin_mass",
    "region_classify",
    "region_verdicts",
    "smoothness_audit",
]

INTERIOR_PLUS = "InteriorPlus"
INTERIOR_MINUS = "InteriorMinus"
BOUNDARY = "Boundary"
NOT_IN_SUPPORT = "NotInSupport"
_VERDICTS = (INTERIOR_PLUS, INTERIOR_MINUS, BOUNDARY, NOT_IN_SUPPORT)
_SIDES = ("none", "plus", "minus")

# the 1-D region scan's first membership call splits each support cell into _GRID parts, and
# each later call every live bracket into max(2, _GRID // live) parts: about _GRID points a call
_GRID = 96
_BISECT_TOL = 1e-12
_ROUND_SLACK = 2.0**-40  # 9.1e-13 < _BISECT_TOL; a band up to 1/2 - _ROUND_SLACK keeps its thresholds


@dataclass(frozen=True)
class RegionVerdict:
    """Interior/boundary classification of one point.

    ``binding_radius`` witnesses a Boundary verdict: a radius within the
    quantified range where the ball average violates the interior
    condition.  None for interior points, off-support points, and points
    with label frequency exactly 1/2 (excluded from both interiors by
    definition).
    """

    verdict: str
    binding_radius: Optional[float] = None


@dataclass(frozen=True)
class HighErrorVerdict:
    verdict: bool
    side: str  # "plus", "minus", or "none"


class SmoothnessViolation(NamedTuple):
    x: float
    r: float
    amount: float


def _check_level(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"mass level must lie in (0, 1], got {p}")


def _check_band(band: float) -> None:
    if not 0.0 <= band <= 0.5:
        raise ValueError(f"band must lie in [0, 1/2], got {band}")


def _check_sizes(n: int, k: int) -> None:
    if not 1 <= k < n <= 2**1023:  # n past 2**1023 may round to an infinite float
        raise ValueError(f"need 1 <= k < n <= 2**1023, got k={k}, n={n}")


def _points(dist, xs) -> np.ndarray:
    """xs as the array the distribution's queries take: atom indices or floats."""
    return np.asarray(xs, dtype=np.intp if isinstance(dist, FiniteAtomic) else float)


def _eta_extremes(dist, xs, p_lo: float, p_hi: float) -> tuple[np.ndarray, ...]:
    """Extremes of r -> eta(B(x, r)) over [r_lo, r_hi] with witness radii, per point.

    r_lo and r_hi are the probability radii at mass p_lo and p_hi, read off
    the points' one `ball_table`.  A row's candidates are r_lo, the table's
    radii strictly inside (r_lo, r_hi), each at the last of its repeats (the
    entry that holds its closed ball), and r_hi when r_hi > r_lo, less any
    whose ball holds no mass; only r_lo and r_hi are summed afresh.  Masked
    lanes never win; ties go to the first candidate.  Radius 0 takes the
    small-radius limit (the atom's own value, or the side-averaged density
    limit on the line).  Returns (min, min radius, max, max radius).
    """
    table = dist.ball_table(xs)
    r_hi = dist.radius_at(table, p_hi)
    r_lo = dist.radius_at(table, p_lo) if p_lo > 0.0 else np.zeros_like(r_hi)
    ends = np.array([r_lo, r_hi]).T
    fresh = dist.ball_sums(xs[:, None], ends)
    rads, mass, total = (np.concatenate([e[:, :1], t, e[:, 1:]], axis=1) for e, t in zip((ends, *fresh), table))
    live = (ends[:, :1] < rads) & (rads < ends[:, 1:])
    live[:, 1:-2] &= rads[:, 1:-2] < rads[:, 2:-1]  # a repeated table radius counts at its last entry
    live[:, 0], live[:, -1] = True, r_hi > r_lo
    # a ball whose mass rounds to 0 (one double beside a low-density breakpoint) lies inside
    # one segment, where the small-radius limit already stands for it
    live &= mass > 0.0
    vals = np.divide(total, mass, out=np.zeros_like(mass), where=live)
    at_zero = r_lo == 0.0
    if at_zero.any():
        vals[at_zero, 0] = dist.eta_small_radius_limit(xs[at_zero])
        live[:, 0] |= at_zero
    rows = np.arange(xs.size)
    lo_i = np.where(live, vals, np.inf).argmin(axis=1)
    hi_i = np.where(live, vals, -np.inf).argmax(axis=1)
    return vals[rows, lo_i], rads[rows, lo_i], vals[rows, hi_i], rads[rows, hi_i]


def _definite(dist, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support points of xs, the definite ones among them, and their eta.

    Returns the indices of the points in the support, the indices of
    those whose label frequency is not 1/2, and that frequency for each.
    """
    support = np.flatnonzero(dist.in_support_value(xs))
    eta = dist.eta_point_value(xs[support])
    definite = eta != 0.5
    return support, support[definite], eta[definite]


def _region_verdict(dist, xs, p: float, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Verdict codes (indices into _VERDICTS) and binding radii (nan for none)."""
    code = np.full(xs.shape, _VERDICTS.index(NOT_IN_SUPPORT), dtype=np.intp)
    radius = np.full(xs.shape, np.nan)
    support, live, eta = _definite(dist, xs)
    code[support] = _VERDICTS.index(BOUNDARY)
    mn, mn_r, mx, mx_r = _eta_extremes(dist, xs[live], 0.0, p)
    # a pure segment's ball averages are ratios of prefix sums that round apart, to just
    # below 1 (or above 0), and at band = 1/2 that rounding alone would decide membership:
    # each threshold stays _ROUND_SLACK, just under the scan's resolution, inside [0, 1]
    hi, lo = min(0.5 + band, 1.0 - _ROUND_SLACK), max(0.5 - band, _ROUND_SLACK)
    plus = eta > 0.5
    interior = np.where(plus, mn >= hi, mx <= lo)
    code[live[interior & plus]] = _VERDICTS.index(INTERIOR_PLUS)
    code[live[interior & ~plus]] = _VERDICTS.index(INTERIOR_MINUS)
    radius[live] = np.where(interior, np.nan, np.where(plus, mn_r, mx_r))
    return code, radius


def region_verdicts(dist, xs: Sequence, p: float, band: float) -> list[RegionVerdict]:
    """Classify points against the effective interiors at level (p, band), in one pass."""
    _check_level(p)
    _check_band(band)
    for x in xs:
        dist.space.check_point(x)
    code, radius = _region_verdict(dist, _points(dist, xs), p, band)
    return [
        RegionVerdict(_VERDICTS[c], None if math.isnan(r) else r)
        for c, r in zip(code.tolist(), radius.tolist())
    ]


def region_classify(dist, x, p: float, band: float) -> RegionVerdict:
    """Classify a point against the effective interiors at level (p, band)."""
    return region_verdicts(dist, [x], p, band)[0]


def _high_error_verdict(dist, xs, n: int, k: int) -> np.ndarray:
    """Side codes (indices into _SIDES) of the points; 0 is outside the set."""
    side = np.zeros(xs.shape, dtype=np.intp)
    _, live, eta = _definite(dist, xs)
    mn, _, mx, _ = _eta_extremes(dist, xs[live], k / n, min(1.0, (k + math.sqrt(k) + 1.0) / n))
    # ball averages of eta lie in [0, 1], but a pure segment's may round past 1 (or below 0),
    # and at k = 4, where tol = 1/2, that rounding alone would decide membership
    mn, mx = np.clip(mn, 0.0, 1.0), np.clip(mx, 0.0, 1.0)
    tol = 1.0 / math.sqrt(k)
    plus = eta > 0.5
    side[live] = np.where(plus, np.where(mx <= 0.5 + tol, 1, 0), np.where(mn >= 0.5 - tol, 2, 0))
    return side


def high_error_classify(dist, x, n: int, k: int) -> HighErrorVerdict:
    """Membership in the high-error set for sample size n and k neighbors."""
    _check_sizes(n, k)
    dist.space.check_point(x)
    side = int(_high_error_verdict(dist, _points(dist, [x]), n, k)[0])
    return HighErrorVerdict(side != 0, _SIDES[side])


# -- exact measures ------------------------------------------------------------


def _support_cells(dist) -> np.ndarray:
    bps = dist.x_breakpoints()  # strictly increasing on both 1-D families
    cells = np.stack([bps[:-1], bps[1:]], axis=1)
    return cells[dist.density_at((cells[:, 0] + cells[:, 1]) / 2.0) > 0.0]


def _region_mass(dist, member: Callable[[np.ndarray], np.ndarray]) -> MassQueryResult:
    """Mass of {x : member(x)}, where member flags an array of points.

    An exact sum over the positive-mass atoms of a finite-atomic family.
    On the 1-D families, the split-and-keep loop of the module docstring:
    one membership call takes the split points of every live bracket, so
    member must answer each point independently of the others, as
    `_region_verdict` and `_high_error_verdict` do (their 1-D paths work
    lane by lane); every point lies strictly inside a positive-density
    cell.  Sums run in root order, one float add at a time.
    """
    total = 0.0
    err = 0.0
    if isinstance(dist, FiniteAtomic):
        atoms = np.flatnonzero(dist.masses > 0.0)
        for mass in dist.masses[atoms[member(atoms)]].tolist():
            total += mass
        return MassQueryResult(total, err)
    cells = _support_cells(dist)
    # each cell's ends at their inward limits: at a breakpoint the verdict reads the next segment
    lo, hi = np.nextafter(cells[:, 0], cells[:, 1]), np.nextafter(cells[:, 1], cells[:, 0])
    starts, done = None, []
    while lo.size:
        parts = _GRID if starts is None else max(2, _GRID // lo.size)
        xs = np.linspace(lo, hi, parts + 1, axis=1)
        flags = member(xs.ravel()).reshape(xs.shape)
        starts = flags[:, 0] if starts is None else starts
        row, step = np.nonzero(flags[:, :-1] != flags[:, 1:])
        lo, hi = xs[row, step], xs[row, step + 1]
        narrow = hi - lo <= _BISECT_TOL
        done.append((lo[narrow], hi[narrow]))
        lo, hi = lo[~narrow], hi[~narrow]
    lo, hi = (np.sort(np.concatenate(ends)) for ends in zip(*done))  # disjoint: both sort alike
    roots = 0.5 * (lo + hi)
    for term in (dist.density_at(roots) * (hi - lo)).tolist():
        err += term
    for start, (a, b) in zip(starts.tolist(), cells):
        # the cell alternates between in and out at its roots, starting at its first flag
        cdfs = dist.cdf(np.concatenate([[a], roots[(a < roots) & (roots < b)], [b]])).tolist()
        for i in range(0 if start else 1, len(cdfs) - 1, 2):
            total += cdfs[i + 1] - cdfs[i]
    return MassQueryResult(total, err)


def boundary_measure(dist, p: float, band: float) -> MassQueryResult:
    """Exact mass of the effective boundary at level (p, band)."""
    _check_level(p)
    _check_band(band)
    code = _VERDICTS.index(BOUNDARY)
    return _region_mass(dist, lambda xs: _region_verdict(dist, xs, p, band)[0] == code)


def high_error_measure(dist, n: int, k: int) -> MassQueryResult:
    """Exact mass of the high-error set for (n, k)."""
    _check_sizes(n, k)
    return _region_mass(dist, lambda xs: _high_error_verdict(dist, xs, n, k) != 0)


def margin_mass(dist, t: float) -> float:
    """Mass of points whose label frequency is within t of 1/2."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"margin width must be finite and nonnegative, got {t}")
    return float(dist.margin_mass_value(t))


def smoothness_audit(
    dist, exponent: float, constant: float, probes: Sequence[tuple[float, float]]
) -> Optional[SmoothnessViolation]:
    """Check |eta(B(x,r)) - eta(x)| <= constant * open_mass**exponent at each probe.

    Probes are (x, r) pairs with x in support and r > 0; every probe is
    validated before any is evaluated.  Returns None when every probe
    passes, else the first violation with its excess amount.
    """
    if not (exponent > 0.0 and constant > 0.0):
        raise ValueError("smoothness exponent and constant must be positive")
    for x, _ in probes:
        dist.space.check_point(x)
    xs = _points(dist, [x for x, _ in probes])
    rs = np.array([r for _, r in probes], dtype=float)
    for (x, r), inside in zip(probes, dist.in_support_value(xs).tolist()):
        if not inside:
            raise DomainError(f"probe {x} is outside the support")
        if not r > 0.0:
            raise ValueError(f"probe radii must be positive, got {r}")
    mass, total = dist.ball_sums(xs, rs, "closed")
    if np.any(mass <= 0.0):
        raise ZeroMassError("a ball in the query holds zero mass")
    gap = np.abs(total / mass - dist.eta_point_value(xs))
    allowance = constant * np.float_power(dist.ball_sums(xs, rs, "open")[0], exponent)
    bad = np.flatnonzero(gap > allowance)
    if bad.size == 0:
        return None
    i = int(bad[0])
    x, r = probes[i]
    return SmoothnessViolation(float(x), float(r), float(gap[i] - allowance[i]))
