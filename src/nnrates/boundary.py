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
are classified a whole array at a time: their candidate radii form one
(points x candidates) table, and the extremes are a masked min and max
over its rows.

Measures of these regions are exact atom sums for finite-atomic families.
For the 1-D families each region is a finite union of intervals.  One
membership call classifies `grid` steps across every positive-density
cell; each change of membership between neighbouring grid points is then
bracketed to 1e-12 by bisection.  The brackets step in lockstep, one
membership call per step (some 30 to 40 steps in all), and each stops at its
own width, exactly where a bisection of it alone would.  The reported
error_bound sums the density-weighted bracket widths.  Interval endpoints
centered on structural breakpoints are anchored by the cell grid;
features strictly inside a cell must be wider than the cell's grid
spacing to be detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import FiniteAtomic, MassQueryResult
from .errors import DomainError

__all__ = [
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

_BISECT_TOL = 1e-12


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
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def _points(dist, xs) -> np.ndarray:
    """xs as the array the distribution's queries take: atom indices or floats."""
    return np.asarray(xs, dtype=np.intp if isinstance(dist, FiniteAtomic) else float)


def _eta_extremes(dist, xs, r_lo, r_hi) -> tuple[np.ndarray, ...]:
    """Extremes of r -> eta(B(x, r)) over [r_lo, r_hi] with witness radii, per point.

    A row's candidate radii are r_lo, the breakpoint distances strictly
    inside (r_lo, r_hi) in ascending order, and r_hi when r_hi > r_lo.
    Masked lanes are evaluated at radius inf (a ball holding everything)
    and never win; ties go to the first candidate.  Radius 0 evaluates to
    the small-radius limit (the atom's own value for atomic families, the
    side-averaged density limit for continuous ones).  Returns
    (min_value, min_radius, max_value, max_radius).
    """
    d = dist.radius_breakpoints(xs)
    lo, hi = r_lo[:, None], r_hi[:, None]
    rads = np.concatenate([lo, d, hi], axis=1)
    live = np.concatenate([np.ones_like(lo, dtype=bool), (lo < d) & (d < hi), hi > lo], axis=1)
    vals = dist.eta_closed(xs[:, None], np.where(live & (rads > 0.0), rads, np.inf))
    at_zero = r_lo == 0.0
    if at_zero.any():
        vals[at_zero, 0] = dist.eta_small_radius_limit(xs[at_zero])
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
    r_p = dist.prob_radius_value(xs[live], p)
    mn, mn_r, mx, mx_r = _eta_extremes(dist, xs[live], np.zeros_like(r_p), r_p)
    plus = eta > 0.5
    interior = np.where(plus, mn >= 0.5 + band, mx <= 0.5 - band)
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
    r_lo = dist.prob_radius_value(xs[live], k / n)
    r_hi = dist.prob_radius_value(xs[live], min(1.0, (k + math.sqrt(k) + 1.0) / n))
    mn, _, mx, _ = _eta_extremes(dist, xs[live], r_lo, r_hi)
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
    bps = np.unique(np.asarray(dist.x_breakpoints(), dtype=float))
    cells = np.stack([bps[:-1], bps[1:]], axis=1)
    return cells[dist.density_at((cells[:, 0] + cells[:, 1]) / 2.0) > 0.0]


def _bisect(member: Callable[[np.ndarray], np.ndarray], lo, hi, flags) -> None:
    """Narrow every bracket [lo, hi] in place until it is 1e-12 wide.

    The brackets step together, one membership call per step; each keeps
    its own stopping rule, so it ends exactly where a bisection of it
    alone would.  flags holds membership at each lo.
    """
    live = np.flatnonzero(hi - lo > _BISECT_TOL)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        same = member(mid) == flags[live]
        lo[live[same]] = mid[same]
        hi[live[~same]] = mid[~same]
        live = live[hi[live] - lo[live] > _BISECT_TOL]


def _region_mass(dist, member: Callable[[np.ndarray], np.ndarray], grid: int) -> MassQueryResult:
    """Mass of {x : member(x)}, where member flags an array of points.

    An exact sum over the positive-mass atoms of a finite-atomic family.
    On the 1-D families one membership call covers every support cell's
    `grid` steps; then every change of membership between neighbouring
    grid points is bisected to 1e-12, all of them in lockstep.  Sums run
    in root order, one float add at a time.
    """
    total = 0.0
    err = 0.0
    if isinstance(dist, FiniteAtomic):
        atoms = np.flatnonzero(dist.masses > 0.0)
        for mass in dist.masses[atoms[member(atoms)]].tolist():
            total += mass
        return MassQueryResult(total, err)
    cells = _support_cells(dist)
    xs = np.stack([np.linspace(a, b, grid + 1) for a, b in cells])
    flags = member(xs.ravel()).reshape(xs.shape)
    cell, step = np.nonzero(flags[:, :-1] != flags[:, 1:])
    lo, hi = xs[cell, step], xs[cell, step + 1]
    _bisect(member, lo, hi, flags[cell, step])
    roots = 0.5 * (lo + hi)
    for term in (dist.density_at(roots) * (hi - lo)).tolist():
        err += term
    for c, (a, b) in enumerate(cells):
        # the cell alternates between in and out at its roots, starting at flags[c, 0]
        cdfs = dist.cdf(np.concatenate([[a], roots[cell == c], [b]])).tolist()
        for i in range(0 if flags[c, 0] else 1, len(cdfs) - 1, 2):
            total += cdfs[i + 1] - cdfs[i]
    return MassQueryResult(total, err)


def boundary_measure(dist, p: float, band: float, grid: int = 96) -> MassQueryResult:
    """Exact mass of the effective boundary at level (p, band)."""
    _check_level(p)
    _check_band(band)
    code = _VERDICTS.index(BOUNDARY)
    return _region_mass(dist, lambda xs: _region_verdict(dist, xs, p, band)[0] == code, grid)


def high_error_measure(dist, n: int, k: int, grid: int = 96) -> MassQueryResult:
    """Exact mass of the high-error set for (n, k)."""
    _check_sizes(n, k)
    return _region_mass(dist, lambda xs: _high_error_verdict(dist, xs, n, k) != 0, grid)


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
    gap = np.abs(dist.eta_closed(xs, rs) - dist.eta_point_value(xs))
    allowance = constant * np.float_power(dist.ball_mass_value(xs, rs, "open"), exponent)
    bad = np.flatnonzero(gap > allowance)
    if bad.size == 0:
        return None
    i = int(bad[0])
    x, r = probes[i]
    return SmoothnessViolation(float(x), float(r), float(gap[i] - allowance[i]))
