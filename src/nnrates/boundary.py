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
attained at those candidate radii (plus the small-radius limit).

Measures of these regions are exact atom sums for finite-atomic families.
For the 1-D families each region is a finite union of intervals whose
endpoints are bracketed to 1e-12 by bisection on membership inside each
positive-density cell; the reported error_bound sums the density-weighted
bracket widths.  Interval endpoints centered on structural breakpoints
are anchored by the cell grid; features strictly inside a cell must be
wider than the cell's grid spacing to be detected.
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
    "smoothness_audit",
]

INTERIOR_PLUS = "InteriorPlus"
INTERIOR_MINUS = "InteriorMinus"
BOUNDARY = "Boundary"
NOT_IN_SUPPORT = "NotInSupport"

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


def _eta_extremes(dist, x, r_lo: float, r_hi: float) -> tuple[float, float, float, float]:
    """Extremes of r -> eta(B(x, r)) over [r_lo, r_hi] with witness radii.

    Radius 0 evaluates to the small-radius limit (the atom's own value for
    atomic families, the side-averaged density limit for continuous ones).
    Returns (min_value, min_radius, max_value, max_radius).
    """
    rads = [r_lo]
    rads.extend(float(r) for r in dist.radius_breakpoints(x) if r_lo < r < r_hi)
    if r_hi > r_lo:
        rads.append(r_hi)
    vals = []
    for r in rads:
        v = dist.eta_small_radius_limit(x) if r == 0.0 else dist.eta_closed(x, r)
        vals.append((v, r))
    lo = min(vals, key=lambda t: t[0])
    hi = max(vals, key=lambda t: t[0])
    return lo[0], lo[1], hi[0], hi[1]


def _region_verdict(dist, x, p: float, band: float) -> RegionVerdict:
    if not dist.in_support_value(x):
        return RegionVerdict(NOT_IN_SUPPORT)
    eta_x = dist.eta_point_value(x)
    if eta_x == 0.5:
        return RegionVerdict(BOUNDARY)
    r_p = dist.prob_radius_value(x, p)
    mn, mn_r, mx, mx_r = _eta_extremes(dist, x, 0.0, r_p)
    if eta_x > 0.5:
        if mn >= 0.5 + band:
            return RegionVerdict(INTERIOR_PLUS)
        return RegionVerdict(BOUNDARY, mn_r)
    if mx <= 0.5 - band:
        return RegionVerdict(INTERIOR_MINUS)
    return RegionVerdict(BOUNDARY, mx_r)


def region_classify(dist, x, p: float, band: float) -> RegionVerdict:
    """Classify a point against the effective interiors at level (p, band)."""
    _check_level(p)
    _check_band(band)
    dist.space.check_point(x)
    return _region_verdict(dist, x, p, band)


def _high_error_verdict(dist, x, n: int, k: int) -> HighErrorVerdict:
    if not dist.in_support_value(x):
        return HighErrorVerdict(False, "none")
    eta_x = dist.eta_point_value(x)
    if eta_x == 0.5:
        return HighErrorVerdict(False, "none")
    r_lo = dist.prob_radius_value(x, k / n)
    r_hi = dist.prob_radius_value(x, min(1.0, (k + math.sqrt(k) + 1.0) / n))
    mn, _, mx, _ = _eta_extremes(dist, x, r_lo, r_hi)
    tol = 1.0 / math.sqrt(k)
    if eta_x > 0.5:
        if mx <= 0.5 + tol:
            return HighErrorVerdict(True, "plus")
        return HighErrorVerdict(False, "none")
    if mn >= 0.5 - tol:
        return HighErrorVerdict(True, "minus")
    return HighErrorVerdict(False, "none")


def high_error_classify(dist, x, n: int, k: int) -> HighErrorVerdict:
    """Membership in the high-error set for sample size n and k neighbors."""
    _check_sizes(n, k)
    dist.space.check_point(x)
    return _high_error_verdict(dist, x, n, k)


# -- exact measures ------------------------------------------------------------


def _support_cells(dist) -> list[tuple[float, float]]:
    bps = np.unique(np.asarray(dist.x_breakpoints(), dtype=float))
    cells = []
    for a, b in zip(bps[:-1], bps[1:]):
        if dist.density_at((float(a) + float(b)) / 2.0) > 0.0:
            cells.append((float(a), float(b)))
    return cells


def _region_mass(dist, member: Callable[[object], bool], grid: int) -> MassQueryResult:
    """Mass of {x : member(x)}.

    An exact sum over the positive-mass atoms of a finite-atomic family;
    on the 1-D families a scan of each support cell on `grid` steps, with
    each membership change bisected to 1e-12.
    """
    total = 0.0
    err = 0.0
    if isinstance(dist, FiniteAtomic):
        for atom in range(dist.space.size):
            if dist.masses[atom] > 0.0 and member(atom):
                total += float(dist.masses[atom])
        return MassQueryResult(total, err)
    for a, b in _support_cells(dist):
        xs = np.linspace(a, b, grid + 1)
        flags = [member(float(x)) for x in xs]
        roots = []
        for i in range(grid):
            if flags[i] == flags[i + 1]:
                continue
            lo_x, hi_x = float(xs[i]), float(xs[i + 1])
            while hi_x - lo_x > _BISECT_TOL:
                mid = 0.5 * (lo_x + hi_x)
                if member(mid) == flags[i]:
                    lo_x = mid
                else:
                    hi_x = mid
            roots.append(0.5 * (lo_x + hi_x))
            err += dist.density_at(0.5 * (lo_x + hi_x)) * (hi_x - lo_x)
        inside = flags[0]
        current = a
        for root in roots:
            if inside:
                total += dist.cdf(root) - dist.cdf(current)
            inside = not inside
            current = root
        if inside:
            total += dist.cdf(b) - dist.cdf(current)
    return MassQueryResult(total, err)


def boundary_measure(dist, p: float, band: float, grid: int = 96) -> MassQueryResult:
    """Exact mass of the effective boundary at level (p, band)."""
    _check_level(p)
    _check_band(band)
    return _region_mass(dist, lambda x: _region_verdict(dist, x, p, band).verdict == BOUNDARY, grid)


def high_error_measure(dist, n: int, k: int, grid: int = 96) -> MassQueryResult:
    """Exact mass of the high-error set for (n, k)."""
    _check_sizes(n, k)
    return _region_mass(dist, lambda x: _high_error_verdict(dist, x, n, k).verdict, grid)


def margin_mass(dist, t: float) -> float:
    """Mass of points whose label frequency is within t of 1/2."""
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"margin width must be finite and nonnegative, got {t}")
    return float(dist.margin_mass_value(t))


def smoothness_audit(
    dist, exponent: float, constant: float, probes: Sequence[tuple[float, float]]
) -> Optional[SmoothnessViolation]:
    """Check |eta(B(x,r)) - eta(x)| <= constant * open_mass**exponent at each probe.

    Probes are (x, r) pairs with x in support and r > 0.  Returns None when
    every probe passes, else the first violation with its excess amount.
    """
    if not (exponent > 0.0 and constant > 0.0):
        raise ValueError("smoothness exponent and constant must be positive")
    for x, r in probes:
        dist.space.check_point(x)
        if not dist.in_support_value(x):
            raise DomainError(f"probe {x} is outside the support")
        if not r > 0.0:
            raise ValueError(f"probe radii must be positive, got {r}")
        gap = abs(dist.eta_closed(x, r) - dist.eta_point_value(x))
        allowance = constant * dist.ball_mass_value(x, r, "open") ** exponent
        if gap > allowance:
            return SmoothnessViolation(float(x), float(r), gap - allowance)
    return None
