"""Synthetic labeled distributions with exact measure and radius queries.

Three families, each with closed-form answers to every query the analysis
needs: ball masses (open and closed), probability radii, pointwise and
ball-averaged label frequencies, margin masses, and Bayes risk.

* :class:`FiniteAtomic` - atoms of a finite metric space carrying point
  masses and per-atom label frequencies.
* :class:`PiecewiseUniform1D` - two class-conditional piecewise-constant
  densities on [0, 1] mixed by class priors.
* :class:`PowerMargin1D` - uniform marginal on [0, 1] whose regression
  function leaves 1/2 at a controlled polynomial speed, eta(x) =
  1/2 + (1/2) * sign(2x - 1) * |2x - 1|**gamma.

Sampling is reproducible: a seed fully determines the draws, which are made
in a fixed order (locations, then tie-break draws, then labels, one array
each).  Tie-break draws are uniform doubles in [0, 1).

The ball-average of the label frequency over a set A of positive mass is
written eta(A) = (1/mu(A)) * integral of eta over A.  For an augmented ball
(closed ball B, open ball Bo, sphere cutoff nu in [0, 1]) the average mixes
the open-ball and closed-ball values through the product measure:

    eta(A) = (nu * S(B) + (1 - nu) * S(Bo)) / (nu * mu(B) + (1 - nu) * mu(Bo))

where S(.) denotes the unnormalized integral of eta.  Both families of
1-D queries reduce to prefix integrals that are piecewise linear or
piecewise power functions of the interval endpoints, so every value here
is exact up to float rounding; ``MassQueryResult.error_bound`` is zero.

The geometry queries behind the public functions (``cdf``, ``eta_prefix``,
``ball_sums``, ``ball_table``, ``radius_at``, ``eta_point_value``, ...) are
array-first: they take an array of points, atom indices for finite-atomic
families, and answer lane by lane with the same float operations a
one-point query performs.  ``ball_sums`` gives a ball's mass and its eta
integral, from which every ball mass and ball average is read;
``ball_table`` gives them at each of a point's candidate radii, where they
change, and ``radius_at`` reads probability radii off that table.

The trial kernels of `nnrates.harness` draw and query through private
hooks: `_draw` and `_place` for samples and `_cdf_pair_into` for masses,
which write into buffers the caller owns, and `_wrong_excess` for the
excess risk of a rule's wrong windows.  The draws are those of
`sample_arrays`, bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._rng import generator
from ._schema import REQUIRED, check, fields, real
from .errors import ZeroMassError
from .metric import FiniteMetric, IntervalMetric, load_finite_metric

__all__ = [
    "AugmentedSample",
    "FiniteAtomic",
    "MassQueryResult",
    "PiecewiseUniform1D",
    "PowerMargin1D",
    "ball_mass",
    "bayes_risk",
    "eta_ball",
    "eta_point",
    "in_support",
    "load_distribution",
    "prob_radius",
    "sample_labeled",
]

_BALL_KINDS = ("open", "closed", "augmented")


class AugmentedSample(NamedTuple):
    """One labeled training point: location, tie-break draw, label, index."""

    x: object
    z: float
    y: int
    index: int


@dataclass(frozen=True)
class MassQueryResult:
    """A measure-valued answer and the error that ``error_bound`` covers.

    Distribution queries (`ball_mass`, `eta_ball`) and finite-atomic region
    measures are closed forms or exact sums, and report ``error_bound ==
    0.0``.  The 1-D region measures of `nnrates.boundary` report the
    density-weighted widths of their final brackets, and that is all the
    bound covers: a region piece between two neighbouring points of one
    split is missed, in the value and in the bound alike (see the `nnrates.boundary` docstring).
    """

    value: float
    error_bound: float = 0.0


def _check_radius(r: float) -> None:
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")


def _check_prob(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability level must lie in [0, 1], got {p}")


class FiniteAtomic:
    """Point masses on the atoms of a finite metric space.

    Parameters
    ----------
    space : FiniteMetric
        The atom set and its distance matrix.
    masses : sequence of float
        Nonnegative atom probabilities summing to one (within 1e-12).
    etas : sequence of float
        Per-atom label frequencies in [0, 1].
    """

    def __init__(self, space: FiniteMetric, masses: Sequence[float], etas: Sequence[float]):
        if not isinstance(space, FiniteMetric):
            raise TypeError("FiniteAtomic requires a FiniteMetric space")
        m = np.asarray(masses, dtype=float)
        e = np.asarray(etas, dtype=float)
        if m.shape != (space.size,) or e.shape != (space.size,):
            raise ValueError("masses and etas must have one entry per atom")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("masses must be nonnegative and finite")
        if abs(m.sum() - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {m.sum()!r}")
        if not np.all((e >= 0.0) & (e <= 1.0)):  # NaN fails both
            raise ValueError("etas must lie in [0, 1]")
        self.space = space
        self.masses = m
        self.etas = e
        self._cum = np.cumsum(m)
        self._top = int(np.flatnonzero(m)[-1])  # where a uniform past a short prefix's end lands
        # running mass and eta-weighted mass along each row of the group table, after a 0
        self._runs = np.zeros((2, space.size, space.size + 1))
        np.cumsum(np.stack([m, m * e])[:, space.order], axis=-1, out=self._runs[:, :, 1:])

    # -- sampling ---------------------------------------------------------

    def sample_arrays(self, seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._draw(generator(seed).random((3, n)))

    def _draw(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The atoms, tie-break draws and int8 labels of draws made from the uniforms u.

        A draw of n points reads the first 3n numbers of its stream: n
        locations, n tie-breaks, then n label uniforms, so u[..., i, :] holds
        the i-th run.  `sample_arrays` maps one stream's ``random((3, n))``;
        the harness reads a block of streams into a (trials, 3, n) array and
        maps it in one call.
        """
        xs = np.searchsorted(self._cum, u[..., 0, :], side="right")
        np.minimum(xs, self._top, out=xs)
        return xs, u[..., 1, :], (u[..., 2, :] < self.etas[xs]).astype(np.int8)

    # -- measures ---------------------------------------------------------
    # Geometry queries take an array of atom indices (a plain index too)
    # and answer lane by lane, broadcasting radii against the points.

    def ball_sums(self, xs, r, kind: str = "closed") -> tuple[np.ndarray, np.ndarray]:
        """Mass and eta-weighted mass of the open or closed balls B(x, r): the running sums of
        `ball_table` read at the last atom inside r, zero before the first."""
        xs = np.asarray(xs, dtype=np.intp)
        r = np.asarray(r, dtype=float)[..., None]
        rows = self.space.sorted_rows[xs]
        inside = np.add.reduce(rows < r if kind == "open" else rows <= r, axis=-1)
        return tuple(self._runs[:, xs, inside])

    def ball_table(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (points x radii) table of a 1-D array of atoms: each one's `FiniteMetric.sorted_rows`
        row, with the running mass and eta-weighted mass along it (a tie group's last entry is its ball)."""
        xs = np.asarray(xs, dtype=np.intp)
        return self.space.sorted_rows[xs], self._runs[0, xs, 1:], self._runs[1, xs, 1:]

    def radius_at(self, table, p: float) -> np.ndarray:
        # the first radius whose running mass reaches p, or the largest one
        # when rounding keeps the total below p
        hit = table[1] >= p
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), hit.shape[1] - 1)
        return table[0][np.arange(hit.shape[0]), first]

    def eta_point_value(self, xs) -> np.ndarray:
        return self.etas[np.asarray(xs, dtype=np.intp)]

    def in_support_value(self, xs) -> np.ndarray:
        return self.masses[np.asarray(xs, dtype=np.intp)] > 0.0

    def bayes_risk_value(self) -> float:
        return float((self.masses * np.minimum(self.etas, 1.0 - self.etas)).sum())

    def margin_mass_value(self, t: float) -> float:
        mask = np.abs(self.etas - 0.5) <= t
        return float(self.masses[mask].sum())

    def eta_small_radius_limit(self, xs) -> np.ndarray:
        return self.eta_point_value(xs)


class _Interval1D:
    """Shared plumbing for the two families supported on [0, 1].

    Geometry queries take an array of points (a plain float too) and
    answer lane by lane, broadcasting radii against the points.
    """

    space: IntervalMetric

    def cdf(self, t) -> np.ndarray:
        raise NotImplementedError

    def eta_prefix(self, t) -> np.ndarray:
        """Integral of eta(s) * density(s) over [0, t], per t."""
        raise NotImplementedError

    def density_at(self, t) -> np.ndarray:
        raise NotImplementedError

    def _place(self, u: np.ndarray, v: np.ndarray, labels: np.ndarray, scratch: np.ndarray) -> None:
        """Turn location uniforms u into locations, in place, and label uniforms v into labels.

        The labels v < eta go to the bool array labels.  scratch holds two
        float rows of at least len(u).
        """
        raise NotImplementedError

    def _cdf_pair_into(self, ts: np.ndarray, cdf: np.ndarray, ones: np.ndarray) -> None:
        """Mass of [0, t] and the part of it where the Bayes label is 1, for the ascending ts.

        The two go to cdf and ones, one entry per t.  The ts are clipped to
        [0, 1] with maximum and minimum: on a 100-edge row they took 2.6 us
        where np.clip took 4.7.  The two differ only at -0.0, which clip
        keeps and maximum turns into +0.0.  No trial edge is -0.0: edges are
        locations, midpoints of locations, and the 0.0 and 1.0 ends, all
        >= +0.0.
        """
        raise NotImplementedError

    def _wrong_excess(self, lo: np.ndarray, hi: np.ndarray, votes: np.ndarray) -> float:
        """Summed over the windows [lo, hi] that vote ``votes``, the integral of |1 - 2 eta| * density
        over each one's part where its vote is not the Bayes label, window by window with no prefix
        integral to cancel."""
        raise NotImplementedError

    def sample_arrays(self, seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs, zs = np.empty((2, n))
        ys = np.empty(n, dtype=bool)
        self._draw(generator(seed), xs, zs, ys, np.empty((3, n)))
        return xs, zs, ys.view(np.int8)

    def _draw(self, rng: np.random.Generator, xs: np.ndarray, zs, ys, scratch: np.ndarray) -> None:
        """Draw len(xs) labeled points on rng in place, as `sample_arrays` does.

        Locations go to xs, tie-break draws to zs and labels to the bool
        array ys.  With zs None the stream skips the tie-break draws instead
        of making them.  scratch holds three float rows of at least len(xs).
        """
        rng.random(out=xs)
        if zs is None:
            rng.bit_generator.advance(xs.size)
        else:
            rng.random(out=zs)
        v = scratch[0, : xs.size]
        rng.random(out=v)
        self._place(xs, v, ys, scratch[1:])

    def x_breakpoints(self) -> np.ndarray:
        """Locations where the density or eta formula changes."""
        raise NotImplementedError

    def ball_sums(self, xs, r, kind: str = "closed") -> tuple[np.ndarray, np.ndarray]:
        """Mass and eta integral of the balls B(x, r), clipped to [0, 1].

        No atoms: spheres carry no mass, so open and closed balls agree.
        """
        lo = np.maximum(0.0, np.subtract(xs, r))
        hi = np.minimum(1.0, np.add(xs, r))
        # cdf and eta_prefix are elementwise: one call on both ends gives the
        # bits of one call per end, at half the fixed cost of a small query
        ends = np.array([hi, lo])
        cdf, eta = self.cdf(ends), self.eta_prefix(ends)
        empty = hi <= lo
        return np.where(empty, 0.0, cdf[0] - cdf[1]), np.where(empty, 0.0, eta[0] - eta[1])

    def ball_table(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (points x radii) table of a 1-D array of points: 0 and the distances to every
        breakpoint in ascending order, with the `ball_sums` at each."""
        xs = np.asarray(xs, dtype=float)[:, None]
        rads = np.concatenate([np.zeros_like(xs), np.sort(np.abs(xs - self.x_breakpoints()), axis=1)], axis=1)
        return (rads, *self.ball_sums(xs, rads))

    def radius_at(self, table, p: float) -> np.ndarray:
        # 0 and 1 are breakpoints, so a row's last radius is the reach
        # max(x, 1 - x).  Ball mass is linear in r between candidates: find
        # the first one holding p and interpolate on the piece it ends
        rads, mass, _ = table
        hit = mass >= p
        rows, b = np.arange(rads.shape[0]), hit.argmax(axis=1)
        a, piece = np.maximum(b - 1, 0), b > 0
        r_a, r_b, m_a, m_b = rads[rows, a], rads[rows, b], mass[rows, a], mass[rows, b]
        step = np.divide((p - m_a) * (r_b - r_a), m_b - m_a, out=np.zeros_like(r_a), where=piece)
        r = np.where(piece, r_a + step, r_b)
        return np.where(hit.any(axis=1), r, rads[:, -1])


class PiecewiseUniform1D(_Interval1D):
    """Two piecewise-constant class densities on [0, 1] mixed by priors.

    Parameters
    ----------
    priors : (float, float)
        Class prior probabilities (label 0, label 1); nonnegative, sum 1.
    class0, class1 : (breaks, densities)
        Each class density is given by its breakpoints (starting at 0.0,
        ending at 1.0, strictly increasing) and one density value per
        segment.  Each class density must integrate to 1 (within 1e-12).

    The constructor refines both break lists to a common grid.  On a
    segment with total density f > 0 the label frequency is the constant
    eta = prior1 * f1 / f; segments with f == 0 carry no mass and are
    excluded from the support.  At a point of zero density, eta is reported
    from the nearest positive-density segment (ties resolved to the left),
    and such points are flagged as outside the support.
    """

    def __init__(
        self,
        priors: Sequence[float],
        class0: tuple[Sequence[float], Sequence[float]],
        class1: tuple[Sequence[float], Sequence[float]],
    ):
        p0, p1 = float(priors[0]), float(priors[1])
        if not (p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= 1e-12):  # NaN fails
            raise ValueError("priors must be nonnegative and sum to 1")
        b0, d0 = self._check_class(class0)
        b1, d1 = self._check_class(class1)
        breaks = np.unique(np.concatenate([b0, b1]))
        f0 = self._lookup(b0, d0, breaks)
        f1 = self._lookup(b1, d1, breaks)
        self.priors = (p0, p1)
        self.breaks = breaks
        self.widths = np.diff(breaks)
        self.f = p0 * f0 + p1 * f1           # total density per segment
        self.g = p1 * f1                     # eta * density per segment
        self._mass_prefix = np.concatenate([[0.0], np.cumsum(self.f * self.widths)])
        self._eta_mass_prefix = np.concatenate([[0.0], np.cumsum(self.g * self.widths)])
        # the class densities may integrate to 1 - 1e-12, so the mass prefix
        # can end below 1; a location uniform at or past its end is placed as
        # the largest double below the end, in the last segment with mass
        end = self._mass_prefix[-1]
        self._u_top = float(np.nextafter(end, 0.0)) if end < 1.0 else None
        with np.errstate(invalid="ignore", divide="ignore"):
            self.seg_eta = np.where(self.f > 0.0, self.g / np.where(self.f > 0.0, self.f, 1.0), np.nan)
        self._bayes_one = (self.f > 0.0) & (np.nan_to_num(self.seg_eta, nan=0.0) >= 0.5)
        self._bayes_one_prefix = self._restricted_prefix()
        self.space = IntervalMetric(0.0, 1.0)

    @staticmethod
    def _check_class(spec: tuple[Sequence[float], Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
        breaks = np.asarray(spec[0], dtype=float)
        dens = np.asarray(spec[1], dtype=float)
        if breaks.ndim != 1 or breaks.size < 2 or dens.shape != (breaks.size - 1,):
            raise ValueError("class density needs k+1 breakpoints and k segment densities")
        if breaks[0] != 0.0 or breaks[-1] != 1.0 or not np.all(np.diff(breaks) > 0.0):  # NaN fails
            raise ValueError("breakpoints must increase strictly from 0.0 to 1.0")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise ValueError("densities must be nonnegative and finite")
        total = float((dens * np.diff(breaks)).sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"class density must integrate to 1, got {total!r}")
        return breaks, dens

    @staticmethod
    def _lookup(breaks: np.ndarray, dens: np.ndarray, grid: np.ndarray) -> np.ndarray:
        mids = (grid[:-1] + grid[1:]) / 2.0
        idx = np.clip(np.searchsorted(breaks, mids, side="right") - 1, 0, dens.size - 1)
        return dens[idx]

    def _restricted_prefix(self) -> np.ndarray:
        inc = np.where(self._bayes_one, self.f * self.widths, 0.0)
        return np.concatenate([[0.0], np.cumsum(inc)])

    # -- segment lookup ----------------------------------------------------

    def _seg(self, t) -> np.ndarray:
        # the number of interior breaks at or below t: searchsorted's segment
        # index, clipped to the first and last segment
        return self.breaks[1:-1].searchsorted(t, side="right")

    @staticmethod
    def _count_cuts(cuts: np.ndarray, keys: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Number of the ascending cuts at or below each key, in scratch[0].

        One comparison pass per cut: against a handful of cuts this beats a
        binary search per key, and it gives searchsorted's segment index,
        zero-mass segments included.
        """
        j = scratch[0].view(np.intp)[: keys.size]
        hit = scratch[1].view(np.intp)[: keys.size]
        j.fill(0)
        for cut in cuts:
            np.greater_equal(keys, cut, out=hit)
            j += hit
        return j

    # -- distribution interface --------------------------------------------

    def _place(self, u: np.ndarray, v: np.ndarray, labels: np.ndarray, scratch: np.ndarray) -> None:
        # u lies in mass segment j when j interior mass prefixes are <= u;
        # the location is breaks[j] + (u - prefix[j]) / f[j].  j always has
        # mass: a zero-mass segment's two prefixes are equal, so u passes
        # both or neither, and _u_top keeps u below a short prefix's end.
        # Indices are in range, so take's "clip" mode only spares it a copy
        # of out.
        if self._u_top is not None:
            np.minimum(u, self._u_top, out=u)
        j = self._count_cuts(self._mass_prefix[1:-1], u, scratch)
        tmp = scratch[1, : u.size]
        np.take(self.seg_eta, j, out=tmp, mode="clip")
        np.less(v, tmp, out=labels)
        np.take(self._mass_prefix, j, out=tmp, mode="clip")
        np.subtract(u, tmp, out=u)
        np.take(self.f, j, out=tmp, mode="clip")
        np.divide(u, tmp, out=u)
        np.take(self.breaks, j, out=tmp, mode="clip")
        np.add(tmp, u, out=u)

    def cdf(self, t) -> np.ndarray:
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        j = self._seg(t)
        return self._mass_prefix[j] + self.f[j] * (t - self.breaks[j])

    def eta_prefix(self, t) -> np.ndarray:
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        j = self._seg(t)
        return self._eta_mass_prefix[j] + self.g[j] * (t - self.breaks[j])

    def _cdf_pair_into(self, ts: np.ndarray, cdf: np.ndarray, ones: np.ndarray) -> None:
        # the clipped ts ascend, so segment j's ts form one slice; on it
        # cdf = prefix[j] + run and ones = ones_prefix[j] + (run or 0.0),
        # with run = f[j] * (t - breaks[j])
        np.minimum(np.maximum(ts, 0.0, out=cdf), 1.0, out=cdf)
        starts = np.searchsorted(cdf, self.breaks[1:-1])
        bounds = [0, *starts.tolist(), cdf.size]
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo == hi:
                continue
            run = cdf[lo:hi]
            run -= self.breaks[j]
            run *= self.f[j]
            if self._bayes_one[j]:
                np.add(run, self._bayes_one_prefix[j], out=ones[lo:hi])
            else:
                ones[lo:hi] = self._bayes_one_prefix[j] + 0.0
            run += self._mass_prefix[j]

    def _wrong_excess(self, lo: np.ndarray, hi: np.ndarray, votes: np.ndarray) -> float:
        # |1 - 2 eta| * density is |f - 2g| on a segment, and a window's piece
        # there is wrong where the vote is not the segment's Bayes label
        width = np.minimum(hi[:, None], self.breaks[1:]) - np.maximum(lo[:, None], self.breaks[:-1])
        weight = np.where(votes[:, None] != self._bayes_one, np.abs(self.f - 2.0 * self.g), 0.0)
        return float((np.maximum(width, 0.0) * weight).sum())

    def density_at(self, t) -> np.ndarray:
        return np.where((t < 0.0) | (t > 1.0), 0.0, self.f[self._seg(t)])

    def x_breakpoints(self) -> np.ndarray:
        return self.breaks

    def eta_point_value(self, xs) -> np.ndarray:
        # a zero-density point reports the nearest positive segment, left on ties
        xs = np.asarray(xs, dtype=float)[..., None]
        j = self._seg(xs[..., 0])
        pos = np.flatnonzero(self.f > 0.0)
        gap = np.maximum(np.maximum(self.breaks[pos] - xs, xs - self.breaks[pos + 1]), 0.0)
        return self.seg_eta[np.where(self.f[j] > 0.0, j, pos[gap.argmin(axis=-1)])]

    def in_support_value(self, xs) -> np.ndarray:
        # a gap's left edge touches the previous segment
        j = self._seg(xs)
        left_edge = (xs == self.breaks[j]) & (j >= 1) & (self.f[j - 1] > 0.0)
        return (self.f[j] > 0.0) | left_edge

    def bayes_risk_value(self) -> float:
        risk = np.minimum(self.g, self.f - self.g) * self.widths
        return float(risk[self.f > 0.0].sum())

    def margin_mass_value(self, t: float) -> float:
        mask = (self.f > 0.0) & (np.abs(np.nan_to_num(self.seg_eta, nan=2.0) - 0.5) <= t)
        return float((self.f * self.widths)[mask].sum())

    def eta_small_radius_limit(self, xs) -> np.ndarray:
        # density-weighted average of the segments on either side of x
        xs = np.asarray(xs, dtype=float)
        jr = self._seg(xs)
        jl = np.where((xs == self.breaks[jr]) & (jr >= 1), jr - 1, jr)
        jl = np.where(xs == 1.0, self.f.size - 1, jl)
        right, left = xs < 1.0, xs > 0.0
        denom = np.where(left, self.f[jl], 0.0) + np.where(right, self.f[jr], 0.0)
        if np.any(denom <= 0.0):
            raise ZeroMassError("a point has no mass adjacent to it")
        return (np.where(left, self.g[jl], 0.0) + np.where(right, self.g[jr], 0.0)) / denom


class PowerMargin1D(_Interval1D):
    """Uniform marginal on [0, 1] with a polynomial exit from eta = 1/2.

    eta(x) = 1/2 + (1/2) * sign(2x - 1) * |2x - 1|**gamma for gamma > 0.
    Small gamma snaps eta away from 1/2 quickly (easy problems); large
    gamma keeps a wide ambiguous band around x = 1/2.
    """

    def __init__(self, gamma: float):
        if not (np.isfinite(gamma) and gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.space = IntervalMetric(0.0, 1.0)
        self._odd_at_zero = self._odd_antideriv(0.0)
        self._breaks = np.array([0.0, 0.5, 1.0])

    def _place(self, u: np.ndarray, v: np.ndarray, labels: np.ndarray, scratch: np.ndarray) -> None:
        # the marginal is uniform: a location is its own uniform
        self._eta_into(u, scratch[0, : u.size], scratch[1:])
        np.less(v, scratch[0, : u.size], out=labels)

    def _eta_into(self, xs: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write eta(x) for each x into out; scratch as in `_place`."""
        # 0.5 + 0.5 * sign(s) * |s|**gamma with s = 2x - 1, operation for operation.  Every draw
        # passes here, so it keeps np.power where the closed forms below take float_power, which
        # took 0.64-1.07 ms against 21-38 us on 5*10^4 lanes at gamma = 1 (shared 2-core box).
        # The two differ in the last bit on 5.5 % of lanes at gamma = 1.7 and 0.06-0.09 % at 2:
        # a label whose uniform falls within one ulp of eta follows numpy's pow dispatch
        s = scratch[0, : xs.size]
        np.multiply(xs, 2.0, out=s)
        s -= 1.0
        np.sign(s, out=out)
        out *= 0.5
        np.abs(s, out=s)
        s **= self.gamma
        out *= s
        out += 0.5

    def cdf(self, t) -> np.ndarray:
        return np.minimum(np.maximum(t, 0.0), 1.0)

    def _cdf_pair_into(self, ts: np.ndarray, cdf: np.ndarray, ones: np.ndarray) -> None:
        np.minimum(np.maximum(ts, 0.0, out=cdf), 1.0, out=cdf)
        np.subtract(cdf, 0.5, out=ones)
        np.maximum(0.0, ones, out=ones)

    def _wrong_excess(self, lo: np.ndarray, hi: np.ndarray, votes: np.ndarray) -> float:
        # |1 - 2 eta| = |2x - 1|**gamma, the odd antiderivative's slope up to
        # sign: a vote of 1 is wrong on the window's part below 1/2, where the
        # antiderivative falls, and a vote of 0 on its part above
        a = np.where(votes, np.minimum(lo, 0.5), np.maximum(hi, 0.5))
        b = np.where(votes, np.minimum(hi, 0.5), np.maximum(lo, 0.5))
        return float((self._odd_antideriv(a) - self._odd_antideriv(b)).sum())

    # float_power calls the C library's pow, as Python's float ** does;
    # np.power may take a SIMD approximation that differs in the last bit

    def _odd_antideriv(self, t) -> np.ndarray:
        # antiderivative of sign(2s - 1) * |2s - 1|**gamma
        return np.float_power(np.abs(2.0 * t - 1.0), self.gamma + 1.0) / (2.0 * (self.gamma + 1.0))

    def eta_prefix(self, t) -> np.ndarray:
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        return 0.5 * t + 0.5 * (self._odd_antideriv(t) - self._odd_at_zero)

    def density_at(self, t) -> np.ndarray:
        return np.where((t >= 0.0) & (t <= 1.0), 1.0, 0.0)

    def x_breakpoints(self) -> np.ndarray:
        return self._breaks

    def eta_point_value(self, xs) -> np.ndarray:
        s = 2.0 * np.asarray(xs, dtype=float) - 1.0
        return 0.5 + 0.5 * np.copysign(np.float_power(np.abs(s), self.gamma), s)

    def in_support_value(self, xs) -> np.ndarray:
        return np.ones(np.shape(xs), dtype=bool)

    def bayes_risk_value(self) -> float:
        return 0.5 - 0.5 / (self.gamma + 1.0)

    def margin_mass_value(self, t: float) -> float:
        if t >= 0.5:
            return 1.0
        return min(1.0, (2.0 * t) ** (1.0 / self.gamma))

    def eta_small_radius_limit(self, xs) -> np.ndarray:
        return self.eta_point_value(xs)


Distribution = FiniteAtomic | PiecewiseUniform1D | PowerMargin1D


# -- public query layer ------------------------------------------------------


def sample_labeled(dist: Distribution, seed: int, n: int) -> list[AugmentedSample]:
    """Draw n labeled augmented samples; the seed fixes the output exactly."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    xs, zs, ys = dist.sample_arrays(seed, n)
    # tolist gives Python ints for atoms and labels and floats for the rest
    return [AugmentedSample(*s, i) for i, s in enumerate(zip(xs.tolist(), zs.tolist(), ys.tolist()))]


def ball_mass(dist: Distribution, x, r: float, kind: str = "closed") -> MassQueryResult:
    """Exact mass of the open or closed ball around a domain point."""
    if kind not in ("open", "closed"):
        raise ValueError(f"kind must be 'open' or 'closed', got {kind!r}")
    dist.space.check_point(x)
    _check_radius(r)
    return MassQueryResult(float(dist.ball_sums(x, r, kind)[0]), 0.0)


def prob_radius(dist: Distribution, x, p: float) -> float:
    """Smallest radius whose closed ball reaches mass p (infimum convention)."""
    dist.space.check_point(x)
    _check_prob(p)
    return float(dist.radius_at(dist.ball_table([x]), p)[0])


def eta_point(dist: Distribution, x) -> float:
    """Pointwise label frequency; off-support points report the nearest value."""
    dist.space.check_point(x)
    return float(dist.eta_point_value(x))


def eta_ball(
    dist: Distribution, x, r: float, kind: str = "closed", z_cut: float | None = None
) -> MassQueryResult:
    """Average label frequency over an open, closed, or augmented ball.

    ``kind='augmented'`` requires ``z_cut`` in [0, 1] and mixes the open and
    closed ball averages through the sphere cutoff.  A query over zero mass
    raises :class:`ZeroMassError`.
    """
    if kind not in _BALL_KINDS:
        raise ValueError(f"kind must be one of {_BALL_KINDS}, got {kind!r}")
    dist.space.check_point(x)
    _check_radius(r)
    if kind == "augmented":
        if z_cut is None or not 0.0 <= z_cut <= 1.0:
            raise ValueError("augmented queries need z_cut in [0, 1]")
    elif z_cut is not None:
        raise ValueError("z_cut only applies to augmented queries")

    nu = {"closed": 1.0, "open": 0.0}.get(kind, z_cut)  # 1.0 * m + 0.0 * m' is m, bit for bit
    m_closed, s_closed = dist.ball_sums(x, r, "closed")
    m_open, s_open = dist.ball_sums(x, r, "open")
    mass = nu * m_closed + (1.0 - nu) * m_open
    total = nu * s_closed + (1.0 - nu) * s_open
    if mass <= 0.0:
        raise ZeroMassError(f"{kind} ball of radius {r} at {x} has zero mass")
    return MassQueryResult(float(total / mass), 0.0)


def in_support(dist: Distribution, x) -> bool:
    """True when every ball around x, however small, has positive mass."""
    dist.space.check_point(x)
    return bool(dist.in_support_value(x))


def bayes_risk(dist: Distribution) -> float:
    """Exact integral of min(eta, 1 - eta) against the marginal."""
    return float(dist.bayes_risk_value())


_ANY = (lambda value, where, key: value, REQUIRED)  # the family's constructor checks the value
_PIECES = {"breaks": _ANY, "densities": _ANY}  # a class of a piecewise family
_CLASS = (lambda value, where, key: tuple(fields(value, _PIECES, f"{where}.{key}").values()), REQUIRED)
_PATH = check(lambda v: isinstance(v, (str, os.PathLike)), "a file path")
# the keys of each family's config object, each with its check
_FAMILIES = {
    "finite_atomic": {"metric_file": (_PATH, REQUIRED), "masses": _ANY, "etas": _ANY},
    "piecewise_uniform_1d": {
        "priors": (check(lambda v: isinstance(v, (list, tuple)) and len(v) == 2,
                         "a list of two class probabilities"), REQUIRED),
        "class0": _CLASS,
        "class1": _CLASS,
    },
    "power_margin_1d": {"gamma": (real("a finite number > 0", 0.0), REQUIRED)},
}


def load_distribution(config: dict, base_dir: str = ".") -> Distribution:
    """Build a distribution from its configuration dictionary.

    The ``family`` tag picks the class, and `_FAMILIES` lists the keys each
    family takes.  FiniteAtomic instances reference their metric through
    ``metric_file`` (resolved against ``base_dir``).
    """
    spec = fields(config, _FAMILIES, "distribution", "family")
    family = spec.pop("family")
    try:
        if family == "finite_atomic":
            path = os.path.join(base_dir, spec["metric_file"])  # an absolute path stays as it is
            return FiniteAtomic(load_finite_metric(path), spec["masses"], spec["etas"])
        if family == "piecewise_uniform_1d":
            return PiecewiseUniform1D(**spec)
        return PowerMargin1D(**spec)
    except (TypeError, OverflowError) as exc:  # a list for a number, an int no float holds
        raise ValueError(f"malformed {family} distribution config: {exc}") from exc
