"""Verification experiments: exact oracles plus seeded Monte Carlo trials.

A trial records the mass of the region where the trained rule disagrees
with the Bayes rule, Pr_X(predicted != Bayes), or its excess risk over
the Bayes rule, E_X[|1 - 2 eta(X)| * 1{predicted != Bayes}] (Devroye,
Gyorfi & Lugosi 1996, Thm 2.2): the same region under the weight
|1 - 2 eta| * density in place of the density.  For finite-atomic
families either is an exact atom sum; for the 1-D continuous families it
is an exact integral read off the sorted-window prediction table, so each
trial contributes a closed-form number and the only randomness is the
training draw itself.  For label-deterministic families (frequencies 0 or
1 everywhere) the two coincide with the overall label mistake
probability.

The finite-atomic exact oracle, `exact_expected_mistake`, conditions on
the k-th neighbor's distance group, each summed when its walk of the group
table reaches it: its cost does not grow with n.

Reproducibility contract: every trial's draw is a documented function of
(master_seed, n, trial_index t), in one of two stream layouts.  Trials are
therefore order-independent: growing a trial budget never changes earlier
trials, and a run from an offset start reproduces the same trials bit for
bit.  Aggregation always reduces in trial order.

- A 1-D trial has a stream of its own, ``generator(mix64(master_seed, n,
  t))``.  `_states` derives the PCG64 states of a block of trials at once,
  and a run sets them in turn on the one generator it owns: a fresh
  generator per trial cost 20 us.
- Finite-atomic trial t reads numbers [3n j, 3n (j + 1)) of the stream
  ``generator(master_seed, n, b)``, where (b, j) = divmod(t,
  `_BLOCK_TRIALS`): each stream of 512 trials is split by jump-ahead
  (PCG64's ``advance``; O'Neill 2014), and no draw of n points reads more
  than 3n numbers.  So changing `_BLOCK_TRIALS` moves every finite-atomic
  value.

Trials of the 1-D families run through one kernel, `_Trials1D`, that
allocates nothing per trial.  Each run of trials sizes one set of
buffers for its (n, k) and draws every trial into them; fresh temporaries
cost a trial at n = 5*10^4 about 1,300 page faults, as the allocator
returned them to the system after every trial.  A trial draws only the
numbers it reads: it skips the tie-break draws and sorts one packed key
of locations and labels.  The disagreement integral takes one slice
of the sorted edges per density segment; the excess weight, a closed form
per family, is taken only on the windows whose disagreement is not 0.  On
the disjoint family's shape (`_label_cut`) the rule is a step at the
midpoint s* of two order statistics, and a trial returns |s* - B| with no
window table and no integral.  From n = `_BAND_FROM` on it sorts only the
uniforms near B (322 of 10^4 at k = 100), or all if they miss s*'s two;
a rare row where |s* - B| may not be the integral takes the integral.

The sorted-window identity gives a 1-D trial its prediction table: the k
nearest neighbors of a query on the line form a contiguous block of the
location-sorted training set, and the block moves exactly at the
midpoints (t[i] + t[i+k]) / 2.  With t ascending and no location
repeated, window i's vote decides the queries between switches i - 1 and
i, with virtual switches at -inf and +inf, as `predict` decides them.  A
row with a repeated location, which continuous sampling produces with
probability on the order of n**2 * 2**-53 per draw, is ordered by
(location, tie-break draw) instead, and a window that starts inside a run
of equal locations takes its part of the run from the run's start: the
smallest tie-break draws, as `predict` takes them.

Finite-atomic trials run a block at a time in one kernel, `_atomic_wrong`,
that both the disagreement and the excess statistics read.  The trials of
a block read consecutive numbers of one stream, so one ``random`` call
fills the block's (trials, 3, n) array (`_stream_blocks`); the atom
lookup, the labels and the neighbor ranking then run once over the block.
One argsort of the block's tie-break draws ranks every row's points, and
each query atom then takes one sort of packed int64 (distance group, rank,
label) keys.  On a block of 512 trials of n = 40 draws on three atoms that
ranking and vote take 0.66-0.67 ms, where a stable lexsort per query atom
and a gather of the labels took 2.6-2.8.  A trial (k = 13) takes 2.2-3.0 us
on a shared 2-core machine, of which its stream takes 0.3-0.5; with a
PCG64 state of its own, derived and set per trial, it took 5.5-5.7, 3.2-3.5
of them the stream.

Every trial runs in the calling thread.  A trial holds the GIL between
short numpy calls, so a second thread paid only on large runs: on a
2-core machine at n = 3*10^4, k = 173, two threads took 1,179-1,296
us/trial against one thread's 1,413-1,692 on the multi-segment family,
and below 12,000 points a trial ran slower than one.  No experiment or
benchmark workload runs more than 512 trials of 12,000 points or more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._rng import block_states, generator, mix64
from .boundary import boundary_measure, high_error_measure
from .bounds import (
    MarginSpec,
    SmoothnessSpec,
    _infeasible_on_overflow,
    _upper_schedule,
    lower_bound_constants,
    margin_rate,
)
from .classifier import _check_k
from .distributions import FiniteAtomic, PiecewiseUniform1D
from .errors import ResourceLimitError

__all__ = [
    "ConsistencySweep",
    "ExcessEstimate",
    "KRule",
    "LowerBoundCheck",
    "RateSweep",
    "SweepRow",
    "TrialReport",
    "consistency_sweep",
    "estimate_expected_excess",
    "exact_expected_mistake",
    "mc_expected_mistake",
    "rate_sweep",
    "run_lower_bound_trials",
    "run_upper_bound_trials",
    "wilson_interval",
]

_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile
# finite-atomic trials that split one stream, a contract constant: changing it moves every
# finite-atomic value.  Also the most trials one atomic block draws and ranks, and the 1-D
# trials whose states are derived at once.  At n = 40, k = 13 on three atoms a trial took
# 2.2-2.3 us at 256, 512 and 1,024 alike (min of 25 runs of 4,096 trials, shared 2-core box)
_BLOCK_TRIALS = 512
_BLOCK_POINTS = 1 << 20  # training points held at once by one finite-atomic block
# cut-local trials sort a band near the cut from this n on.  At k = ceil(sqrt(n)), a trial
# that sorted its row took 6 us against the band's 12-13 at n = 300, 24-25 vs 26-28 at
# 3,000, 31-33 vs 29-31 at 4,000 and 39-42 vs 35-39 at 5,000 (min of 7 runs of 300
# trials, two runs, shared 2-core box)
_BAND_FROM = 4_000
# the exact oracle's budget: a (query atom, distance group) pair takes k steps of about k
# array elements, plus a step's fixed cost of about 5,000, so k * (k + 5,000) terms.  Tied
# three atoms at k = 13, 300 and 10^4, n = k to 5k: at most 10 ns a term, shared 2-core box
_ORACLE_STEP_TERMS = 5_000
_ORACLE_TERM_LIMIT = 2 * 10**9
_GRID_LEAST = {"rate": 4, "consistency": 2}  # sample sizes a sweep's statistic needs


@dataclass(frozen=True)
class KRule:
    """Neighbor-count schedule: how k is chosen from n.

    kind 'fixed' uses ``k`` as given; 'power' uses ceil(n**exponent);
    'sqrt' uses ceil(sqrt(n)); 'rate_optimal' uses `margin_rate`'s k,
    k_scale * n**(2a/(2a+1)) (times ln(1/delta)**(1/(2a+1)) when delta is
    set), rounded to the nearest integer.  Any other kind, 'power' without
    an exponent, a parameter its kind does not read, and a ``k`` that is not
    an int (a bool, a float or a string; a numpy int is one) are refused.
    """

    kind: str
    k: int = 0
    exponent: Optional[float] = None
    k_scale: float = 1.0
    alpha: float = 1.0
    delta: Optional[float] = None
    _READS = {"fixed": ("k",), "power": ("exponent",), "sqrt": (), "rate_optimal": ("k_scale", "alpha", "delta")}

    def __post_init__(self):
        if self.kind not in self._READS:
            raise ValueError(f"unknown k rule kind {self.kind!r}")
        if self.kind == "power" and self.exponent is None:
            raise ValueError("k rule 'power' needs an exponent")
        unread = [f.name for f in fields(self) if f.name not in ("kind", *self._READS[self.kind])
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"k rule {self.kind!r} does not read {', '.join(unread)}")
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
            raise ValueError(f"k rule k must be an integer, not {self.k!r}")

    @_infeasible_on_overflow
    def k_for(self, n: int) -> int:
        if self.kind == "fixed":
            k = self.k
        elif self.kind == "power":
            k = math.ceil(n**self.exponent)
        elif self.kind == "sqrt":
            k = math.ceil(math.sqrt(n))
        else:  # rate_optimal; k reads neither the smoothness constant nor the margin spec
            s, m = SmoothnessSpec(self.alpha, 1.0), MarginSpec(0.0, 1.0)
            k = margin_rate(n, s, m, self.delta, self.k_scale).k
        if not 1 <= k < n:
            raise ValueError(f"k rule yields k={k} outside [1, n) for n={n}")
        return int(k)


@dataclass
class TrialReport:
    n: int
    k: int
    delta: float
    bound: float
    boundary_mass: float
    schedule: str
    mistake_probs: list[float]
    violated: list[int]
    violation_frequency: float = field(init=False)
    wilson_low: float = field(init=False)
    wilson_high: float = field(init=False)

    def __post_init__(self):
        freq = sum(self.violated) / len(self.violated)
        self.violation_frequency = freq
        self.wilson_low, self.wilson_high = wilson_interval(sum(self.violated), len(self.violated))


@dataclass(frozen=True)
class LowerBoundCheck:
    n: int
    k: int
    lhs: float
    rhs: float
    stderr: float
    trials_used: int
    passed: bool
    high_error_mass: float
    constant: float


@dataclass(frozen=True)
class ExcessEstimate:
    n: int
    k: int
    mean: float
    stderr: float
    per_trial: tuple[float, ...]


@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    mean_excess: float
    stderr: float
    median_excess: float


@dataclass(frozen=True)
class RateSweep:
    rows: tuple[SweepRow, ...]
    slope: float
    intercept: float
    excluded: tuple[int, ...]  # n values dropped for nonpositive means


@dataclass(frozen=True)
class ConsistencySweep:
    rows: tuple[SweepRow, ...]
    spearman: float


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("total must be positive")
    phat = successes / total
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2.0 * total)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / total + z2 / (4.0 * total * total)) / denom
    # the ends are exactly 0 and 1 at the empty and full counts; keep them
    # free of cancellation dust
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == total else min(1.0, center + half)
    return (low, high)


# -- per-trial statistics ------------------------------------------------------


def _packed_sort(xs, ys, t, labels, flag) -> bool:
    """Sort locations in [0, 1.5) with their labels into t and the int64 labels.

    One sort of the key (x bits << 1) | y orders the points: the bits of
    such doubles sort as the doubles do, a -0.0 packs as +0.0, and the low
    bit carries the label along.  Each key is also the bit pattern of a
    finite double >= +0.0, which sorts as the key does, and a float sort
    is the faster (320 against 367 us on 5*10^4 keys).  Returns False when
    a location repeats, an order that only the tie-break draws decide; flag
    (at least n bools) is overwritten.
    """
    np.left_shift(xs.view(np.int64), 1, out=labels)
    labels |= ys
    labels.view(np.float64).sort()
    np.right_shift(labels, 1, out=t.view(np.int64))
    labels &= 1
    return not np.equal(t[1:], t[:-1], out=flag[: t.size - 1]).any()


def _window_votes(t, sums, k: int, switches, preds) -> None:
    """The window table of ascending locations t whose labels are in sums[1:].

    switches (n - k floats) receives the midpoints (t[i] + t[i+k]) / 2 and
    preds (n - k + 1 bools) each window's vote.  sums (n + 1 int64)
    becomes the label prefix sums, and t is overwritten.
    """
    n = t.shape[0]
    sums[0] = 0
    np.cumsum(sums[1:], out=sums[1:])
    np.add(t[: n - k], t[k:], out=switches)
    switches *= 0.5  # x * 0.5 is x / 2 correctly rounded, for every double
    votes = t.view(np.int64)[: n - k + 1]
    np.subtract(sums[k:], sums[: n + 1 - k], out=votes)
    np.greater_equal(votes, (k + 1) // 2, out=preds)


def _label_cut(dist) -> Optional[float]:
    """The label change B of a family whose trials take the cut-local route, or None.

    The route serves a `PiecewiseUniform1D` of uniform marginal
    (f == [1, 1]) with labels 0 on [0, B) and 1 on [B, 1], B >= 1/2, where
    a location is its own uniform: 0.0 + (u - 0.0) / 1.0 = u, and
    B + (u - B) = u for u >= B, u - B being exact (Sterbenz).  So a sorted
    row's label-0 points are its uniforms below B, a repeat holds one
    label, and the mass prefix ends at B + (1 - B) = 1.0.

    The rule is a step.  In the sorted row u, with c uniforms below B,
    window i votes 1 from i = c - a on (a = k // 2, b = k - a), so the rule
    predicts 1 from s* = (u[c - a - 1] + u[c + b - 1]) / 2 on (that switch,
    rounded as `_window_votes` rounds it), with s* = 1.0 if n - c < b and
    0.0 if c <= a, and gets the mass |s* - B| wrong.

    The integral is |s* - B| bit for bit if s* >= B, or if 2 s* >= u[c + k]
    (2 s* >= 1.0 if c + k >= n).  `_cdf_pair_into` writes cdf = t and
    ones = 0.0 at t < B, and cdf = (t - B) + B = t and ones = t - B
    (Sterbenz) at t >= B.  A window left of s* and B adds 0.0 - 0.0, and
    one right of both (e2 - e1) - (e2 - e1) = 0.0 (Sterbenz).  The rest
    run from s* to the window whose edges straddle B, e1 < B <= e2, and add
    e2 - B or (e2 - B) - (e1 - B) if s* >= B, and e2 - e1 or
    (e2 - e1) - (e2 - B) = B - e1 if s* < B: exact (Sterbenz), the latter
    as 2 s* >= e2, the first switch >= B, switch c or earlier, <= u[c + k].
    Each term is then a multiple of the spacing of the doubles at
    min(s*, B), and so is each sum of terms, in [0, |s* - B|] with
    |s* - B| <= min(s*, B): a double.  So the pairwise sum is exact in any
    grouping, as is s* - B.  s* = 0.0 fails the condition; a row that
    fails it takes the integral.
    """
    if isinstance(dist, PiecewiseUniform1D) and dist.f.tolist() == [1.0, 1.0]:
        if dist.seg_eta.tolist() == [0.0, 1.0] and dist.breaks[1] >= 0.5:
            return float(dist.breaks[1])
    return None


class _Trials1D:
    """Trials of a 1-D family at one (n, k), drawn into buffers they reuse.

    On a family with a label change `cut` (`_label_cut`), a trial reads its
    switch off a row of n uniforms, from n = `_BAND_FROM` on off a band row
    of those in `band_ends` around the cut, picked out through two flag
    rows of n.  Other trials draw in full into six float rows and three
    flag rows of n + 2 (2.5 MB at n = 5*10^4), made on first use; one row
    takes the integral's terms.  Besides a redraw's sort, a trial allocates
    only in an excess trial, on its windows whose disagreement is not 0.
    One instance serves a whole run of trials, and goes when the run does;
    so does its one generator, on which each trial sets its stream's PCG64
    state.

    A trial reads the numbers of `sample_arrays`'s PCG64 stream that decide
    its table, and no others: the location uniforms, then the label
    uniforms, or the location uniforms alone on the cut-local route.  The
    tie-break draws order only a repeated location; the trial then sets
    the state again, draws in full and orders by them (`_train`).  Every
    location, and so every value, is bitwise that of the full draw.
    """

    def __init__(self, dist, n: int, k: int):
        _check_k(k, n)
        self.dist, self.n, self.k = dist, n, k
        self.rng = np.random.Generator(np.random.PCG64(0))
        self.cut = _label_cut(dist)
        if self.cut is not None:
            # the band holds m points on a side with room to spare: a + 1 below
            # the cut, for s*, and k + 1 from it up, for u[c + k] as well
            below, above = ((m + 8.0 * math.sqrt(m) + 16.0) / n for m in (k // 2 + 1, k + 1))
            self.band_ends = (self.cut - below, self.cut + above)
            self.u, self.band = np.empty((2, n))
            self.masks = np.empty((2, n), dtype=bool)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        return np.empty((6, self.n + 2))

    @functools.cached_property
    def flags(self) -> np.ndarray:
        return np.empty((3, self.n + 2), dtype=bool)

    def _train(self, state: dict) -> tuple[np.ndarray, np.ndarray]:
        """Draw a training set on a stream's state; returns (edges, preds), switches in edges[1:-1]."""
        n, k, rows, flags = self.n, self.k, self.rows, self.flags
        xs, zs, ys, t = rows[0, :n], rows[1, :n], flags[0, :n], rows[2, :n]
        sums = rows[3, : n + 1].view(np.int64)
        edges, preds = rows[5, : n - k + 2], flags[1, : n - k + 1]
        self.rng.bit_generator.state = state
        self.dist._draw(self.rng, xs, None, ys, rows[2:5, :n])
        if _packed_sort(xs, ys, t, sums[1:], flags[2]):
            _window_votes(t, sums, k, edges[1:-1], preds)
            return edges, preds
        # a repeated location: the row is drawn again and ordered by its tie-break draws
        self.rng.bit_generator.state = state
        self.dist._draw(self.rng, xs, zs, ys, rows[2:5, :n])
        order = np.lexsort((zs, xs))
        t[:] = xs[order]
        sums[1:] = ys[order]
        # window i, starting inside a run [run, end) of one location, holds the
        # run's first part = min(end, i + k) - i points (least tie-breaks) and [end, i + k)
        i = np.flatnonzero(t[1 : n - k + 1] == t[: n - k]) + 1
        run, end = t.searchsorted(t[i]), t.searchsorted(t[i], side="right")
        _window_votes(t, sums, k, edges[1:-1], preds)
        part = np.minimum(end, i + k) - i
        votes = sums[run + part] - sums[run] + sums[np.maximum(end, i + k)] - sums[end]
        preds[i] = votes >= (k + 1) // 2
        return edges, preds

    def _step_mass(self, state: dict) -> Optional[float]:
        """|s* - cut| for the rule trained on the stream of ``state``; None where the integral may differ.

        t[j], the row's (lo + j)-th smallest uniform, is read off the band
        or the sorted row.  As u[c + k] < 1.0, only 2 s* < 1.0 can fail
        `_label_cut`'s condition.
        """
        n, k, u, cut = self.n, self.k, self.u, self.cut
        a, b = k // 2, (k + 1) // 2
        self.rng.bit_generator.state = state
        self.rng.random(out=u)
        t = u
        if n >= _BAND_FROM:
            inside, top = self.masks
            np.greater_equal(u, self.band_ends[0], out=inside)
            lo = n - np.count_nonzero(inside)
            inside &= np.less(u, self.band_ends[1], out=top)
            t = self.band[: np.count_nonzero(inside)]
            np.compress(inside, u, out=t)
            t.sort()
            i = int(t.searchsorted(cut))
            if i <= a or t.size - i < b:
                t = u
        if t is u:
            u.sort()
            lo, i = 0, int(u.searchsorted(cut))
        c = lo + i
        if c <= a:
            return None
        s = 1.0 if n - c < b else (t[i - a - 1] + t[i + b - 1]) / 2.0
        if s < cut and 2.0 * s < 1.0:
            if i + k < t.size:
                reach = t[i + k] <= 2.0 * s
            else:
                reach = np.count_nonzero(np.less_equal(u, 2.0 * s, out=self.masks[0])) > c + k
            if not reach:
                return None
        return float(abs(s - cut))

    def value(self, state: dict, excess: bool = False) -> float:
        """Exact disagreement mass, or with ``excess`` excess risk, of the rule ``state``'s stream trains.

        The mass between consecutive edges [0, switches, 1] is predicted
        wrong where the window votes 1 on Bayes label 0 and the reverse.
        The excess integrates |1 - 2 eta| * density over the same wrong
        parts, of the windows whose mass term is not 0 (`_wrong_excess`).
        On a `_label_cut` family that weight is the density, so the step's
        |s* - B| is the excess as well.
        """
        step = None if self.cut is None else self._step_mass(state)
        if step is not None:
            return step
        edges, preds = self._train(state)
        edges[0], edges[-1] = 0.0, 1.0
        cdf, ones, mass = (row[: edges.size] for row in self.rows[:3])
        terms = self.rows[3, : preds.size]
        self.dist._cdf_pair_into(edges, cdf, ones)
        np.subtract(cdf[1:], cdf[:-1], out=mass[:-1])
        np.subtract(ones[1:], ones[:-1], out=terms)
        # terms becomes where(preds, mass - ones mass, ones mass)
        np.subtract(mass[:-1], terms, out=terms, where=preds)
        if not excess:
            return float(terms.sum())
        wrong = np.flatnonzero(terms != 0.0)  # 20 us on 5*10^4 terms, where flatnonzero(terms) took 170
        return self.dist._wrong_excess(edges[wrong], edges[wrong + 1], preds[wrong])


def _atomic_wrong(dist: FiniteAtomic, n: int, k: int, master_seed: int, start: int, stop: int):
    """The (trials, atoms) bool array of trials [start, stop): where each trial's rule is not Bayes.

    Row by row it equals the fit/predict path's bit for bit: each trial
    reads its own 3n numbers of its block's stream, and neighbors rank by
    (distance, tie-break draw, training index), as `predict` ranks them.
    `_by_rank` puts each row of a block in (draw, index) order once; then
    for each query atom q a row's keys ``group[q, x] << (bits(n - 1) + 1) |
    rank << 1 | label`` are distinct, so one int64 sort puts its k nearest
    first, and their low bits are the votes.  A key needs bits(m) + bits(n) + 1 <= 63 bits for m
    atoms, which any m x m matrix and row of n draws that fit in memory meet.
    """
    _check_k(k, n)
    bayes = dist.etas >= 0.5
    keyed = dist.space.group << (n - 1).bit_length() + 1  # groups order neighbors as distances do
    wrong = np.empty((stop - start, bayes.size), dtype=bool)
    lo = 0
    for block in _stream_blocks(master_seed, n, start, stop):
        xs, rank_label = _by_rank(*dist._draw(block))
        keys = np.empty_like(rank_label)
        for q in range(bayes.size):
            np.take(keyed[q], xs, out=keys)
            keys |= rank_label
            keys.sort(axis=-1)
            votes = np.add.reduce(keys[:, :k] & 1, axis=-1)
            wrong[lo : lo + len(block), q] = (2 * votes >= k) != bayes[q]
        lo += len(block)
    return wrong


def _by_rank(xs: np.ndarray, zs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's atoms and ``rank << 1 | label``, each row put in (tie-break draw, index) order
    by one argsort of the block: a stable one only if some row repeats a draw."""
    n = xs.shape[-1]
    rows = np.arange(0, xs.size, n)[:, None]
    at = zs.argsort(axis=-1) + rows  # flat positions, in rank order
    drawn = zs.ravel()[at]
    if (drawn[:, 1:] == drawn[:, :-1]).any():
        at = zs.argsort(axis=-1, kind="stable") + rows
    return xs.ravel()[at], ys.ravel()[at] | np.arange(0, 2 * n, 2)


def _stream_blocks(master_seed: int, n: int, start: int, stop: int):
    """Blocks of trials [start, stop), in order: row t holds numbers [3n j, 3n (j + 1)) of the stream
    ``generator(master_seed, n, b)``, (b, j) = divmod(t, `_BLOCK_TRIALS`), as a (3, n) row in C order.

    A run that starts inside a stream advances it to its start once, and
    one ``random(out=block)`` call fills each block.  A block holds at most
    `_BLOCK_POINTS` draws of n points, and at least one row, and never
    crosses a stream's end.  Every block is a view of one array: read it
    before asking for the next.
    """
    rows = max(1, min(_BLOCK_TRIALS, _BLOCK_POINTS // n))
    buf = np.empty((rows, 3, n))
    for first in range(start - start % _BLOCK_TRIALS, stop, _BLOCK_TRIALS):
        rng = generator(master_seed, n, first // _BLOCK_TRIALS)
        begin, end = max(start, first), min(stop, first + _BLOCK_TRIALS)
        if begin > first:
            rng.bit_generator.advance(3 * n * (begin - first))
        for lo in range(begin, end, rows):
            block = buf[: min(rows, end - lo)]
            rng.random(out=block)
            yield block


def _states(master_seed: int, n: int, start: int, stop: int):
    """The PCG64 state of each 1-D trial's stream in [start, stop), derived a block at a time."""
    prefix = mix64(master_seed, n)
    for lo in range(start, stop, _BLOCK_TRIALS):
        yield from block_states(prefix, lo, min(lo + _BLOCK_TRIALS, stop))


def _trial_values(dist, n: int, k: int, master_seed: int, start: int, stop: int, excess=False):
    """Per-trial disagreement masses, or with ``excess`` excess risks, of trials [start, stop) in order."""
    if isinstance(dist, FiniteAtomic):
        # an atom weighs its mass, or for the excess its mass * |1 - 2 eta|.  One
        # sum per distinct row, of that row's weights alone: numpy sums 8 terms
        # or more pairwise, so a masked sum of all weights would differ
        weight = dist.masses * np.abs(1.0 - 2.0 * dist.etas) if excess else dist.masses
        wrong = _atomic_wrong(dist, n, k, master_seed, start, stop)
        keys = wrong.view(np.dtype((np.void, wrong.shape[1]))).ravel()
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        return np.array([weight[wrong[i]].sum() for i in first])[which].tolist()
    trials = _Trials1D(dist, n, k)
    return [trials.value(state, excess) for state in _states(master_seed, n, start, stop)]


# -- exact oracle --------------------------------------------------------------


def _live_groups(dist: FiniteAtomic) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atoms q of positive mass; for each, those atoms along q's `order` row, nearest first;
    and a mask, True where each starts a distance group of that row."""
    live = dist.masses > 0.0
    qs = np.flatnonzero(live)
    rows = dist.space.order[qs]
    rows = rows[live[rows]].reshape(qs.size, qs.size)
    return qs, rows, np.diff(dist.space.group[qs[:, None], rows], axis=1, prepend=-1) > 0


def _oracle_budget(dist: FiniteAtomic, k: int) -> None:
    """Refuse with ResourceLimitError past `_ORACLE_TERM_LIMIT` terms at this k: k * (k + step)
    terms for each atom of positive mass and each distance group of such atoms around it."""
    terms = k * (k + _ORACLE_STEP_TERMS) * int(np.count_nonzero(_live_groups(dist)[2]))
    if terms > _ORACLE_TERM_LIMIT:
        raise ResourceLimitError(f"the exact oracle needs {terms} terms (limit {_ORACLE_TERM_LIMIT})")


def _log_sums(factors) -> np.ndarray:
    """log of the running products 1, f0, f0*f1, ..., summed with Neumaier's compensation."""
    logs, total, carry = [0.0], 0.0, 0.0
    for x in map(math.log, factors):
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        logs.append(total + carry)
    return np.array(logs)


def _log_shares(part: int, whole: int) -> tuple[float, float]:
    """log(part / whole) and log(1 - part / whole), the larger share as log1p(-smaller): exact to
    a rounding even where n multiplies it.  -1e200 stands for log 0, so 0**0 = 1 and 0**j = 0."""
    a, b = part / whole, (whole - part) / whole
    log_a, log_b = (math.log(v) if v > 0.0 else -1e200 for v in (a, b))
    return (log_a, math.log1p(-a)) if a < b else (math.log1p(-b), log_b)


def exact_expected_mistake(dist: FiniteAtomic, n: int, k: int) -> float:
    """Exact expected Bayes-disagreement mass over all training draws.

    Conditioned on where the k-th neighbor falls, with no sampling and no
    enumeration of training sets.  Group the positive-mass atoms by their
    distance from a query atom q, walking q's `order` row (`_live_groups`),
    and sum a group's exact mass and label-one mass when the walk reaches
    it.  Exactly c < k of the n points land in the groups closer than group
    g (mass F, label frequency p) and at least k - c in g (mass mu, label
    frequency eta) with probability

        Bin(n, F)(c) * P(Bin(n - c, mu / (mu + mass past g)) >= k - c),

    and then the vote is Bin(c, p) + Bin(k - c, eta), the parts independent:
    the closer points are iid draws of the distribution on their groups, and
    the tie-break draws pick a uniform subset of g's points, whose labels are
    iid.  Only the wrong side of each vote is summed, from nonnegative terms.
    The second factor is one minus its lower tail while k - c is at most the
    mean (that tail then holds at most half the mass); past the mean its terms
    fall, and those past 4(k - c) + 64 add under 2**-60 of the first, as for a
    share of at most 1/2 each step from 4(k - c) halves a term and a larger
    share has fewer terms.  The pmfs read log j! and log n!/(n - j)! for
    j <= 4k + 64: the cost, O(groups * k**2) a query atom, is the same for
    every n.
    """
    if not isinstance(dist, FiniteAtomic):
        raise ValueError("the exact oracle requires a finite-atomic distribution")
    if not 1 <= k <= n <= 2**53:  # n - c stays an exact float
        raise ValueError(f"need 1 <= k <= n <= 2**53, got k={k}, n={n}")
    _oracle_budget(dist, k)
    qs, rows, starts = _live_groups(dist)
    # masses and label-one masses in exact multiples of 2**-2148, as every double and product of two is
    masses = [int(Fraction(v) * 2**2148) for v in dist.masses.tolist()]
    ones = [int(v * Fraction(e)) for v, e in zip(masses, dist.etas.tolist())]
    whole = sum(masses)
    log_fact = _log_sums(range(1, 4 * k + 65))
    falling = _log_sums(range(n, n - min(n, 4 * k + 64), -1))

    def pmf(size, js, log_comb, logs):  # Bin(size, p) at js; logs = (log p, log(1 - p))
        return np.exp(log_comb + js * logs[0] + (float(size) - js) * logs[1])
    total = []
    for q, row, start in zip(qs.tolist(), rows, starts):
        # the vote errs once `least` of the k neighbors carry the label that
        # the Bayes rule at q rejects: label one where eta < 1/2, else label 0
        flip = 1 if dist.etas[q] < 0.5 else -1
        least = (k + 1) // 2 if flip == 1 else k // 2 + 1
        closer = closer_one = 0
        for atoms in map(np.ndarray.tolist, np.split(row, np.flatnonzero(start)[1:])):
            mu, one = sum(masses[a] for a in atoms), sum(ones[a] for a in atoms)
            log_f, log_m = _log_shares(closer, whole)
            into = _log_shares(mu, whole - closer)
            near_wrong = _log_shares(closer_one, closer or 1)[::flip]
            group_wrong = _log_shares(one, mu)[::flip]
            for c in range(k):
                reach = math.exp(falling[c] - log_fact[c] + c * log_f + (n - c) * log_m)
                if reach == 0.0:
                    continue
                need, size = k - c, n - c
                below = need <= size * math.exp(into[0])
                js = np.arange(need) if below else np.arange(need, min(size, 4 * need + 64) + 1)
                terms = pmf(size, js, falling[c + js] - falling[c] - log_fact[js], into).tolist()
                enough = 1.0 - math.fsum(terms) if below else math.fsum(terms)
                near, group = (
                    pmf(m, np.arange(m + 1), log_fact[m] - log_fact[: m + 1] - log_fact[m::-1], logs)
                    for m, logs in ((c, near_wrong), (need, group_wrong))
                )
                # at_least[x] = P(Bin(need, eta) >= x) over the wrong label, 0 past need
                at_least = np.zeros(need + 2)
                np.cumsum(group[::-1], out=at_least[need::-1])
                wrong = near @ at_least.take(least - np.arange(c + 1), mode="clip")
                total.append(float(dist.masses[q]) * reach * enough * float(wrong))
            closer += mu
            closer_one += one
    return math.fsum(total)


def _mean_var(values: Sequence[float]) -> tuple[float, float]:
    """Mean and unbiased variance, exactly-rounded sums; variance 0 below two values."""
    count = len(values)
    mean = math.fsum(values) / count
    if count < 2:
        return mean, 0.0
    return mean, math.fsum((v - mean) ** 2 for v in values) / (count - 1)


def mc_expected_mistake(
    dist, n: int, k: int, trials: int, master_seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo mean of the per-trial disagreement mass, with its stderr."""
    if trials < 1:
        raise ValueError("trials must be positive")
    mean, var = _mean_var(_trial_values(dist, n, k, master_seed, 0, trials))
    return mean, math.sqrt(var / trials)


# -- experiment runners --------------------------------------------------------


def run_upper_bound_trials(
    dist,
    n: int,
    k: int,
    delta: float,
    trials: int,
    master_seed: int = 0,
    schedule: str = "confidence",
) -> TrialReport:
    """Repeated-trial check of the high-probability disagreement bound.

    schedule 'confidence' uses the (mass_level, band) pair derived from
    (n, k, delta); schedule 'zero_bayes' uses the zero-noise mass level
    with the band pinned at 1/2.  Each trial compares its exact
    disagreement mass against delta + boundary mass and flags violations;
    the report aggregates the violation frequency with a Wilson 95%
    interval.

    The boundary mass is exact on finite-atomic families.  On the 1-D
    families it comes from a region scan, and the error_bound added to the
    violation cutoff covers only the bracket widths: a boundary piece
    narrower than one split of the scan is missed (see `nnrates.boundary`).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    term = boundary_measure(dist, *_upper_schedule(n, k, delta, schedule))
    bound = delta + term.value
    cutoff = bound + term.error_bound
    probs = _trial_values(dist, n, k, master_seed, 0, trials)
    flags = [int(p > cutoff) for p in probs]
    return TrialReport(n, int(k), float(delta), bound, term.value, schedule, probs, flags)


def run_lower_bound_trials(
    dist,
    n: int,
    k: int,
    trials: Optional[int] = None,
    master_seed: int = 0,
) -> LowerBoundCheck:
    """Check the expected-disagreement lower bound constant * high-error mass.

    Finite-atomic distributions use the exact oracle (stderr 0).  The 1-D
    families run seeded trials: a pilot batch sizes the run so the
    standard error lands under rhs/10, then the budget extends
    deterministically (earlier trials never change).  ``trials`` caps the
    total; the default cap is 600000.
    """
    constants = lower_bound_constants(k)
    mass = high_error_measure(dist, n, k)
    rhs = constants.product * mass.value
    if isinstance(dist, FiniteAtomic):
        lhs = exact_expected_mistake(dist, n, k)
        return LowerBoundCheck(n, k, lhs, rhs, 0.0, 0, lhs >= rhs, mass.value, constants.product)
    cap = trials if trials is not None else 600_000
    pilot = min(2000, cap)
    values = _trial_values(dist, n, k, master_seed, 0, pilot)
    used = pilot
    if rhs > 0.0:
        _, var = _mean_var(values)
        needed = math.ceil(var / (rhs / 10.0) ** 2 * 1.1)
        target = min(cap, max(pilot, needed))
        if target > used:
            values += _trial_values(dist, n, k, master_seed, used, target)
            used = target
    lhs, var = _mean_var(values)
    stderr = math.sqrt(var / used)
    return LowerBoundCheck(
        n, k, lhs, rhs, stderr, used, lhs >= rhs - 3.0 * stderr, mass.value, constants.product
    )


def estimate_expected_excess(dist, n: int, k: int, trials: int, master_seed: int = 0) -> ExcessEstimate:
    """Excess risk over the Bayes rule, averaged across training draws.

    Each trial's value is the exact excess of its rule,
    E_X[|1 - 2 eta(X)| * 1{rule(X) != Bayes(X)}]: an atom sum on
    finite-atomic families and a closed-form integral over the window
    table on the 1-D ones, so the only randomness is the training draw.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    values = _trial_values(dist, n, k, master_seed, 0, trials, excess=True)
    mean, var = _mean_var(values)
    return ExcessEstimate(n, k, mean, math.sqrt(var / trials), tuple(values))


def _check_grid(n_grid: Sequence[int], sweep: str) -> list[int]:
    """The sample sizes of a 'rate' or 'consistency' sweep, refused unless enough and increasing."""
    n_grid, least = [int(n) for n in n_grid], _GRID_LEAST[sweep]
    if len(n_grid) < least or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"{sweep} sweeps need at least {least} strictly increasing sample sizes")
    return n_grid


def _sweep_rows(dist, n_grid, k_rule: KRule, trials: int, master_seed: int):
    rows = []
    for n in n_grid:
        k = k_rule.k_for(n)
        est = estimate_expected_excess(dist, n, k, trials, master_seed)
        rows.append(
            SweepRow(n, k, est.mean, est.stderr, float(np.median(np.asarray(est.per_trial))))
        )
    return rows


def rate_sweep(
    dist,
    n_grid: Sequence[int],
    k_rule: KRule,
    trials: int,
    master_seed: int = 0,
) -> RateSweep:
    """Log-log rate fit of mean excess risk against sample size.

    Requires at least 4 increasing sample sizes.  Rows with nonpositive
    mean excess carry no log and are excluded from the fit but flagged in
    the result.
    """
    n_grid = _check_grid(n_grid, "rate")
    rows = _sweep_rows(dist, n_grid, k_rule, trials, master_seed)
    included = [(math.log(r.n), math.log(r.mean_excess)) for r in rows if r.mean_excess > 0.0]
    excluded = tuple(r.n for r in rows if r.mean_excess <= 0.0)
    if len(included) < 2:
        return RateSweep(tuple(rows), math.nan, math.nan, excluded)
    xbar = math.fsum(x for x, _ in included) / len(included)
    ybar = math.fsum(y for _, y in included) / len(included)
    sxx = math.fsum((x - xbar) ** 2 for x, _ in included)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in included)
    slope = sxy / sxx
    return RateSweep(tuple(rows), slope, ybar - slope * xbar, excluded)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks from 0, each tie sharing the mean of its ranks."""
    return [(sum(w < v for w in values) + sum(w <= v for w in values) - 1) / 2.0 for v in values]


def consistency_sweep(
    dist,
    n_grid: Sequence[int],
    k_rule: Optional[KRule] = None,
    trials: int = 100,
    master_seed: int = 0,
) -> ConsistencySweep:
    """Median excess risk across a growing-sample schedule, plus its trend.

    The default k rule is ceil(sqrt(n)), which grows without bound while
    k/n vanishes.  The trend statistic is the Spearman rank correlation
    between the per-n median excess and n (strict decay gives -1).
    """
    n_grid = _check_grid(n_grid, "consistency")
    rows = _sweep_rows(dist, n_grid, k_rule or KRule("sqrt"), trials, master_seed)
    med_ranks = _average_ranks([r.median_excess for r in rows])
    n_ranks = _average_ranks([float(r.n) for r in rows])
    mbar = sum(med_ranks) / len(med_ranks)
    nbar = sum(n_ranks) / len(n_ranks)
    denom = math.sqrt(
        sum((a - mbar) ** 2 for a in med_ranks) * sum((b - nbar) ** 2 for b in n_ranks)
    )
    if denom == 0.0:
        spearman = 0.0
    else:
        spearman = sum((a - mbar) * (b - nbar) for a, b in zip(med_ranks, n_ranks)) / denom
    return ConsistencySweep(tuple(rows), spearman)
