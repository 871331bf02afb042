"""Verification experiments: exact oracles plus seeded Monte Carlo trials.

The quantity every trial records is the mass of the region where the
trained rule disagrees with the Bayes rule, Pr_X(predicted != Bayes).
For finite-atomic families that mass is an exact atom sum; for the 1-D
continuous families it is an exact integral read off the sorted-window
prediction table, so each trial contributes a closed-form number and the
only randomness is the training draw itself.  For label-deterministic
families (frequencies 0 or 1 everywhere) it coincides with the overall
label mistake probability.

Reproducibility contract: every trial's generator seed is a documented
64-bit mix of (master_seed, n, trial_index), with a fourth component
tagging auxiliary streams (query draws).  Trials are therefore
order-independent: growing a trial budget never changes earlier trials,
and a run from an offset start reproduces the same trials bit for bit.
Aggregation always reduces in trial order.  `_states` derives the PCG64
states of `generator(seed)` for a block of trials at once, and a run sets
them in turn on the one generator it owns: a fresh generator per trial
cost 20 us, a third of a finite-atomic trial at n = 40.

Trials of the 1-D families run through one kernel, `_Trials1D`, that
allocates nothing per trial.  Each run of trials sizes one set of
buffers for its (n, k) and draws every trial into them; fresh temporaries
cost a trial at n = 5*10^4 about 1,300 page faults, as the allocator
returned them to the system after every trial.  A trial draws only the
numbers it reads: on a pure-label family it sorts the location uniforms
and places them one mass segment at a time, and elsewhere it skips the
tie-break draws and sorts one packed int64 key of locations and labels.
The disagreement integral takes one slice of the sorted edges per density
segment.  Finite-atomic trials rank a block of draws at a time in one
kernel, `_atomic_wrong`, that both the disagreement and the excess
statistics read.

Every trial runs in the calling thread.  A trial holds the GIL between
short numpy calls, so a second thread pays only on large runs: on a
2-core machine at n = 3*10^4, k = 173 and 1,536 trials, two threads took
1,179-1,296 us/trial against one thread's 1,413-1,692 on the
multi-segment family, and 692-761 against 837-932 on the disjoint family
(medians of two sets of 6 pairs), while below 12,000 points per trial
two threads ran slower than one.  No experiment the library is checked
with, and no benchmark workload, runs more than 512 trials of 12,000
points or more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._rng import block_states, mix64
from .boundary import boundary_measure, high_error_measure
from .bounds import (
    _binom_log_pmf,
    _infeasible_on_overflow,
    lower_bound_constants,
    upper_bound_params,
    zero_bayes_params,
)
from .classifier import _check_k, _packed_sort, _window_table, _window_votes
from .distributions import FiniteAtomic
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
_BLOCK_TRIALS = 512  # trials whose streams are derived at once, or ranked by one atomic block
_BLOCK_POINTS = 1 << 20  # training points held at once by one finite-atomic block
_ENUMERATION_LIMIT = 1_000_000
_GRID_LEAST = {"rate": 4, "consistency": 2}  # sample sizes a sweep's statistic needs


@dataclass(frozen=True)
class KRule:
    """Neighbor-count schedule: how k is chosen from n.

    kind 'fixed' uses ``k`` as given; 'power' uses ceil(n**exponent);
    'sqrt' uses ceil(sqrt(n)); 'rate_optimal' uses the margin-rate
    schedule k_scale * n**(2a/(2a+1)) (times ln(1/delta)**(1/(2a+1)) when
    delta is set), rounded to the nearest integer.
    """

    kind: str
    k: int = 0
    exponent: float = 0.5
    k_scale: float = 1.0
    alpha: float = 1.0
    delta: Optional[float] = None

    @_infeasible_on_overflow
    def k_for(self, n: int) -> int:
        if self.kind == "fixed":
            k = self.k
        elif self.kind == "power":
            k = math.ceil(n**self.exponent)
        elif self.kind == "sqrt":
            k = math.ceil(math.sqrt(n))
        elif self.kind == "rate_optimal":
            denom = 2.0 * self.alpha + 1.0
            k = self.k_scale * n ** (2.0 * self.alpha / denom)
            if self.delta is not None:
                k *= math.log(1.0 / self.delta) ** (1.0 / denom)
            k = max(1, round(k))
        else:
            raise ValueError(f"unknown k rule kind {self.kind!r}")
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


class _Trials1D:
    """Trials of a 1-D family at one (n, k), drawn into buffers they reuse.

    Six float rows and three flag rows of max(n, queries) + 2 entries
    (2.5 MB at n = 5*10^4) hold a trial's draw, window table and integral;
    the only array a trial allocates is an excess trial's query positions,
    since `np.searchsorted` takes no out.  One instance serves a whole run
    of trials, and goes when the run does; so does its one generator, on
    which each trial sets its stream's PCG64 state.

    A trial reads the numbers of `sample_arrays`'s PCG64 stream that decide
    its table, and no others: the location uniforms, then the label
    uniforms unless the family is pure-label.  The tie-break draws order
    only a repeated location; the trial then sets the state again, draws
    in full and orders by them.  A pure-label family's sorted draw needs
    them only for a repeat or a rounding inversion across a segment cut,
    since the points of one segment share a label.  Each location gets the
    floating-point operations of the fit/predict path, so every value is
    bitwise that path's.
    """

    def __init__(self, dist, n: int, k: int, queries: int = 0):
        _check_k(k, n)
        self.dist, self.n, self.k = dist, n, k
        size = max(n, queries) + 2
        self.rows = np.empty((6, size))
        self.flags = np.empty((3, size), dtype=bool)
        self.rng = np.random.Generator(np.random.PCG64(0))

    def _train(self, state: dict) -> tuple[np.ndarray, np.ndarray]:
        """Draw a training set on a stream's state; returns (edges, preds), switches in edges[1:-1]."""
        n, k, rows, flags, dist, rng = self.n, self.k, self.rows, self.flags, self.dist, self.rng
        xs, ys, flag = rows[0, :n], flags[0, :n], flags[2]
        t, sums = rows[2, :n], rows[3, : n + 1].view(np.int64)
        edges = rows[5, : n - k + 2]
        preds = flags[1, : n - k + 1]
        rng.bit_generator.state = state
        if dist._pure:
            exact = dist._draw_sorted(rng, xs, sums[1:])
            t = xs
        else:
            dist._draw(rng, xs, None, ys, rows[2:5, :n])
            exact = _packed_sort(xs, ys, t, sums[1:], flag)
        if exact:
            _window_votes(t, sums, k, edges[1:-1], preds)
            return edges, preds
        # a repeated location, or a rounding inversion at a segment edge:
        # redraw with the tie-break draws, and order by them
        zs = rows[1, :n]
        rng.bit_generator.state = state
        dist._draw(rng, xs, zs, ys, rows[2:5, :n])
        _window_table(xs, zs, ys, k, True, edges[1:-1], preds, rows[2:4], flag)
        return edges, preds

    def disagreement(self, state: dict) -> float:
        """Exact Bayes-disagreement mass of the rule trained on the stream of ``state``.

        The mass between consecutive edges [0, switches, 1] is predicted
        wrong where the window votes 1 on Bayes label 0 and the reverse.
        """
        edges, preds = self._train(state)
        edges[0], edges[-1] = 0.0, 1.0
        cdf, ones, mass, ones_mass = (row[: edges.size] for row in self.rows[:4])
        self.dist._cdf_pair_into(edges, cdf, ones)
        mass, ones_mass = mass[:-1], ones_mass[:-1]
        np.subtract(cdf[1:], cdf[:-1], out=mass)
        np.subtract(ones[1:], ones[:-1], out=ones_mass)
        # ones_mass becomes where(preds, mass - ones_mass, ones_mass)
        np.subtract(mass, ones_mass, out=ones_mass, where=preds)
        return float(ones_mass.sum())

    def excess(self, state: dict, query_state: dict, queries: int) -> float:
        """Mean excess |1 - 2 eta| over ``queries`` query draws where the rule is not Bayes."""
        edges, preds = self._train(state)
        xq, etas, weight = self.rows[:3, :queries]
        self.rng.bit_generator.state = query_state
        self.dist._draw(self.rng, xq, None, None, self.rows[2:5, :queries])
        predicted = np.take(preds, np.searchsorted(edges[1:-1], xq), out=self.flags[0, :queries])
        self.dist._eta_into(xq, etas, self.rows[3:5, :queries])
        disagree = np.greater_equal(etas, 0.5, out=self.flags[2, :queries])
        np.not_equal(predicted, disagree, out=disagree)
        np.multiply(etas, 2.0, out=weight)
        np.subtract(1.0, weight, out=weight)
        np.abs(weight, out=weight)
        weight *= disagree
        return float(np.mean(weight))


def _atomic_wrong(dist: FiniteAtomic, n: int, k: int, master_seed: int, start: int, stop: int):
    """Per trial in [start, stop), in order, the bool row of atoms where its rule is not Bayes.

    Trial by trial these rows equal the fit/predict path's bit for bit:
    each trial keeps its own mix64 seed, and one stable lexsort per query
    atom over a block of draws ranks neighbors by (distance, tie-break
    draw) with remaining ties falling to the training index, as `predict`
    does.
    """
    _check_k(k, n)
    # rank[q, a]: atom a's distance group as seen from atom q; equal
    # distances share a rank, so ranks order neighbors as distances do
    rank = np.array([np.unique(row, return_inverse=True)[1] for row in dist.space.matrix])
    bayes = dist.etas >= 0.5
    rows = max(1, min(_BLOCK_TRIALS, _BLOCK_POINTS // n))
    prefix = mix64(master_seed, n)
    rng = np.random.Generator(np.random.PCG64(0))
    for lo in range(start, stop, rows):
        draws = []
        for state in block_states(prefix, lo, min(lo + rows, stop)):
            rng.bit_generator.state = state
            draws.append(dist._draw(rng, n))
        xs, zs, ys = (np.stack(parts) for parts in zip(*draws))
        wrong = np.empty((len(draws), bayes.size), dtype=bool)
        for q in range(bayes.size):
            nearest = np.lexsort((zs, rank[q][xs]), axis=-1)[:, :k]
            votes = np.take_along_axis(ys, nearest, axis=-1).sum(axis=-1, dtype=np.int64)
            wrong[:, q] = (2 * votes >= k) != bayes[q]
        yield from wrong


def _states(master_seed: int, n: int, start: int, stop: int, tag=None):
    """The PCG64 state of each trial's stream in [start, stop), derived a block at a time."""
    prefix = mix64(master_seed, n)
    for lo in range(start, stop, _BLOCK_TRIALS):
        yield from block_states(prefix, lo, min(lo + _BLOCK_TRIALS, stop), tag)


def _trial_values(dist, n: int, k: int, master_seed: int, start: int, stop: int) -> list[float]:
    """Per-trial disagreement masses for trials [start, stop), in trial order."""
    if isinstance(dist, FiniteAtomic):
        wrong = _atomic_wrong(dist, n, k, master_seed, start, stop)
        return [float(dist.masses[row].sum()) for row in wrong]
    trials = _Trials1D(dist, n, k)
    return [trials.disagreement(state) for state in _states(master_seed, n, start, stop)]


# -- exact oracle --------------------------------------------------------------


def _binom_pmf(m: int, eta: float) -> np.ndarray:
    """pmf of Bin(m, eta) on 0..m; a pure label is a point mass."""
    if eta == 0.0 or eta == 1.0:
        pmf = np.zeros(m + 1)
        pmf[m if eta == 1.0 else 0] = 1.0
        return pmf
    return np.array([math.exp(_binom_log_pmf(m, eta, j)) for j in range(m + 1)])


def _compositions(total: int, caps: Sequence[int]):
    """All ways to split `total` into len(caps) parts with part i <= caps[i]."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first, *rest)


def _vote_pmf_for_occupancy(
    dist: FiniteAtomic, query: int, counts: Sequence[int], k: int, binom_pmf
) -> np.ndarray:
    """pmf of the k nearest neighbors' label sum, given per-atom counts.

    Atoms are consumed in distance order from the query.  Which points of
    an atom enter the neighbor set is decided by tie-break draws, but
    labels within an atom are exchangeable, so only the number taken
    matters: a fully consumed atom contributes Bin(count, eta); a distance
    group that overflows the remaining slots contributes a uniformly
    random split (multivariate hypergeometric) across its atoms.
    binom_pmf(m, eta) is `_binom_pmf`, or a memo of it.
    """
    row = dist.space.matrix[query]
    order = np.argsort(row, kind="stable")
    pmf = np.ones(1)
    remaining = k
    i = 0
    while remaining > 0 and i < order.size:
        group = [int(order[i])]
        while i + 1 < order.size and row[order[i + 1]] == row[group[0]]:
            i += 1
            group.append(int(order[i]))
        i += 1
        available = [counts[a] for a in group]
        total = sum(available)
        if total == 0:
            continue
        if total <= remaining:
            for atom, have in zip(group, available):
                if have > 0:
                    pmf = np.convolve(pmf, binom_pmf(have, float(dist.etas[atom])))
            remaining -= total
        else:
            mix = np.zeros(remaining + pmf.size)
            denom = math.comb(total, remaining)
            for taken in _compositions(remaining, available):
                weight = 1.0
                for have, t in zip(available, taken):
                    weight *= math.comb(have, t)
                branch = pmf
                for atom, t in zip(group, taken):
                    if t > 0:
                        branch = np.convolve(branch, binom_pmf(t, float(dist.etas[atom])))
                padded = np.zeros(mix.size)
                padded[: branch.size] = branch
                mix += (weight / denom) * padded
            pmf = mix
            remaining = 0
    return pmf


def _check_enumeration(m: int, n: int) -> None:
    """Refuse an occupancy enumeration of n draws over m atoms past the limit."""
    count = math.comb(n + m - 1, m - 1)
    if count > _ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"occupancy enumeration needs {count} vectors (limit {_ENUMERATION_LIMIT})"
        )


def exact_expected_mistake(dist: FiniteAtomic, n: int, k: int) -> float:
    """Exact expected Bayes-disagreement mass over all training draws.

    Enumerates atom occupancy vectors with multinomial weights; for each
    query atom the neighbor-label sum is an exact convolution, so the
    result involves no sampling at all.  Raises ResourceLimitError when
    the occupancy enumeration would exceed a million vectors.
    """
    if not isinstance(dist, FiniteAtomic):
        raise ValueError("the exact oracle requires a finite-atomic distribution")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    m = dist.space.size
    _check_enumeration(m, n)
    log_masses = [math.log(v) if v > 0.0 else -math.inf for v in dist.masses]
    threshold = (k + 1) // 2
    bayes = dist.etas >= 0.5
    # a few hundred (m, eta) pmfs recur in thousands of occupancy vectors
    binom_pmf = functools.cache(_binom_pmf)
    total = 0.0
    for counts in _compositions(n, [n] * m):
        log_w = math.lgamma(n + 1)
        ok = True
        for h, lm in zip(counts, log_masses):
            if h > 0:
                if lm == -math.inf:
                    ok = False
                    break
                log_w += h * lm - math.lgamma(h + 1)
        if not ok:
            continue
        weight = math.exp(log_w)
        for query in range(m):
            if dist.masses[query] <= 0.0:
                continue
            pmf = _vote_pmf_for_occupancy(dist, query, counts, k, binom_pmf)
            predict_one = float(pmf[threshold:].sum())
            p_disagree = 1.0 - predict_one if bayes[query] else predict_one
            total += weight * float(dist.masses[query]) * p_disagree
    return total


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


def _upper_schedule(n: int, k: int, delta: float, schedule: str) -> tuple[float, float]:
    """The (mass level, band) at which an upper-bound run measures the boundary."""
    if schedule == "confidence":
        params = upper_bound_params(n, k, delta)
        return min(1.0, params.mass_level), params.band
    if schedule == "zero_bayes":
        return min(1.0, zero_bayes_params(n, k, delta)), 0.5
    raise ValueError(f"unknown schedule {schedule!r}")


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


def estimate_expected_excess(
    dist, n: int, k: int, trials: int, mc_points: int, master_seed: int = 0
) -> ExcessEstimate:
    """Excess risk over the Bayes rule, averaged across training draws.

    Each trial integrates the exact pointwise excess |1 - 2 eta| over the
    disagreement region using mc_points query samples; no labels are
    drawn at query time, and the pointwise Bayes risk is subtracted
    exactly, sample by sample, before averaging.
    """
    if trials < 1 or mc_points < 1:
        raise ValueError("trials and mc_points must be positive")
    if isinstance(dist, FiniteAtomic):
        # the excess of a query atom, where the rule gets it wrong
        weight = np.abs(1.0 - 2.0 * dist.etas)
        rng = np.random.Generator(np.random.PCG64(0))
        values = []
        rows = _atomic_wrong(dist, n, k, master_seed, 0, trials)
        for wrong, state in zip(rows, _states(master_seed, n, 0, trials, 1)):
            rng.bit_generator.state = state
            xq = dist._atoms(rng, mc_points)
            values.append(float(np.mean(weight[xq] * wrong[xq])))
    else:
        kernel = _Trials1D(dist, n, k, mc_points)
        states = zip(_states(master_seed, n, 0, trials), _states(master_seed, n, 0, trials, 1))
        values = [kernel.excess(state, query_state, mc_points) for state, query_state in states]
    mean, var = _mean_var(values)
    return ExcessEstimate(n, k, mean, math.sqrt(var / trials), tuple(values))


def _check_grid(n_grid: Sequence[int], sweep: str) -> list[int]:
    """The sample sizes of a 'rate' or 'consistency' sweep, refused unless enough and increasing."""
    n_grid, least = [int(n) for n in n_grid], _GRID_LEAST[sweep]
    if len(n_grid) < least or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"{sweep} sweeps need at least {least} strictly increasing sample sizes")
    return n_grid


def _sweep_rows(dist, n_grid, k_rule: KRule, trials: int, mc_points: int, master_seed: int):
    rows = []
    for n in n_grid:
        k = k_rule.k_for(n)
        est = estimate_expected_excess(dist, n, k, trials, mc_points, master_seed)
        rows.append(
            SweepRow(n, k, est.mean, est.stderr, float(np.median(np.asarray(est.per_trial))))
        )
    return rows


def rate_sweep(
    dist,
    n_grid: Sequence[int],
    k_rule: KRule,
    trials: int,
    mc_points: int = 2000,
    master_seed: int = 0,
) -> RateSweep:
    """Log-log rate fit of mean excess risk against sample size.

    Requires at least 4 increasing sample sizes.  Rows with nonpositive
    mean excess carry no log and are excluded from the fit but flagged in
    the result.
    """
    n_grid = _check_grid(n_grid, "rate")
    rows = _sweep_rows(dist, n_grid, k_rule, trials, mc_points, master_seed)
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
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def consistency_sweep(
    dist,
    n_grid: Sequence[int],
    k_rule: Optional[KRule] = None,
    trials: int = 100,
    mc_points: int = 2000,
    master_seed: int = 0,
) -> ConsistencySweep:
    """Median excess risk across a growing-sample schedule, plus its trend.

    The default k rule is ceil(sqrt(n)), which grows without bound while
    k/n vanishes.  The trend statistic is the Spearman rank correlation
    between the per-n median excess and n (strict decay gives -1).
    """
    n_grid = _check_grid(n_grid, "consistency")
    rows = _sweep_rows(dist, n_grid, k_rule or KRule("sqrt"), trials, mc_points, master_seed)
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
