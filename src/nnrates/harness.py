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
order-independent: the harness produces bitwise-identical results whether
trials run in one thread or on a pool, and growing a trial budget never
changes earlier trials.  Aggregation always reduces in trial order.

Trials of the 1-D families run through one kernel, `_Trials1D`, that
allocates nothing per trial.  Each chunk of trials sizes one set of
buffers for its (n, k) and draws every trial into them; the window table
comes from one in-place sort of a packed int64 key, and the disagreement
integral from one slice of the sorted edges per density segment.  Fresh
temporaries cost a trial at n = 5*10^4 about 1,300 page faults, as the
allocator returned them to the system after every trial.

Those trials run on a pool of one thread per CPU only when each draws at
least _POOL_MIN_POINTS points, the crossover measured on a 2-core
machine, and fill more than one chunk of trial indices.  Smaller trials
hold the GIL between short numpy calls, and two threads ran them slower
than one.  Chunks are concatenated in order, so scheduling cannot reorder
results.  Finite-atomic trials run in fixed blocks in the calling thread:
their cost is dominated by building each trial's generator, which holds
the GIL, and threads measured slower than one thread on that path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ._rng import mix64
from .boundary import boundary_measure, high_error_measure
from .bounds import _binom_log_pmf, lower_bound_constants, upper_bound_params, zero_bayes_params
from .classifier import _check_k, _window_table, fit_arrays, predict_batch
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
_CHUNK = 512
# Points per trial from which 1-D trials use the pool.  One thread against
# two on a 2-core machine, us/trial, medians of 4-6 alternating runs of
# 1,536 trials: mc_expected_mistake on the disjoint family at n = 5,000 390
# vs 580, 10^4 433-584 vs 503-688, 12,000 591 vs 596, 15,000 598-838 vs
# 641-831, 18,000 814 vs 717, 3*10^4 1,455 vs 1,263; estimate_expected_excess
# on power margin at n + mc_points = 3,000 455 vs 549, 6,000 638 vs 615,
# 10^4 700-753 vs 607-801, 15,000 782-934 vs 715-839.
_POOL_MIN_POINTS = 12_000
_BLOCK_POINTS = 1 << 20  # training points held at once by one finite-atomic block
_ENUMERATION_LIMIT = 1_000_000


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


def _indexed_map(fn: Callable[[int, int], list], start: int, stop: int, points: int) -> list:
    """fn(lo, hi) lists the results for indices [lo, hi); concatenate them over [start, stop).

    Chunks of _CHUNK indices run on a pool of one thread per CPU only when
    one index draws ``points`` >= _POOL_MIN_POINTS points and there are two
    or more chunks and CPUs; otherwise one call covers the whole range in
    the calling thread.  Chunks are concatenated in order, so output is
    identical on either path.
    """
    spans = [(i, min(i + _CHUNK, stop)) for i in range(start, stop, _CHUNK)]
    workers = os.cpu_count() or 1
    if points < _POOL_MIN_POINTS or len(spans) < 2 or workers < 2:
        return fn(start, stop)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(lambda span: fn(*span), spans)
        return [item for part in parts for item in part]


# -- per-trial statistics ------------------------------------------------------


class _Trials1D:
    """Trials of a 1-D family at one (n, k), drawn into buffers they reuse.

    Six float rows and three flag rows of max(n, queries) + 2 entries
    (2.5 MB at n = 5*10^4) hold a trial's draw, window table and integral;
    the only array a trial allocates is an excess trial's query positions,
    since `np.searchsorted` takes no out.  Each `_indexed_map` chunk makes its
    own instance, so pool threads never share one, and the instance goes
    when the chunk does.  A trial draws the same PCG64 stream as
    `sample_arrays` and does the same floating-point operations as the
    fit/predict path, so every value is bitwise that path's.
    """

    def __init__(self, dist, n: int, k: int, queries: int = 0):
        _check_k(k, n)
        self.dist, self.n, self.k = dist, n, k
        size = max(n, queries) + 2
        self.rows = np.empty((6, size))
        self.flags = np.empty((3, size), dtype=bool)

    def _train(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw a training set; returns (edges, preds) with the switches in edges[1:-1]."""
        n, k, rows, flags = self.n, self.k, self.rows, self.flags
        xs, zs = rows[0, :n], rows[1, :n]
        self.dist._draw(seed, xs, zs, flags[0, :n], rows[2:5, :n])
        edges = rows[5, : n - k + 2]
        preds = flags[1, : n - k + 1]
        _window_table(xs, zs, flags[0, :n], k, True, edges[1:-1], preds, rows[2:4], flags[2])
        return edges, preds

    def disagreement(self, seed: int) -> float:
        """Exact Bayes-disagreement mass of the rule trained on draw ``seed``.

        The mass between consecutive edges [0, switches, 1] is predicted
        wrong where the window votes 1 on Bayes label 0 and the reverse.
        """
        edges, preds = self._train(seed)
        edges[0], edges[-1] = 0.0, 1.0
        cdf, ones, mass, ones_mass = (row[: edges.size] for row in self.rows[:4])
        self.dist._cdf_pair_into(edges, cdf, ones)
        mass, ones_mass = mass[:-1], ones_mass[:-1]
        np.subtract(cdf[1:], cdf[:-1], out=mass)
        np.subtract(ones[1:], ones[:-1], out=ones_mass)
        # ones_mass becomes where(preds, mass - ones_mass, ones_mass)
        np.subtract(mass, ones_mass, out=ones_mass, where=preds)
        return float(ones_mass.sum())

    def excess(self, seed: int, query_seed: int, queries: int) -> float:
        """Mean excess |1 - 2 eta| over ``queries`` query draws where the rule is not Bayes."""
        edges, preds = self._train(seed)
        xq, etas, weight = self.rows[:3, :queries]
        self.dist._draw(query_seed, xq, None, None, self.rows[2:5, :queries])
        predicted = np.take(preds, np.searchsorted(edges[1:-1], xq), out=self.flags[0, :queries])
        self.dist._eta_into(xq, etas, self.rows[3:5, :queries])
        disagree = np.greater_equal(etas, 0.5, out=self.flags[2, :queries])
        np.not_equal(predicted, disagree, out=disagree)
        np.multiply(etas, 2.0, out=weight)
        np.subtract(1.0, weight, out=weight)
        np.abs(weight, out=weight)
        weight *= disagree
        return float(np.mean(weight))


def _trial_disagreement(dist: FiniteAtomic, n: int, k: int, seed: int) -> float:
    """Exact Bayes-disagreement mass of one freshly trained finite-atomic rule.

    This is the reference that the blocked path in `_atomic_disagreements`
    is tested against.
    """
    xs, zs, ys = dist.sample_arrays(seed, n)
    preds = predict_batch(fit_arrays(dist.space, xs, zs, ys, k), np.arange(dist.space.size))
    return float(dist.masses[preds != (dist.etas >= 0.5)].sum())


def _atomic_disagreements(
    dist: FiniteAtomic, n: int, k: int, master_seed: int, start: int, stop: int
) -> list[float]:
    """Disagreement masses of finite-atomic trials [start, stop), in trial order.

    Trial by trial these equal `_trial_disagreement` bit for bit: each
    trial keeps its own mix64 seed, and one stable lexsort per query atom
    over a block of draws ranks neighbors by (distance, tie-break draw)
    with remaining ties falling to the training index, as `predict` does.
    """
    _check_k(k, n)
    # rank[q, a]: atom a's distance group as seen from atom q; equal
    # distances share a rank, so ranks order neighbors as distances do
    rank = np.array([np.unique(row, return_inverse=True)[1] for row in dist.space.matrix])
    bayes = dist.etas >= 0.5
    rows = max(1, min(_CHUNK, _BLOCK_POINTS // n))
    values = []
    for lo in range(start, stop, rows):
        draws = [
            dist.sample_arrays(mix64(master_seed, n, t), n) for t in range(lo, min(lo + rows, stop))
        ]
        xs, zs, ys = (np.stack(parts) for parts in zip(*draws))
        wrong = np.empty((len(draws), bayes.size), dtype=bool)
        for q in range(bayes.size):
            nearest = np.lexsort((zs, rank[q][xs]), axis=-1)[:, :k]
            votes = np.take_along_axis(ys, nearest, axis=-1).sum(axis=-1, dtype=np.int64)
            wrong[:, q] = (2 * votes >= k) != bayes[q]
        values.extend(float(dist.masses[row].sum()) for row in wrong)
    return values


def _trial_values(dist, n: int, k: int, master_seed: int, start: int, stop: int) -> list[float]:
    """Per-trial disagreement masses for trials [start, stop), in trial order.

    Finite-atomic trials run in blocks in the calling thread; the 1-D
    families go through `_indexed_map`, one `_Trials1D` per chunk.
    """
    if isinstance(dist, FiniteAtomic):
        return _atomic_disagreements(dist, n, k, master_seed, start, stop)

    def chunk(lo: int, hi: int) -> list[float]:
        trials = _Trials1D(dist, n, k)
        return [trials.disagreement(mix64(master_seed, n, t)) for t in range(lo, hi)]

    return _indexed_map(chunk, start, stop, n)


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


def _vote_pmf_for_occupancy(dist: FiniteAtomic, query: int, counts: Sequence[int], k: int) -> np.ndarray:
    """pmf of the k nearest neighbors' label sum, given per-atom counts.

    Atoms are consumed in distance order from the query.  Which points of
    an atom enter the neighbor set is decided by tie-break draws, but
    labels within an atom are exchangeable, so only the number taken
    matters: a fully consumed atom contributes Bin(count, eta); a distance
    group that overflows the remaining slots contributes a uniformly
    random split (multivariate hypergeometric) across its atoms.
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
                    pmf = np.convolve(pmf, _binom_pmf(have, float(dist.etas[atom])))
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
                        branch = np.convolve(branch, _binom_pmf(t, float(dist.etas[atom])))
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
            pmf = _vote_pmf_for_occupancy(dist, query, counts, k)
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
    if schedule == "confidence":
        params = upper_bound_params(n, k, delta)
        level, band = min(1.0, params.mass_level), params.band
    elif schedule == "zero_bayes":
        level, band = min(1.0, zero_bayes_params(n, k, delta)), 0.5
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    term = boundary_measure(dist, level, band)
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


def _atomic_excess(dist: FiniteAtomic, n: int, k: int, mc_points: int, master_seed: int, t: int):
    xs, zs, ys = dist.sample_arrays(mix64(master_seed, n, t), n)
    model = fit_arrays(dist.space, xs, zs, ys, k)
    xq, _, _ = dist.sample_arrays(mix64(master_seed, n, t, 1), mc_points)
    preds = predict_batch(model, xq)
    etas = dist.eta_values(xq)
    disagree = preds != (etas >= 0.5)
    return float(np.mean(np.abs(1.0 - 2.0 * etas) * disagree))


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

    def chunk(lo: int, hi: int) -> list[float]:
        if isinstance(dist, FiniteAtomic):
            return [_atomic_excess(dist, n, k, mc_points, master_seed, t) for t in range(lo, hi)]
        trials = _Trials1D(dist, n, k, mc_points)
        seeds = ((mix64(master_seed, n, t), mix64(master_seed, n, t, 1)) for t in range(lo, hi))
        return [trials.excess(seed, query_seed, mc_points) for seed, query_seed in seeds]

    values = _indexed_map(chunk, 0, trials, n + mc_points)
    mean, var = _mean_var(values)
    return ExcessEstimate(n, k, mean, math.sqrt(var / trials), tuple(values))


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
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 4 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("rate sweeps need at least 4 strictly increasing sample sizes")
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
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("consistency sweeps need at least 2 strictly increasing sample sizes")
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
