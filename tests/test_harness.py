"""Harness oracles and runners.

The brute-force oracle below enumerates every training assignment, every
equally likely tie subset, and every label vector outright.  It shares no
machinery with the implementation (which conditions on the distance group
of the k-th neighbor), so agreement is meaningful evidence.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nnrates import harness
from nnrates._rng import block_states, generator, mix64
from nnrates.distributions import FiniteAtomic, PiecewiseUniform1D, PowerMargin1D
from nnrates.errors import InfeasibleParametersError, ResourceLimitError
from nnrates.harness import (
    _BLOCK_TRIALS,
    KRule,
    _label_cut,
    _Trials1D,
    _trial_values,
    consistency_sweep,
    estimate_expected_excess,
    exact_expected_mistake,
    mc_expected_mistake,
    rate_sweep,
    run_lower_bound_trials,
    run_upper_bound_trials,
    wilson_interval,
)
from nnrates.metric import FiniteMetric
from references import (
    atom_wrong,
    atomic_excess,
    atomic_uniforms,
    bayes_one_cdf,
    exact_mean_1d,
    occupancy_expected_mistake,
    reference_window,
    sampled_excess,
    trial_disagreement,
)


def brute_force_expected_mistake(matrix, masses, etas, n, k):
    m = len(masses)
    threshold = (k + 1) // 2
    total = 0.0
    for assign in itertools.product(range(m), repeat=n):
        w = 1.0
        for a in assign:
            w *= masses[a]
        if w == 0.0:
            continue
        for q in range(m):
            if masses[q] == 0.0:
                continue
            d = [matrix[q][a] for a in assign]
            cut = sorted(d)[k - 1]
            sure = [i for i in range(n) if d[i] < cut]
            tied = [i for i in range(n) if d[i] == cut]
            need = k - len(sure)
            p_one = 0.0
            n_subsets = math.comb(len(tied), need)
            for subset in itertools.combinations(tied, need):
                sel = sure + list(subset)
                for labels in itertools.product((0, 1), repeat=k):
                    if 2 * sum(labels) < k:
                        continue
                    wl = 1.0
                    for i, lab in zip(sel, labels):
                        e = etas[assign[i]]
                        wl *= e if lab else (1.0 - e)
                    p_one += wl / n_subsets
            bayes_one = etas[q] >= 0.5
            p_disagree = (1.0 - p_one) if bayes_one else p_one
            total += w * masses[q] * p_disagree
    return total


def pure_atoms():
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return FiniteAtomic(fm, [0.5, 0.5], [1.0, 0.0])


def tied_three_atoms():
    # atoms 1 and 2 sit at the same distance from atom 0, forcing the
    # random tie subset logic whenever a neighborhood cuts through them
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    return FiniteAtomic(FiniteMetric(matrix), [0.2, 0.3, 0.5], [0.9, 0.2, 0.6])


def four_tied_atoms():
    # atoms 1 and 2 tie as seen from atom 0 (distance 1) and from atom 3
    # (distance 2); atoms 2 and 3 tie as seen from atom 1, atoms 1 and 3
    # from atom 2
    matrix = np.array(
        [[0.0, 1.0, 1.0, 3.0], [1.0, 0.0, 2.0, 2.0], [1.0, 2.0, 0.0, 2.0], [3.0, 2.0, 2.0, 0.0]]
    )
    return FiniteAtomic(FiniteMetric(matrix), [0.1, 0.2, 0.3, 0.4], [0.7, 0.4, 0.55, 0.1])


def zero_mass_atoms():
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    return FiniteAtomic(FiniteMetric(matrix), [0.5, 0.5, 0.0], [1.0, 0.0, 0.3])


def disjoint_family():
    return PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 0.5, 1.0], [2.0, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, 2.0]),
    )


def multi_segment_family():
    # five class-0 and four class-1 pieces, a label-0 gap inside class 1
    return PiecewiseUniform1D(
        [0.4, 0.6],
        ([0.0, 0.15, 0.4, 0.6, 0.85, 1.0], [2.0, 0.4, 2.0, 0.4, 0.6666666666666666]),
        ([0.0, 0.2, 0.5, 0.7, 1.0], [0.5, 1.5, 0.0, 1.5]),
    )


ONE_D_FAMILIES = {
    "disjoint": disjoint_family,
    "multi_segment": multi_segment_family,
    "power_margin_0.5": lambda: PowerMargin1D(0.5),
    "power_margin_2": lambda: PowerMargin1D(2.0),
}

# pure-label families (every eta 0 or 1); the disjoint one takes the cut-local route
PURE_FAMILIES = {
    "disjoint": disjoint_family,
    # label 0 on [0, 0.3], no mass on (0.3, 0.6), label 1 on [0.6, 1]
    "gapped": lambda: PiecewiseUniform1D(
        [0.5, 0.5], ([0.0, 0.3, 1.0], [1.0 / 0.3, 0.0]), ([0.0, 0.6, 1.0], [0.0, 2.5])
    ),
    # labels 0, 1, 0, 1 on [0, 0.2], [0.3, 0.5], [0.5, 0.7], [0.8, 1]
    "alternating": lambda: PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 0.2, 0.5, 0.7, 1.0], [2.5, 0.0, 2.5, 0.0]),
        ([0.0, 0.3, 0.5, 0.8, 1.0], [0.0, 2.5, 0.0, 2.5]),
    ),
    # class 1 on the last 2^-40 of [0, 1], which holds about 8,192 doubles:
    # a draw of a few thousand points repeats locations there
    "dust": lambda: PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 1.0 - 2.0**-40, 1.0], [1.0 / (1.0 - 2.0**-40), 0.0]),
        ([0.0, 1.0 - 2.0**-40, 1.0], [0.0, 2.0**40]),
    ),
    # label 0 on [0.5 - 2^-50, 0.5] and 1 on [0.5, 0.5 + 2^-50], 16 and 8
    # doubles wide: both labels put points at 0.5, across the segment cut
    "knife": lambda: PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 0.5 - 2.0**-50, 0.5, 1.0], [0.0, 2.0**50, 0.0]),
        ([0.0, 0.5, 0.5 + 2.0**-50, 1.0], [0.0, 2.0**50, 0.0]),
    ),
    # label 0 on the 2^-50 either side of 0.25 and label 1 on [0.5, 1]: the
    # label-0 points either side of the mass cut at 0.25 round to 0.25, far
    # from the label change at 0.5
    "same_label_knife": lambda: PiecewiseUniform1D(
        [0.5, 0.5],
        ([0.0, 0.25 - 2.0**-50, 0.25, 0.25 + 2.0**-50, 1.0], [0.0, 2.0**49, 2.0**49, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, 2.0]),
    ),
}


def reference_disagreement(dist, n, k, seed):
    """A 1-D trial spelled out: scalar cdf and Bayes-one cdf at every edge."""
    switches, preds = reference_window(*dist.sample_arrays(seed, n), k)
    edges = [0.0, *np.clip(switches, 0.0, 1.0).tolist(), 1.0]
    mass = np.diff([dist.cdf(e) for e in edges])
    ones_mass = np.diff([bayes_one_cdf(dist, e) for e in edges])
    return float(np.where(preds == 1, mass - ones_mass, ones_mass).sum())


def mp_excess(dist, n, k, seed):
    """A 1-D trial's excess at 50 digits: |1 - 2 eta| * density over each window's wrong part.

    The weight is |2x - 1|**gamma on a power margin, integrated in closed
    form, and |f - 2g| on a segment of a piecewise-uniform family, wrong
    where the vote is not the segment's Bayes label (2g >= f, f > 0).
    """
    switches, preds = reference_window(*dist.sample_arrays(seed, n), k)
    edges = np.array([0.0, *np.clip(switches, 0.0, 1.0).tolist(), 1.0])
    with mpmath.workdps(50):
        total, half = mpmath.mpf(0), mpmath.mpf(0.5)
        if isinstance(dist, PowerMargin1D):
            def odd(x):  # antiderivative of sign(2x - 1) * |2x - 1|**gamma
                return abs(2 * x - 1) ** (dist.gamma + 1) / (2 * (dist.gamma + 1))
            for lo, hi, vote in zip(edges.tolist(), edges[1:].tolist(), preds.tolist()):
                # vote 1 is wrong below 1/2, where odd falls, and vote 0 above it
                if vote and lo < 0.5:
                    total += odd(mpmath.mpf(lo)) - odd(min(mpmath.mpf(hi), half))
                elif not vote and hi > 0.5:
                    total += odd(mpmath.mpf(hi)) - odd(max(mpmath.mpf(lo), half))
            return total
        fs, gs = ([mpmath.mpf(v) for v in row.tolist()] for row in (dist.f, dist.g))
        breaks = [mpmath.mpf(v) for v in dist.breaks.tolist()]
        for i, vote in enumerate(preds.tolist()):
            lo, hi = mpmath.mpf(edges[i]), mpmath.mpf(edges[i + 1])
            first = max(int(np.searchsorted(dist.breaks, edges[i], side="right")) - 1, 0)
            for j in range(first, len(fs)):
                if breaks[j] >= hi:
                    break
                if bool(vote) != (fs[j] > 0 and 2 * gs[j] >= fs[j]):
                    total += (min(hi, breaks[j + 1]) - max(lo, breaks[j])) * abs(fs[j] - 2 * gs[j])
        return total


@pytest.mark.parametrize("family", sorted(ONE_D_FAMILIES))
def test_trial_kernel_matches_spelled_out_reference(family):
    # n = 1, k = n, an offset start, and one set of buffers reused for every draw
    dist = ONE_D_FAMILIES[family]()
    for n, k, stop in [(1, 1, 6), (2, 2, 6), (25, 25, 12), (40, 7, 40), (300, 25, 25), (2000, 45, 8)]:
        want = [reference_disagreement(dist, n, k, mix64(9, n, t)) for t in range(stop)]
        assert _trial_values(dist, n, k, 9, 0, stop) == want, (n, k)
        assert _trial_values(dist, n, k, 9, 3, stop) == want[3:], (n, k)
        reused = _Trials1D(dist, n, k)
        assert [reused.value(s) for s in block_states(mix64(9, n), 0, stop)] == want, (n, k)


@pytest.mark.parametrize("family", sorted(PURE_FAMILIES))
def test_sorted_draws_match_spelled_out_reference(family):
    # pure-label trials, the cut-local route and the redraw in the exact
    # order among them, against the full draw and lexsort of the reference
    dist = PURE_FAMILIES[family]()
    assert np.isin(dist.seg_eta[dist.f > 0.0], (0.0, 1.0)).all()
    # (40, 2) is where the knife family's tie order at 0.5 moves a value;
    # its trial 54 moves with the part of a repeat that a window splits
    cases = [(1, 1, 6), (2, 2, 6), (40, 2, 60), (40, 7, 30), (300, 25, 12), (3000, 45, 3), (10_000, 100, 2)]
    for n, k, stop in cases:
        want = [reference_disagreement(dist, n, k, mix64(9, n, t)) for t in range(stop)]
        assert _trial_values(dist, n, k, 9, 0, stop) == want, (n, k)
        reused = _Trials1D(dist, n, k)
        assert [reused.value(s) for s in block_states(mix64(9, n), 0, stop)] == want, (n, k)


class RecordingPCG64(np.random.PCG64):
    """A PCG64 that records every state set on it."""

    def __init__(self):
        super().__init__(0)
        self.sets = []

    @property
    def state(self):
        return np.random.PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        self.sets.append(value)
        # numpy checks the name a state carries against the class's
        np.random.PCG64.state.__set__(self, {**value, "bit_generator": "RecordingPCG64"})


def test_trials_read_only_the_draws_they_need():
    # a trial sets its own stream's state on the run's one bit generator,
    # skips the n tie-break draws and reads the labels, leaving it 3n numbers
    # in; on the cut-local route (disjoint) it reads the n locations alone.
    # It sets the state again for the full draw, which ends 3n in too, only
    # on a repeated location: every dust trial repeats locations, inside its
    # class-1 segment, and every knife trial puts both labels at 0.5
    n = 3000
    for t in range(4):
        xs, _, _ = PURE_FAMILIES["dust"]().sample_arrays(mix64(9, n, t), n)
        assert np.unique(xs).size < n
    cases = [("disjoint", 1, 1), ("gapped", 1, 3), ("multi_segment", 1, 3), ("dust", 2, 3), ("knife", 2, 3)]
    for family, sets, numbers in cases:
        trials = _Trials1D({**ONE_D_FAMILIES, **PURE_FAMILIES}[family](), n, 7)
        bits = RecordingPCG64()
        trials.rng = np.random.Generator(bits)
        for t, state in enumerate(block_states(mix64(9, n), 0, 4)):
            bits.sets.clear()
            trials.value(state)
            assert bits.sets == [generator(mix64(9, n, t)).bit_generator.state] * sets, family
            fresh = np.random.PCG64(0)
            fresh.state = state
            fresh.advance(numbers * n)
            assert bits.state["state"] == fresh.state["state"], family


def split_at(b):
    """Uniform marginal, labels 0 on [0, b) and 1 on [b, 1]."""
    class0, class1 = ([0.0, b, 1.0], [1.0 / b, 0.0]), ([0.0, b, 1.0], [0.0, 1.0 / (1.0 - b)])
    return PiecewiseUniform1D([b, 1.0 - b], class0, class1)


def rounded_step(u, b, k):
    """|s* - b| correctly rounded, s* the switch of the step rule on the sorted uniforms u."""
    n, c, a = u.size, int(u.searchsorted(b)), k // 2
    s = 0.0 if c <= a else 1.0 if n - c < k - a else (u[c - a - 1] + u[c + k - a - 1]) / 2.0
    return s, float(abs(Fraction(s) - Fraction(b)))


def test_cut_local_trials_equal_the_full_sorted_path():
    # a routed trial reads |s* - B| off two order statistics of its sorted
    # row or band near the label change (`_Trials1D._step_mass`); every value
    # must be |s* - B| correctly rounded, s* read off the sorted full draw.
    # The general route, which sorts the full row and integrates its window
    # table, must switch once, at s*, and integrate to within 2**-53 of it.
    # The cases hold
    # k = n, k = n - 1, n = 1, rows with no change, changes within k + 1
    # places of either end, and the trials_large and c05 sizes; B = 3/4
    # puts the change off the middle
    cases = [(1, 1, 20), (2, 1, 40), (3, 3, 40), (5, 4, 100), (6, 2, 200), (40, 15, 200)]
    cases += [(300, 25, 40), (10_000, 100, 12), (30_000, 173, 4), (50_000, 224, 4)]
    for dist in (disjoint_family(), split_at(0.75)):
        cut, seen = dist.breaks[1], set()
        for n, k, stop in cases:
            for seed in (9, 2026):
                routed, full = _Trials1D(dist, n, k), _Trials1D(dist, n, k)
                full.cut = None
                assert routed.cut == cut
                for t, state in enumerate(block_states(mix64(seed, n), 0, stop)):
                    u = np.sort(dist.sample_arrays(mix64(seed, n, t), n)[0])
                    s, want = rounded_step(u, cut, k)
                    value = routed.value(state)
                    assert value == want, (n, k, seed, t)
                    assert abs(full.value(state) - value) <= 2.0**-53, (n, k, seed, t)
                    edges, preds = full._train(state)
                    flips = np.flatnonzero(preds[1:] != preds[:-1])
                    assert flips.size <= 1 and preds[-1] == (s < 1.0), (n, k, seed, t)
                    assert (edges[flips[0] + 1] if flips.size else 1.0 - preds[0]) == s, (n, k, seed, t)
                    c = int(u.searchsorted(cut))
                    near_end = "start" if c <= k + 1 else "end" if c >= n - k - 1 else "inner"
                    seen.add("none" if c in (0, n) else near_end)
        assert seen == {"none", "start", "end", "inner"}, dist.breaks


def test_cut_local_route_admits_only_exact_families():
    # the route is taken where the rule is a step whose disagreement mass is
    # |s* - B| and a location is its own uniform: two segments of density 1,
    # labels 0 then 1, and a change at B >= 1/2.  The alternating family has
    # two Bayes-1 segments, the gapped family's marginal is not uniform, and
    # same_label_knife has several label-0 segments
    families = {**ONE_D_FAMILIES, **PURE_FAMILIES, "B = 3/4": lambda: split_at(0.75)}
    admitted = {name: family() for name, family in families.items() if _label_cut(family()) is not None}
    assert set(admitted) == {"disjoint", "B = 3/4"}
    assert all(dist._mass_prefix[-1] == 1.0 for dist in admitted.values())
    assert _label_cut(split_at(0.25)) is None


class FixedUniforms:
    """A stand-in generator whose every ``random`` call writes the one row given."""

    def __init__(self, row):
        self.row, self.bit_generator = row, np.random.PCG64(0)

    def random(self, out):
        out[:] = self.row[: out.size]


def test_label_cut_trials_take_each_branch():
    # from n = _BAND_FROM on a trial sorts only its band near B, unless the
    # band misses one of s*'s order statistics; s* is 0.0 at c <= a and 1.0
    # at n - c < b.  Each row below, shuffled, is every draw of a stand-in
    # generator; each value must be |s* - B| correctly rounded, and the
    # general route's integral within 2**-53 of it
    n, k = 10_000, 100
    assert n >= harness._BAND_FROM
    state = generator(0).bit_generator.state

    def run(row):
        """(value, whether the trial sorted its whole row) of one row."""
        assert row.size == n
        routed, full = _Trials1D(disjoint_family(), n, k), _Trials1D(disjoint_family(), n, k)
        full.cut = None
        routed.rng = full.rng = FixedUniforms(np.random.default_rng(3).permutation(row))
        value = routed.value(state)
        assert abs(value - full.value(state)) <= 2.0**-53
        return value, bool(np.all(routed.u[1:] >= routed.u[:-1]))

    def step(row):
        return rounded_step(np.sort(row), 0.5, k)[1]

    spread = np.arange(n) / n
    assert run(spread) == (step(spread), False)
    # no point within delta of B: the whole row is sorted
    far = np.concatenate([np.linspace(0.0, 0.45, n // 2), np.linspace(0.55, 0.999, n // 2)])
    assert run(far) == (step(far), True)
    # c <= a: s* = 0.0
    few_below = np.concatenate([np.linspace(0.0, 0.4, 40), np.linspace(0.5, 0.999, n - 40)])
    assert run(few_below) == (0.5, True)
    # n - c < b: s* = 1.0
    few_above = np.concatenate([np.linspace(0.0, 0.4999, n - 40), np.linspace(0.5, 0.999, 40)])
    assert run(few_above) == (0.5, True)
    # s* < B with 60 points just above B, which the band holds, and u[c + k]
    # below or above 2 s* = 0.99394...
    below, near = np.linspace(0.0, 0.496, n - 260), 0.5 + 1e-5 * np.arange(60)
    for tail in (np.linspace(0.98, 0.99, 200), np.linspace(0.996, 0.9999, 200)):
        row = np.concatenate([below, near, tail])
        assert run(row) == (step(row), False) and step(row) > 0.0025
    # c + k >= n
    row = np.concatenate([np.linspace(0.0, 0.496, n - 60), near])
    assert run(row) == (step(row), False) and step(row) > 0.0025


def test_label_cut_trials_round_the_step_once_where_the_integral_may_differ():
    # with c <= a, or with s* < B and u[c + k] past 2 s*, the window table's
    # integral need not be |s* - B| bit for bit.  Such rows come up at these
    # sizes; each trial there must be |s* - B| correctly rounded, and the
    # integral, off by up to 2**-54, differs from it on some of them
    off = 0
    for dist in (disjoint_family(), split_at(0.75)):
        cut = dist.breaks[1]
        for n, k in [(2, 1), (5, 4), (6, 2)]:
            a, routed, full = k // 2, _Trials1D(dist, n, k), _Trials1D(dist, n, k)
            full.cut = None
            rows = 0
            for t, state in enumerate(block_states(mix64(9, n), 0, 400)):
                u = np.sort(dist.sample_arrays(mix64(9, n, t), n)[0])
                c = int(u.searchsorted(cut))
                s, want = rounded_step(u, cut, k)
                if c > a and (s >= cut or 2.0 * s >= 1.0 or (c + k < n and u[c + k] <= 2.0 * s)):
                    continue
                rows += 1
                value, integral = routed.value(state), full.value(state)
                assert value == want, (cut, n, k, t)
                assert abs(integral - value) <= 2.0**-54, (cut, n, k, t)
                off += integral != value
            assert rows > 0, (cut, n, k)
    assert off > 0


EXCESS_FAMILIES = {**ONE_D_FAMILIES, "power_margin_1": lambda: PowerMargin1D(1.0)}


@pytest.mark.parametrize("family", sorted(EXCESS_FAMILIES))
def test_excess_kernel_matches_spelled_out_reference(family):
    # each exact excess against the 50-digit integral over the same window
    # table, which the kernel takes only on windows whose disagreement is not 0
    dist = EXCESS_FAMILIES[family]()
    for n, k in [(1, 1), (30, 30), (200, 14), (600, 25), (5000, 71)]:
        got = estimate_expected_excess(dist, n, k, 10, master_seed=4).per_trial
        for t, value in enumerate(got):
            want = mp_excess(dist, n, k, mix64(4, n, t))
            assert want > 0 or value == 0.0, (n, k, t)
            assert abs(value - want) <= 1e-13 * want, (n, k, t, value, float(want))
        # growing the budget leaves the earlier trials as they were
        longer = estimate_expected_excess(dist, n, k, 15, master_seed=4).per_trial
        assert longer[:10] == got, (n, k)


@pytest.mark.parametrize("excess", [False, True], ids=["disagreement", "excess"])
def test_every_per_trial_value_is_a_python_float(excess):
    # the disjoint family's step route reads |s* - B| off float64 order
    # statistics, from the sorted row at n = 300 and off the band from
    # _BAND_FROM on; the other families take the integral or the atom sums
    assert 5000 >= harness._BAND_FROM > 300
    cases = [
        (disjoint_family(), 300, 25),
        (disjoint_family(), 5000, 71),
        (multi_segment_family(), 300, 25),
        (tied_three_atoms(), 40, 7),
    ]
    for dist, n, k in cases:
        if _label_cut(dist) is not None:
            routed = _Trials1D(dist, n, k)
            assert all(type(routed._step_mass(s)) is float for s in block_states(mix64(9, n), 0, 8)), (n, k)
        values = _trial_values(dist, n, k, 9, 0, 8, excess)
        assert all(type(v) is float for v in values), (n, k, {type(v).__name__ for v in values})
    disjoint = disjoint_family()
    if excess:
        values = estimate_expected_excess(disjoint, 300, 25, 8, master_seed=9).per_trial
    else:
        values = run_upper_bound_trials(disjoint, 300, 25, 0.3, 8, master_seed=9).mistake_probs
    assert all(type(v) is float for v in values)


def test_one_dimensional_trials_reuse_their_buffers():
    # a trial at n = 5*10^4 that allocated its temporaries afresh faulted
    # about 1,300 pages back in; buffers reused across trials fault none
    resource = pytest.importorskip("resource")
    trials = 50
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _trial_values(disjoint_family(), 50_000, 224, 5, 0, trials)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if before == 0 and faults == 0:
        pytest.skip("this platform does not report minor page faults")
    assert faults < 100 * trials


# -- exact oracle ----------------------------------------------------------------


def test_exact_oracle_pure_atom_values():
    fa = pure_atoms()
    assert exact_expected_mistake(fa, 1, 1) == pytest.approx(0.5, abs=1e-12)
    assert exact_expected_mistake(fa, 3, 1) == pytest.approx(0.125, abs=1e-12)
    assert exact_expected_mistake(fa, 3, 3) == pytest.approx(0.5, abs=1e-12)


def test_exact_oracle_matches_brute_force():
    fa = tied_three_atoms()
    matrix = [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
    masses, etas = [0.2, 0.3, 0.5], [0.9, 0.2, 0.6]
    for n, k in [(2, 1), (3, 2), (4, 3), (3, 1)]:
        want = brute_force_expected_mistake(matrix, masses, etas, n, k)
        got = exact_expected_mistake(fa, n, k)
        assert got == pytest.approx(want, abs=1e-12), (n, k)


def test_exact_oracle_handles_zero_mass_atom():
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    fa = FiniteAtomic(FiniteMetric(matrix), [0.5, 0.5, 0.0], [1.0, 0.0, 0.3])
    want = brute_force_expected_mistake(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]], [0.5, 0.5, 0.0], [1.0, 0.0, 0.3], 3, 1
    )
    assert exact_expected_mistake(fa, 3, 1) == pytest.approx(want, abs=1e-12)


def test_exact_oracle_large_n_stays_finite():
    # C(1200, j) overflows a float; a query atom is misread exactly when
    # fewer than 600 of the 1,200 points land on it
    fa = pure_atoms()
    tie = Fraction(math.comb(1200, 600), 2**1200)
    want = float((1 - tie) / 2)
    assert exact_expected_mistake(fa, 1200, 1199) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_exact_oracle_enumeration_limit():
    # (2,000,000, 3) once needed 2,000,001 occupancy vectors, past the old
    # budget; now it takes 4 (atom, group) pairs of 3 * 5,003 terms.  Each
    # query atom holds about a million points of its own label, so the rule
    # never errs.  k = 30,000 needs 4 * 30,000 * 35,000 terms, past 2e9
    fa = pure_atoms()
    assert exact_expected_mistake(fa, 2_000_000, 3) == 0.0
    with pytest.raises(ResourceLimitError):
        exact_expected_mistake(fa, 2_000_000, 30_000)


def random_atoms(seed, m, metric, massless=0):
    """m atoms at random points of the plane (Euclidean) or of an integer grid (L1, with ties),
    of which `massless` carry no mass."""
    rng = np.random.default_rng(seed)
    if metric == "planar":
        pts = rng.random((m, 2))
        matrix = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    else:
        cells = rng.choice(36, size=m, replace=False)
        pts = np.stack([cells // 6, cells % 6], axis=1).astype(float)
        matrix = np.abs(pts[:, None] - pts[None]).sum(axis=-1)
    masses = rng.random(m) + 0.01
    masses[rng.choice(m, size=massless, replace=False)] = 0.0
    return FiniteAtomic(FiniteMetric(matrix), masses / masses.sum(), rng.random(m))


@pytest.mark.parametrize(
    "family",
    [tied_three_atoms, zero_mass_atoms, pure_atoms, four_tied_atoms]
    + [
        pytest.param(lambda s=seed, k=kind, d=dead: random_atoms(s, 24, k, d), id=f"{kind}_{seed}{tag}")
        for seed, kind, dead, tag in [
            (1, "planar", 0, ""),
            (2, "planar", 6, "_quarter_massless"),
            (3, "l1_grid", 0, ""),
            (4, "l1_grid", 6, "_quarter_massless"),
        ]
    ],
)
def test_oracle_budget_counts_the_tables_groups(family):
    # the budget counts (atom, distance group) pairs: for each atom of
    # positive mass, the distinct distances from it to such atoms, the
    # groups that mp_expected_mistake sums.  It refuses from the first k
    # past the term limit, and the oracle refuses with it
    dist = family()
    live = np.flatnonzero(dist.masses > 0.0).tolist()
    pairs = sum(len({dist.space.matrix[q, a] for a in live}) for q in live)
    limit, step = harness._ORACLE_TERM_LIMIT, harness._ORACLE_STEP_TERMS
    k = max(k for k in range(1, 50_000) if k * (k + step) * pairs <= limit)
    harness._oracle_budget(dist, k)
    message = f"needs {(k + 1) * (k + 1 + step) * pairs} terms"
    with pytest.raises(ResourceLimitError, match=message):
        harness._oracle_budget(dist, k + 1)
    with pytest.raises(ResourceLimitError, match=message):
        exact_expected_mistake(dist, 10**6, k + 1)


def test_exact_oracle_on_60_planar_atoms_holds_no_group_table():
    # the oracle sums each distance group's exact masses when its loop
    # reaches the group; a table of every (atom, group) pair's sums, each an
    # integer of about 2,200 bits, peaked at 2.5 MB here
    dist = random_atoms(60, 60, "planar")
    tracemalloc.start()
    try:
        exact_expected_mistake(dist, 100, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"{peak / 1e6:.2f} MB"


def test_exact_oracle_keeps_a_rare_atom_exact_at_large_n():
    # an atom of mass 1e-9 is misread when at most one of its 3 neighbors
    # among n = 10^10 points is its own.  The sum multiplies log(1 - p) by
    # about n, so a log that lost one rounding would be off by 1e-6
    masses = [1e-9, 1 - 1e-9 + 1e-13]  # a sum of 1 + 1e-13 leaves 1 - p inexact
    fa = FiniteAtomic(FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]])), masses, [1.0, 0.0])
    n = 10**10
    with mpmath.workdps(50):
        small, large = (mpmath.mpf(v) for v in masses)
        p = small / (small + large)
        want = small * ((1 - p) ** n + n * p * (1 - p) ** (n - 1))
    assert exact_expected_mistake(fa, n, 3) == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_exact_oracle_refuses_n_past_exact_floats():
    # the sum reads n - c as a float, exact up to 2**53
    fa = pure_atoms()
    assert exact_expected_mistake(fa, 2**53, 3) == 0.0
    with pytest.raises(ValueError):
        exact_expected_mistake(fa, 2**53 + 1, 3)


def test_exact_oracle_units_equal_the_rational_ones():
    # masses and label-one masses as integer multiples of 2**-2148, against
    # exact rationals: random doubles of every binade in [0, 1], subnormals,
    # 0.0, 1.0 and the ends of the normal range among them
    rng = np.random.default_rng(2026)
    special = [0.0, 1.0, 5e-324, 2.0**-1022, np.nextafter(2.0**-1022, 0.0), np.nextafter(1.0, 0.0), 0.5]
    masses, etas = (
        [*ends, *(rng.random(20_000) * 2.0 ** -rng.integers(0, 1080, 20_000)).tolist()]
        for ends in (special, special[::-1])
    )
    units, ones = harness._exact_units(masses, etas)
    assert units == [int(Fraction(m) * 2**2148) for m in masses]
    assert ones == [int(u * Fraction(e)) for u, e in zip(units, etas)]


@pytest.mark.parametrize("family", [tied_three_atoms, zero_mass_atoms, pure_atoms, four_tied_atoms])
@pytest.mark.parametrize("n, k", [(12, 1), (12, 4), (12, 12), (40, 13)])
def test_exact_oracle_matches_occupancy_enumeration(family, n, k):
    # k = 1, an even k, k = n, and the benchmark's (40, 13)
    fa = family()
    want = occupancy_expected_mistake(fa, n, k)
    assert exact_expected_mistake(fa, n, k) == pytest.approx(want, rel=1e-13, abs=0.0)


def mp_expected_mistake(fa, n, k):
    """The conditioning sum of `exact_expected_mistake`, spelled out at 60 digits."""
    with mpmath.workdps(60):
        masses = [mpmath.mpf(v) for v in fa.masses.tolist()]
        etas = [mpmath.mpf(v) for v in fa.etas.tolist()]
        live = [a for a, v in enumerate(masses) if v > 0]
        whole = mpmath.fsum(masses)

        def pmf(size, p, j):
            return mpmath.binomial(size, j) * p**j * (1 - p) ** (size - j)

        total = mpmath.mpf(0)
        for q in live:
            row = fa.space.matrix[q]
            closer = closer_one = mpmath.mpf(0)
            for d in sorted({row[a] for a in live}):
                group = [a for a in live if row[a] == d]
                mu = mpmath.fsum(masses[a] for a in group)
                one = mpmath.fsum(masses[a] * etas[a] for a in group)
                beyond = whole - closer
                for c in range(k if closer else 1):
                    reach = pmf(n, closer / whole, c) * mpmath.fsum(
                        pmf(n - c, mu / beyond, j) for j in range(k - c, n - c + 1)
                    )
                    p = closer_one / closer if closer else mpmath.mpf(0)
                    for ones in range(k + 1):
                        if (2 * ones >= k) == (etas[q] >= 0.5):
                            continue
                        vote = mpmath.fsum(
                            pmf(c, p, a) * pmf(k - c, one / mu, ones - a)
                            for a in range(max(0, ones - k + c), min(c, ones) + 1)
                        )
                        total += masses[q] * reach * vote
                closer += mu
                closer_one += one
        return total


def test_exact_oracle_matches_mpmath_at_the_benchmark_size():
    fa = tied_three_atoms()
    want = mp_expected_mistake(fa, 40, 13)
    assert exact_expected_mistake(fa, 40, 13) == pytest.approx(float(want), rel=1e-13, abs=0.0)
    # the conditioning sum, spelled out, is the occupancy enumeration's value too
    assert float(want) == pytest.approx(occupancy_expected_mistake(fa, 40, 13), rel=1e-13, abs=0.0)


def test_exact_oracle_cost_does_not_grow_with_n():
    # at n = 10^9 every one of the 13 neighbors sits on the query's own atom
    fa = tied_three_atoms()
    want = Fraction(0)
    for mass, eta in zip([0.2, 0.3, 0.5], [0.9, 0.2, 0.6]):
        e = Fraction(eta)
        pmf = [math.comb(13, j) * e**j * (1 - e) ** (13 - j) for j in range(14)]
        want += Fraction(mass) * sum(pmf[:7] if eta >= 0.5 else pmf[7:])
    start = time.perf_counter()
    got = exact_expected_mistake(fa, 10**9, 13)
    elapsed = time.perf_counter() - start
    assert got == pytest.approx(float(want), rel=0.0, abs=1e-15)
    assert elapsed < 1.0, f"n = 10^9 took {elapsed:.2f}s"


def test_mc_matches_exact_within_error():
    fa = tied_three_atoms()
    exact = exact_expected_mistake(fa, 3, 2)
    mean, stderr = mc_expected_mistake(fa, 3, 2, trials=20000, master_seed=5)
    assert stderr > 0.0
    assert abs(mean - exact) < 4.0 * stderr


@pytest.mark.parametrize(
    "family, n, k, excess, trials",
    [
        ("disjoint", 300, 25, False, 40_000),
        ("power_margin_1", 300, 25, False, 15_000),
        ("multi_segment", 300, 25, False, 8_000),
        ("multi_segment", 40, 16, False, 6_000),  # even k: a tied vote says 1, here not a symmetric choice
        ("power_margin_1", 300, 25, True, 15_000),
    ],
    ids=["disjoint", "power_margin_1", "multi_segment", "multi_segment-even_k", "power_margin_1-excess"],
)
def test_one_dimensional_mc_mean_matches_the_conditional_radius_integral(family, n, k, excess, trials):
    # the integral shares neither the kernel's sorted windows nor its sampler;
    # its own error is under 1e-10 on these cases (see `exact_mean_1d`)
    dist = EXCESS_FAMILIES[family]()
    exact = exact_mean_1d(dist, n, k, excess)
    if family == "disjoint":  # the finite sum over the cut's two order statistics
        assert exact == pytest.approx(6.6935323005512e-03, rel=0.0, abs=1e-9)
    if excess:
        est = estimate_expected_excess(dist, n, k, trials, master_seed=3)
        mean, stderr = est.mean, est.stderr
    else:
        mean, stderr = mc_expected_mistake(dist, n, k, trials, master_seed=3)
    assert abs(mean - exact) < 4.0 * stderr + 1e-9


def test_blocked_atomic_trials_match_single_trial_path(monkeypatch):
    # finite-atomic trials are ranked a block of draws at a time; each value
    # must still be the single-trial statistic bit for bit.  Seen from atom 0,
    # k=2 and k=3 at n=5 cut through the atom-1/atom-2 distance tie; the
    # trial count leaves a partial last block, and start=100 an offset one.
    # With 200 points a block, n = 40 runs in 110 blocks of five trials (a
    # partial one last), and with 1 point a block every block holds one trial
    fa = tied_three_atoms()
    stop = _BLOCK_TRIALS + 37
    for n, k in [(5, 2), (5, 3), (5, 5), (1, 1), (40, 13)]:
        want = [trial_disagreement(fa, n, k, 9, t) for t in range(stop)]
        for block_points in (harness._BLOCK_POINTS, 200, 1):
            monkeypatch.setattr(harness, "_BLOCK_POINTS", block_points)
            assert _trial_values(fa, n, k, 9, 0, stop) == want, (n, k, block_points)
            assert _trial_values(fa, n, k, 9, 100, stop) == want[100:], (n, k, block_points)
        monkeypatch.undo()
        # a trial reads its n locations, n tie-breaks and n label uniforms
        # from its stream in that order, and the block mapping reads them
        # from one row of a block
        for t in range(20):
            seed = mix64(9, n, t)
            rng = generator(seed)
            u, zs, v = rng.random(n), rng.random(n), rng.random(n)
            xs = np.minimum(np.searchsorted(np.cumsum(fa.masses), u, side="right"), 2)
            spelled = (xs, zs, (v < fa.etas[xs]).astype(np.int8))
            block = fa._draw(generator(seed).random((1, 3, n)))
            for got, sampled, want in zip(block, fa.sample_arrays(seed, n), spelled):
                assert got.shape == (1, n) and got.dtype == sampled.dtype == want.dtype
                assert got[0].tobytes() == sampled.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        _trial_values(fa, 3, 4, 9, 0, 10)


def blocks_from(n: int, start: int, stop: int) -> list[np.ndarray]:
    """The memory blocks of `_stream_blocks` for trials [start, stop) of seed 9, each a copy."""
    return [block.copy() for block in harness._stream_blocks(9, n, start, stop)]


def test_atomic_streams_follow_the_block_layout():
    # trial t reads numbers [3n j, 3n (j + 1)) of stream (9, n, b), (b, j) =
    # divmod(t, 512), whichever trial a run starts from.  At n = 40 one memory
    # block holds a whole stream, and trials 511 and 512 sit on either side of
    # a stream's end
    rows = np.concatenate(blocks_from(40, 500, 530))
    for t in (500, 511, 512, 529):
        assert rows[t - 500].tobytes() == atomic_uniforms(9, 40, t).tobytes(), t
    assert [len(b) for b in blocks_from(40, 500, 530)] == [12, 18]
    # at n = 3,000 a memory block holds 2**20 // 3,000 = 349 trials, fewer than
    # a stream's 512: each stream is cut into blocks of 349 and 163, and a run
    # from trial 300 starts with the 212 left of stream 0
    assert harness._BLOCK_POINTS // 3000 == 349
    assert [len(b) for b in blocks_from(3000, 0, 1100)] == [349, 163, 349, 163, 76]
    assert [len(b) for b in blocks_from(3000, 300, 1100)] == [212, 349, 163, 76]
    rows = np.concatenate(blocks_from(3000, 300, 1100))
    for t in (300, 348, 349, 511, 512, 860, 861, 1023, 1024, 1099):
        assert rows[t - 300].tobytes() == atomic_uniforms(9, 3000, t).tobytes(), t


def test_atomic_trials_from_an_offset_start_are_the_same_trials():
    # a run from trial 700 starts 188 trials into stream 1 and crosses into
    # stream 2 at trial 1,024; its values are trials [700, 1500) of a run from 0
    fa = tied_three_atoms()
    for n, k in [(1, 1), (5, 2), (40, 13)]:
        whole = _trial_values(fa, n, k, 9, 0, 1500)
        assert _trial_values(fa, n, k, 9, 700, 1500) == whole[700:], (n, k)
        assert whole[700:702] == [trial_disagreement(fa, n, k, 9, t) for t in (700, 701)]


def test_atomic_kernel_ranks_tied_draws_as_a_spelled_out_lexsort(monkeypatch):
    # tie-break draws floored to quarters repeat in every row of more than
    # four points, so the kernel takes its stable ranking, and the training
    # index decides between the k-th and (k + 1)-th neighbors when they tie
    # in distance and draw.  Each row of wrong atoms must be the one a stable
    # lexsort by (distance, draw) gives, on tied distance groups and with a
    # zero-mass atom (a query atom no point lands on)
    stream_blocks = harness._stream_blocks

    def floored(*args):
        for block in stream_blocks(*args):
            block[:, 1] = np.floor(block[:, 1] * 4.0) / 4.0
            yield block

    monkeypatch.setattr(harness, "_stream_blocks", floored)
    four = four_tied_atoms()
    spaces = [tied_three_atoms(), FiniteAtomic(four.space, [0.3, 0.3, 0.4, 0.0], four.etas)]
    stop, cut_ties, default_points = 80, 0, harness._BLOCK_POINTS
    for fa in spaces:
        for n, k in [(1, 1), (6, 1), (6, 3), (6, 6), (40, 1), (40, 13), (40, 40)]:
            want = []
            for t in range(stop):
                u = atomic_uniforms(9, n, t)[None]
                u[:, 1] = np.floor(u[:, 1] * 4.0) / 4.0
                xs, zs, ys = (a[0] for a in fa._draw(u))
                row = []
                for q in range(fa.masses.size):
                    d = fa.space.matrix[q][xs]
                    order = np.lexsort((zs, d))  # stable: index order among equal keys
                    row.append((2 * int(ys[order[:k]].sum()) >= k) != (fa.etas[q] >= 0.5))
                    near, far = order[k - 1], order[min(k, n - 1)]
                    cut_ties += k < n and d[near] == d[far] and zs[near] == zs[far]
                want.append(row)
            for block_points in (default_points, 200, 1):
                monkeypatch.setattr(harness, "_BLOCK_POINTS", block_points)
                got = harness._atomic_wrong(fa, n, k, 9, 0, stop)
                assert got.tolist() == want, (fa.masses, n, k, block_points)
                assert harness._atomic_wrong(fa, n, k, 9, 7, stop).tolist() == want[7:]
    assert cut_ties > 1_000


def test_atomic_trials_sum_each_rows_own_masses():
    # trials with the same wrong atoms share one sum, and that sum is the
    # row's own subset sum: over 12 atoms numpy groups a masked sum of all
    # masses pairwise, which rounds differently for many of these rows
    pos = np.arange(12.0)
    masses = np.random.default_rng(5).random(12)
    fa = FiniteAtomic(FiniteMetric(np.abs(pos[:, None] - pos)), masses / masses.sum(), [0.9, 0.1] * 6)
    n, k, stop = 3, 1, 300
    want = [trial_disagreement(fa, n, k, 9, t) for t in range(stop)]
    assert _trial_values(fa, n, k, 9, 0, stop) == want
    rows = list(harness._atomic_wrong(fa, n, k, 9, 0, stop))
    assert len({row.tobytes() for row in rows}) < stop / 2
    assert any(np.where(row, fa.masses, 0.0).sum() != value for row, value in zip(rows, want))


def test_blocked_atomic_excess_matches_fit_predict_reference(monkeypatch):
    # the excess reads the blocked kernel's rows of wrong atoms; each trial
    # must still be the fit/predict value bit for bit, and within 1e-14 of
    # the exact rational sum of mass * |1 - 2 eta| over those atoms.  23
    # trials leave a partial last block; with 200 points a block, n = 40
    # runs in blocks of five trials
    trials = 23
    for block_points in (harness._BLOCK_POINTS, 200):
        monkeypatch.setattr(harness, "_BLOCK_POINTS", block_points)
        for fa in (tied_three_atoms(), pure_atoms(), four_tied_atoms()):
            weights = [Fraction(m) * abs(1 - 2 * Fraction(e)) for m, e in zip(fa.masses, fa.etas)]
            for n, k in [(1, 1), (5, 2), (5, 5), (40, 13)]:
                want = [atomic_excess(fa, n, k, 3, t) for t in range(trials)]
                got = estimate_expected_excess(fa, n, k, trials, master_seed=3)
                assert list(got.per_trial) == want, (block_points, n, k)
                for t, value in enumerate(got.per_trial):
                    wrong = atom_wrong(fa, n, k, 3, t)
                    exact = sum((w for w, bad in zip(weights, wrong) if bad), Fraction(0))
                    assert abs(Fraction(value) - exact) <= Fraction(1e-14) * exact, (n, k, t)
    with pytest.raises(ValueError):
        estimate_expected_excess(tied_three_atoms(), 3, 4, 5)


@pytest.mark.parametrize(
    "family, n, k",
    [("power_margin_1", 10_000, 100), ("multi_segment", 3000, 55), ("tied_three_atoms", 40, 13)],
)
def test_exact_excess_is_the_sampled_estimates_conditional_mean(family, n, k):
    # the query-sampled excess of a trial, on a stream apart from its
    # training draw, is unbiased for that trial's exact excess: over 1,000
    # trials the mean of their differences lies within 4 stderr of 0
    dist = {**EXCESS_FAMILIES, "tied_three_atoms": tied_three_atoms}[family]()
    trials = 1000
    exact = estimate_expected_excess(dist, n, k, trials, master_seed=11).per_trial
    diff = np.subtract(sampled_excess(dist, n, k, 500, 11, trials), exact)
    stderr = diff.std(ddof=1) / math.sqrt(trials)
    assert stderr > 0.0
    assert abs(diff.mean()) <= 4.0 * stderr, (diff.mean(), stderr)


# -- upper bound runner ----------------------------------------------------------


def test_upper_bound_trials_disjoint():
    dist = disjoint_family()
    rep = run_upper_bound_trials(dist, 500, 30, 0.3, trials=50, master_seed=2)
    assert rep.schedule == "confidence"
    assert len(rep.mistake_probs) == 50
    assert all(0.0 <= p <= 1.0 for p in rep.mistake_probs)
    assert set(rep.violated) <= {0, 1}
    assert rep.bound == pytest.approx(0.3 + rep.boundary_mass, abs=1e-12)
    assert 0.0 <= rep.wilson_low <= rep.violation_frequency <= rep.wilson_high <= 1.0
    again = run_upper_bound_trials(dist, 500, 30, 0.3, trials=50, master_seed=2)
    assert rep.mistake_probs == again.mistake_probs


def test_upper_bound_trials_zero_bayes_schedule():
    dist = disjoint_family()
    rep = run_upper_bound_trials(
        dist, 200, 1, 0.1, trials=40, master_seed=3, schedule="zero_bayes"
    )
    assert rep.schedule == "zero_bayes"
    # mass level 0.069556 puts the disjoint boundary mass at the level itself
    assert rep.boundary_mass == pytest.approx(0.0695552, abs=1e-5)
    assert rep.violation_frequency <= 0.2
    with pytest.raises(ValueError):
        run_upper_bound_trials(dist, 200, 1, 0.1, trials=10, schedule="bogus")


def test_upper_bound_trial_statistic_is_exact():
    # per-trial values must be exact integrals, not sample frequencies:
    # for the disjoint family each is the window mass on the wrong side,
    # a multiple of nothing in particular but always < 1/2 here
    dist = disjoint_family()
    rep = run_upper_bound_trials(dist, 100, 8, 0.4, trials=20, master_seed=4)
    assert all(p < 0.5 for p in rep.mistake_probs)
    assert any(p > 0.0 for p in rep.mistake_probs)


# -- lower bound runner ----------------------------------------------------------


def test_lower_bound_atomic_exact_path():
    fa = pure_atoms()
    chk = run_lower_bound_trials(fa, 6, 1)
    assert chk.stderr == 0.0
    assert chk.trials_used == 0
    # band tolerance is vacuous at k=1, so the whole support is high-error
    assert chk.high_error_mass == 1.0
    assert chk.lhs == pytest.approx(2 * 0.5 * 0.5**6, abs=1e-12)
    assert chk.rhs == pytest.approx(chk.constant, rel=1e-12, abs=0.0)
    assert chk.passed


def test_lower_bound_continuous_path():
    dist = disjoint_family()
    chk = run_lower_bound_trials(dist, 300, 10, trials=400, master_seed=0)
    assert chk.trials_used == 400
    assert chk.rhs > 0.0
    assert chk.lhs > chk.rhs  # huge slack at this scale
    assert chk.stderr > 0.0
    assert chk.passed


def test_lower_bound_extends_its_pilot_in_trial_order(monkeypatch):
    # at (300, 25) the pilot's 2,000 trials leave the stderr above rhs/10, and
    # the run extends to its cap of 2,500: the extension's trials follow the
    # pilot's, as one run of 2,500 trials orders them
    seen, mean_var = [], harness._mean_var
    monkeypatch.setattr(harness, "_mean_var", lambda values: seen.append(list(values)) or mean_var(values))
    chk = run_lower_bound_trials(disjoint_family(), 300, 25, trials=2500, master_seed=7)
    want = _trial_values(disjoint_family(), 300, 25, 7, 0, 2500)
    assert seen == [want[:2000], want]
    assert chk.trials_used == 2500 and chk.lhs == math.fsum(want) / 2500


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: exact_expected_mistake(PowerMargin1D(1.0), 10, 3),
            "the exact oracle requires a finite-atomic distribution",
        ),
        (lambda: mc_expected_mistake(tied_three_atoms(), 10, 3, trials=0), "trials must be positive"),
        (lambda: run_upper_bound_trials(tied_three_atoms(), 10, 3, 0.5, trials=0), "trials must be positive"),
        (lambda: estimate_expected_excess(tied_three_atoms(), 10, 3, trials=0), "trials must be positive"),
    ],
    ids=["oracle_off_atoms", "mc_trials", "upper_trials", "excess_trials"],
)
def test_harness_refuses_runs_it_cannot_make(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_mc_expected_mistake_of_one_trial_has_no_stderr():
    fa = tied_three_atoms()
    want = _trial_values(fa, 40, 13, 5, 0, 1)[0]
    assert mc_expected_mistake(fa, 40, 13, trials=1, master_seed=5) == (want, 0.0)


# -- excess and sweeps -----------------------------------------------------------


def test_estimate_expected_excess():
    pm = PowerMargin1D(1.0)
    est = estimate_expected_excess(pm, 200, 14, trials=8, master_seed=6)
    assert len(est.per_trial) == 8
    assert est.mean == pytest.approx(sum(est.per_trial) / 8, rel=1e-12, abs=0.0)
    assert est.mean >= 0.0
    assert est.stderr > 0.0
    again = estimate_expected_excess(pm, 200, 14, trials=8, master_seed=6)
    assert est == again


def test_k_rules():
    assert KRule("fixed", k=7).k_for(100) == 7
    assert KRule("fixed", k=np.int64(3)).k_for(100) == 3  # a numpy int is an int; 3.0 is refused
    assert KRule("power", exponent=2.0 / 3.0).k_for(1000) == 100
    assert KRule("sqrt").k_for(50) == 8
    rule = KRule("rate_optimal", k_scale=1.0, alpha=1.0, delta=0.1)
    assert rule.k_for(1000) == 132
    assert KRule("rate_optimal", k_scale=1.0, alpha=1.0).k_for(1000) == 100
    assert KRule("rate_optimal", alpha=1.0, delta=1e-320).k_for(1000) == 903  # 1/delta overflows
    with pytest.raises(ValueError):
        KRule("fixed", k=100).k_for(100)
    with pytest.raises(ValueError):
        KRule("fixed", k=0).k_for(100)
    with pytest.raises(ValueError):
        KRule("cube").k_for(100)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "cube"}, "unknown k rule kind 'cube'"),
        ({"kind": "power"}, "k rule 'power' needs an exponent"),
        ({"kind": "sqrt", "k": 5}, "k rule 'sqrt' does not read k"),
        ({"kind": "fixed", "k": 7, "exponent": 0.9}, "k rule 'fixed' does not read exponent"),
        ({"kind": "power", "exponent": 0.5, "alpha": 2.0, "delta": 0.1}, "k rule 'power' does not read alpha, delta"),
        ({"kind": "rate_optimal", "k": 3}, "k rule 'rate_optimal' does not read k"),
        ({"kind": "fixed", "k": 2.5}, r"k rule k must be an integer, not 2\.5"),
        ({"kind": "fixed", "k": 3.0}, r"k rule k must be an integer, not 3\.0"),
        ({"kind": "fixed", "k": True}, "k rule k must be an integer, not True"),
        ({"kind": "fixed", "k": "3"}, "k rule k must be an integer, not '3'"),
    ],
    ids=["unknown_kind", "power_without_exponent", "sqrt_with_k", "fixed_with_exponent", "power_with_two", "rate_with_k",
         "fixed_float_k", "fixed_whole_float_k", "fixed_bool_k", "fixed_string_k"],
)
def test_k_rule_refuses_what_its_kind_does_not_read(kwargs, message):
    # at construction, before any k_for: a parameter that the kind ignores
    # would silently change nothing, 'power' has no exponent to assume, and
    # a fixed k of 2.5 was once read as 2
    with pytest.raises(ValueError, match=f"^{message}$"):
        KRule(**kwargs)


@pytest.mark.parametrize(
    "rule",
    [
        KRule("power", exponent=1e10),
        KRule("rate_optimal", k_scale=1e308),
        KRule("rate_optimal", delta=1e-320, k_scale=1e306),  # ln(1/delta)**(1/3) tips it over
    ],
    ids=["power", "k_scale", "delta"],
)
def test_k_rule_past_the_float_range_is_infeasible(rule):
    # these schedules used to overflow inside k_for and leak an OverflowError
    with pytest.raises(InfeasibleParametersError, match="float range"):
        rule.k_for(1000)


def test_rate_sweep_shape_and_fit():
    pm = PowerMargin1D(1.0)
    sweep = rate_sweep(pm, [50, 100, 200, 400], KRule("sqrt"), trials=6)
    assert len(sweep.rows) == 4
    assert sweep.excluded == ()
    assert sweep.slope < 0.0  # excess risk must shrink with n
    assert math.isfinite(sweep.intercept)
    with pytest.raises(ValueError):
        rate_sweep(pm, [50, 100, 200], KRule("sqrt"), trials=4)
    with pytest.raises(ValueError):
        rate_sweep(pm, [50, 100, 100, 200], KRule("sqrt"), trials=4)


def test_rate_sweep_with_under_two_positive_means_has_no_fit():
    # k = 1 on two pure atoms errs only on a draw that misses an atom: at
    # these n no trial does, and a mean of 0 carries no log
    sweep = rate_sweep(pure_atoms(), [20, 30, 40, 50], KRule("fixed", k=1), trials=4, master_seed=3)
    assert [r.mean_excess for r in sweep.rows] == [0.0] * 4
    assert math.isnan(sweep.slope) and math.isnan(sweep.intercept)
    assert sweep.excluded == (20, 30, 40, 50)


def test_consistency_sweep_trend():
    pm = PowerMargin1D(1.0)
    sweep = consistency_sweep(pm, [60, 240, 960], trials=12, master_seed=1)
    assert len(sweep.rows) == 3
    assert all(r.median_excess >= 0.0 for r in sweep.rows)
    assert -1.0 <= sweep.spearman <= 0.0


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(3, 10)
    assert lo == pytest.approx(0.1078, abs=1e-4)
    assert hi == pytest.approx(0.6032, abs=1e-4)
    lo, hi = wilson_interval(0, 500)
    assert lo == 0.0
    assert hi == pytest.approx(3.841458820694124 / (500 + 3.841458820694124), rel=1e-9, abs=0.0)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
