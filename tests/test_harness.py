"""Harness oracles and runners.

The brute-force oracle below enumerates every training assignment, every
equally likely tie subset, and every label vector outright.  It shares no
machinery with the implementation (which integrates occupancy vectors
against convolved label counts), so agreement is meaningful evidence.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nnrates import harness
from nnrates._rng import block_states, generator, mix64
from nnrates.distributions import FiniteAtomic, PiecewiseUniform1D, PowerMargin1D
from nnrates.errors import InfeasibleParametersError, ResourceLimitError
from nnrates.harness import (
    _BLOCK_TRIALS,
    KRule,
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
from references import atomic_excess, bayes_one_cdf, trial_disagreement


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

# pure-label families (every eta 0 or 1), whose trials draw sorted locations
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
}


def reference_window(xs, zs, ys, k):
    """Sorted-window table spelled out: full lexsort, votes from a cumsum."""
    n = xs.size
    order = np.lexsort((zs, xs))
    t = xs[order]
    sums = np.concatenate([[0], np.cumsum(ys[order], dtype=np.int64)])
    preds = (2 * (sums[k:] - sums[: n + 1 - k]) >= k).astype(np.int8)
    return (t[: n - k] + t[k:]) / 2.0, preds


def reference_disagreement(dist, n, k, seed):
    """A 1-D trial spelled out: scalar cdf and Bayes-one cdf at every edge."""
    switches, preds = reference_window(*dist.sample_arrays(seed, n), k)
    edges = [0.0, *np.clip(switches, 0.0, 1.0).tolist(), 1.0]
    mass = np.diff([dist.cdf(e) for e in edges])
    ones_mass = np.diff([bayes_one_cdf(dist, e) for e in edges])
    return float(np.where(preds == 1, mass - ones_mass, ones_mass).sum())


def reference_eta(dist, xs):
    if isinstance(dist, PowerMargin1D):
        s = 2.0 * xs - 1.0
        return 0.5 + 0.5 * np.sign(s) * np.abs(s) ** dist.gamma
    j = np.clip(np.searchsorted(dist.breaks, xs, side="right") - 1, 0, dist.f.size - 1)
    return dist._filled_eta[j]


def reference_excess(dist, n, k, queries, master_seed, t):
    switches, preds = reference_window(*dist.sample_arrays(mix64(master_seed, n, t), n), k)
    xq, _, _ = dist.sample_arrays(mix64(master_seed, n, t, 1), queries)
    etas = reference_eta(dist, xq)
    disagree = preds[np.searchsorted(switches, xq)] != (etas >= 0.5)
    return float(np.mean(np.abs(1.0 - 2.0 * etas) * disagree))


@pytest.mark.parametrize("family", sorted(ONE_D_FAMILIES))
def test_trial_kernel_matches_spelled_out_reference(family):
    # n = 1, k = n, an offset start, and one set of buffers reused for every draw
    dist = ONE_D_FAMILIES[family]()
    for n, k, stop in [(1, 1, 6), (2, 2, 6), (25, 25, 12), (40, 7, 40), (300, 25, 25), (2000, 45, 8)]:
        want = [reference_disagreement(dist, n, k, mix64(9, n, t)) for t in range(stop)]
        assert _trial_values(dist, n, k, 9, 0, stop) == want, (n, k)
        assert _trial_values(dist, n, k, 9, 3, stop) == want[3:], (n, k)
        reused = _Trials1D(dist, n, k)
        assert [reused.disagreement(s) for s in block_states(mix64(9, n), 0, stop)] == want, (n, k)


@pytest.mark.parametrize("family", sorted(PURE_FAMILIES))
def test_sorted_draws_match_spelled_out_reference(family):
    # the sorted draw, its segment slices and its fallback to the exact
    # order, against the full draw and lexsort of the reference
    dist = PURE_FAMILIES[family]()
    assert dist._pure
    # (40, 2) is where the knife family's tie order at 0.5 moves a value
    cases = [(1, 1, 6), (2, 2, 6), (40, 2, 30), (40, 7, 30), (300, 25, 12), (3000, 45, 3), (10_000, 100, 2)]
    for n, k, stop in cases:
        want = [reference_disagreement(dist, n, k, mix64(9, n, t)) for t in range(stop)]
        assert _trial_values(dist, n, k, 9, 0, stop) == want, (n, k)
        reused = _Trials1D(dist, n, k)
        assert [reused.disagreement(s) for s in block_states(mix64(9, n), 0, stop)] == want, (n, k)


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
    # a trial sets its own stream's state on the run's one bit generator.  A
    # pure-label trial then leaves it n numbers in; any other trial skips the
    # n tie-break draws and reads the labels, 3n in.  A pure-label trial sets
    # the state again for the full draw only on a repeat or an inversion
    # across a segment cut: every dust trial repeats locations, inside its
    # class-1 segment, and draws once; every knife trial puts both labels
    # at 0.5 and draws again
    n = 3000
    for t in range(4):
        xs, _, _ = PURE_FAMILIES["dust"]().sample_arrays(mix64(9, n, t), n)
        assert np.unique(xs).size < n
    cases = [("gapped", 1, 1), ("multi_segment", 1, 3), ("dust", 1, 1), ("knife", 2, 3)]
    for family, sets, numbers in cases:
        trials = _Trials1D({**ONE_D_FAMILIES, **PURE_FAMILIES}[family](), n, 7)
        bits = RecordingPCG64()
        trials.rng = np.random.Generator(bits)
        for t, state in enumerate(block_states(mix64(9, n), 0, 4)):
            bits.sets.clear()
            trials.disagreement(state)
            assert bits.sets == [generator(mix64(9, n, t)).bit_generator.state] * sets, family
            fresh = np.random.PCG64(0)
            fresh.state = state
            fresh.advance(numbers * n)
            assert bits.state["state"] == fresh.state["state"], family


@pytest.mark.parametrize("family", sorted(ONE_D_FAMILIES))
def test_excess_kernel_matches_spelled_out_reference(family):
    # query sets smaller and larger than the training set share the buffers
    dist = ONE_D_FAMILIES[family]()
    for n, k, queries in [(1, 1, 5), (30, 30, 7), (200, 14, 500), (600, 25, 60)]:
        want = [reference_excess(dist, n, k, queries, 4, t) for t in range(10)]
        got = estimate_expected_excess(dist, n, k, 10, queries, master_seed=4).per_trial
        assert list(got) == want, (n, k, queries)
        # growing the budget leaves the earlier trials as they were
        longer = estimate_expected_excess(dist, n, k, 15, queries, master_seed=4).per_trial
        assert longer[:10] == got, (n, k, queries)


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
    # 1,201 occupancies are far inside the enumeration limit, but C(1200, j)
    # overflows a float; a query atom is misread exactly when fewer than
    # 600 of the 1,200 points land on it
    fa = pure_atoms()
    tie = Fraction(math.comb(1200, 600), 2**1200)
    want = float((1 - tie) / 2)
    assert exact_expected_mistake(fa, 1200, 1199) == pytest.approx(want, rel=1e-12)


def test_exact_oracle_enumeration_limit():
    fa = pure_atoms()
    with pytest.raises(ResourceLimitError):
        exact_expected_mistake(fa, 2_000_000, 3)


def test_mc_matches_exact_within_error():
    fa = tied_three_atoms()
    exact = exact_expected_mistake(fa, 3, 2)
    mean, stderr = mc_expected_mistake(fa, 3, 2, trials=20000, master_seed=5)
    assert stderr > 0.0
    assert abs(mean - exact) < 4.0 * stderr


def test_blocked_atomic_trials_match_single_trial_path():
    # finite-atomic trials are ranked a block of draws at a time; each value
    # must still be the single-trial statistic bit for bit.  Seen from atom 0,
    # k=2 and k=3 at n=5 cut through the atom-1/atom-2 distance tie; the
    # trial count leaves a partial last block, and start=100 an offset one.
    fa = tied_three_atoms()
    stop = _BLOCK_TRIALS + 37
    for n, k in [(5, 2), (5, 3), (5, 5), (1, 1)]:
        want = [trial_disagreement(fa, n, k, mix64(9, n, t)) for t in range(stop)]
        assert _trial_values(fa, n, k, 9, 0, stop) == want, (n, k)
        assert _trial_values(fa, n, k, 9, 100, stop) == want[100:], (n, k)
    with pytest.raises(ValueError):
        _trial_values(fa, 3, 4, 9, 0, 10)


def test_blocked_atomic_excess_matches_fit_predict_reference(monkeypatch):
    # the excess reads the blocked kernel's rows of wrong atoms; each trial
    # must still be the fit/predict value bit for bit.  23 trials leave a
    # partial last block; with 200 points a block, n = 40 runs in blocks of
    # five trials
    trials = 23
    for block_points in (harness._BLOCK_POINTS, 200):
        monkeypatch.setattr(harness, "_BLOCK_POINTS", block_points)
        for fa in (tied_three_atoms(), pure_atoms()):
            for n, k in [(1, 1), (5, 2), (5, 5), (40, 13)]:
                for mc_points in (1, 7, 500):
                    want = [atomic_excess(fa, n, k, mc_points, 3, t) for t in range(trials)]
                    got = estimate_expected_excess(fa, n, k, trials, mc_points, master_seed=3)
                    assert list(got.per_trial) == want, (block_points, n, k, mc_points)
    with pytest.raises(ValueError):
        estimate_expected_excess(tied_three_atoms(), 3, 4, 5, 7)


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
    assert chk.rhs == pytest.approx(chk.constant, rel=1e-12)
    assert chk.passed


def test_lower_bound_continuous_path():
    dist = disjoint_family()
    chk = run_lower_bound_trials(dist, 300, 10, trials=400, master_seed=0)
    assert chk.trials_used == 400
    assert chk.rhs > 0.0
    assert chk.lhs > chk.rhs  # huge slack at this scale
    assert chk.stderr > 0.0
    assert chk.passed


# -- excess and sweeps -----------------------------------------------------------


def test_estimate_expected_excess():
    pm = PowerMargin1D(1.0)
    est = estimate_expected_excess(pm, 200, 14, trials=8, mc_points=500, master_seed=6)
    assert len(est.per_trial) == 8
    assert est.mean == pytest.approx(sum(est.per_trial) / 8, rel=1e-12)
    assert est.mean >= 0.0
    assert est.stderr > 0.0
    again = estimate_expected_excess(pm, 200, 14, trials=8, mc_points=500, master_seed=6)
    assert est == again


def test_k_rules():
    assert KRule("fixed", k=7).k_for(100) == 7
    assert KRule("power", exponent=2.0 / 3.0).k_for(1000) == 100
    assert KRule("sqrt").k_for(50) == 8
    rule = KRule("rate_optimal", k_scale=1.0, alpha=1.0, delta=0.1)
    assert rule.k_for(1000) == 132
    assert KRule("rate_optimal", k_scale=1.0, alpha=1.0).k_for(1000) == 100
    with pytest.raises(ValueError):
        KRule("fixed", k=100).k_for(100)
    with pytest.raises(ValueError):
        KRule("fixed", k=0).k_for(100)
    with pytest.raises(ValueError):
        KRule("cube").k_for(100)


@pytest.mark.parametrize(
    "rule",
    [
        KRule("power", exponent=1e10),
        KRule("rate_optimal", k_scale=1e308),
        KRule("rate_optimal", delta=1e-320, k_scale=1e300),
    ],
    ids=["power", "k_scale", "delta"],
)
def test_k_rule_past_the_float_range_is_infeasible(rule):
    # these schedules used to overflow inside k_for and leak an OverflowError
    with pytest.raises(InfeasibleParametersError, match="float range"):
        rule.k_for(1000)


def test_rate_sweep_shape_and_fit():
    pm = PowerMargin1D(1.0)
    sweep = rate_sweep(pm, [50, 100, 200, 400], KRule("sqrt"), trials=6, mc_points=300)
    assert len(sweep.rows) == 4
    assert sweep.excluded == ()
    assert sweep.slope < 0.0  # excess risk must shrink with n
    assert math.isfinite(sweep.intercept)
    with pytest.raises(ValueError):
        rate_sweep(pm, [50, 100, 200], KRule("sqrt"), trials=4)
    with pytest.raises(ValueError):
        rate_sweep(pm, [50, 100, 100, 200], KRule("sqrt"), trials=4)


def test_consistency_sweep_trend():
    pm = PowerMargin1D(1.0)
    sweep = consistency_sweep(pm, [60, 240, 960], trials=12, mc_points=400, master_seed=1)
    assert len(sweep.rows) == 3
    assert all(r.median_excess >= 0.0 for r in sweep.rows)
    assert -1.0 <= sweep.spearman <= 0.0


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(3, 10)
    assert lo == pytest.approx(0.1078, abs=1e-4)
    assert hi == pytest.approx(0.6032, abs=1e-4)
    lo, hi = wilson_interval(0, 500)
    assert lo == 0.0
    assert hi == pytest.approx(3.841458820694124 / (500 + 3.841458820694124), rel=1e-9)
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
