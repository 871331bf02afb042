"""End-to-end acceptance gate.

Each test here is one acceptance criterion, run at its stated tolerance
and (where stated) its runtime budget.  The suite prints one line per
criterion under ``pytest -v``.  Fixtures are the three stock families:

* ``disjoint``: pure labels, uniform marginal, classes split at 1/2
* ``power``:    linear label frequency eta(x) = x on [0, 1]
* two or three point masses with pure or mixed labels

Seeds are fixed so every run of this module is reproducible.
"""

import json
import time

import numpy as np
import pytest

from nnrates import (
    FiniteAtomic,
    FiniteMetric,
    KRule,
    MarginSpec,
    PiecewiseUniform1D,
    PowerMargin1D,
    SmoothnessSpec,
    ball_mass,
    binomial_tail,
    boundary_measure,
    consistency_sweep,
    estimate_expected_excess,
    exact_expected_mistake,
    expected_risk_bound,
    exponential_regime,
    high_error_classify,
    holder_translate,
    margin_mass,
    mc_expected_mistake,
    prob_radius,
    rate_sweep,
    region_classify,
    run_lower_bound_trials,
    run_upper_bound_trials,
    slud_bound,
    smooth_thresholds,
    smoothness_audit,
    upper_bound_params,
    zero_bayes_params,
)
from nnrates.cli import main as cli_main

SEED = 2026


def disjoint_family():
    return PiecewiseUniform1D(
        [0.5, 0.5], ([0.0, 0.5, 1.0], [2.0, 0.0]), ([0.0, 0.5, 1.0], [0.0, 2.0])
    )


def step_family():
    # label frequency 0.1 left of 1/2 and 0.9 right of it; uniform marginal
    return PiecewiseUniform1D(
        [0.5, 0.5], ([0.0, 0.5, 1.0], [1.8, 0.2]), ([0.0, 0.5, 1.0], [0.2, 1.8])
    )


def two_pure_atoms():
    return FiniteAtomic(FiniteMetric([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], [1.0, 0.0])


def mixed_atoms():
    space = FiniteMetric([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    return FiniteAtomic(space, [0.2, 0.3, 0.5], [0.9, 0.2, 0.6])


def test_c01_probability_radius_law():
    """Closed ball at the probability radius reaches at least the target mass."""
    start = time.perf_counter()
    families = [disjoint_family(), PowerMargin1D(1.0), mixed_atoms()]
    levels = [round(0.01 * i, 2) for i in range(1, 100)]
    worst = 1.0
    for dist in families:
        xs, _, _ = dist.sample_arrays(77, 100)
        for x in xs.tolist():
            for p in levels:
                r = prob_radius(dist, x, p)
                worst = min(worst, ball_mass(dist, x, r).value - p)
    elapsed = time.perf_counter() - start
    assert worst >= -1e-9, f"mass fell {-worst} below the level"
    assert elapsed < 10.0, f"radius-law sweep took {elapsed:.1f}s"
    print(f"criterion 01 PASS: worst mass margin {worst:.2e} in {elapsed:.1f}s")


def test_c02_boundary_nesting_and_closed_form():
    """Boundary mass grows with both knobs and matches 2*band*level exactly."""
    dist = disjoint_family()
    grid = [0.04 * i for i in range(1, 11)]
    measures = {}
    for p in grid:
        for band in grid:
            measures[(p, band)] = boundary_measure(dist, p, band)
    for i, p in enumerate(grid):
        for j, band in enumerate(grid):
            here = measures[(p, band)]
            if i + 1 < len(grid):
                up = measures[(grid[i + 1], band)]
                assert up.value >= here.value - (here.error_bound + up.error_bound + 1e-12)
            if j + 1 < len(grid):
                up = measures[(p, grid[j + 1])]
                assert up.value >= here.value - (here.error_bound + up.error_bound + 1e-12)
    checked = 0
    for t in range(10):
        for p, band in ((grid[t], grid[t]), (grid[t], grid[9 - t])):
            got = measures[(p, band)].value
            assert got == pytest.approx(2.0 * band * p, abs=1e-9)
            checked += 1
    assert checked == 20
    print("criterion 02 PASS: 10x10 grid monotone, 2*band*level exact at 20 points")


def test_c03_classifier_matches_exact_oracle():
    """Monte Carlo over trials reproduces the exact expected disagreement."""
    start = time.perf_counter()
    dist = two_pure_atoms()
    cases = {(1, 1): 0.5, (3, 1): 0.125, (3, 3): 0.5}
    for (n, k), expected in cases.items():
        assert exact_expected_mistake(dist, n, k) == pytest.approx(expected, abs=1e-12)
        mean, stderr = mc_expected_mistake(dist, n, k, 200_000, master_seed=SEED)
        assert mean == pytest.approx(expected, abs=3.0 * stderr + 1e-12), (
            f"(n={n}, k={k}): mc {mean} vs exact {expected}, stderr {stderr}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle-equivalence sweep took {elapsed:.1f}s"
    print(f"criterion 03 PASS: 3 configs x 2e5 trials within 3 stderr in {elapsed:.1f}s")


def test_c04_high_probability_bound_holds():
    """Per-trial disagreement stays under delta + boundary mass at the scheduled knobs."""
    start = time.perf_counter()
    report = run_upper_bound_trials(disjoint_family(), 10_000, 100, 0.1, 500, master_seed=SEED)
    elapsed = time.perf_counter() - start
    assert report.wilson_high <= 0.1 + 0.03, (
        f"violation frequency {report.violation_frequency} "
        f"(wilson upper {report.wilson_high}) exceeds 0.13"
    )
    assert elapsed < 300.0, f"500 trials took {elapsed:.1f}s"
    print(
        f"criterion 04 PASS: {sum(report.violated)}/500 violations, "
        f"wilson upper {report.wilson_high:.4f} <= 0.13 in {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_c05_expected_mistake_lower_bound():
    """Mean disagreement dominates constant * high-error mass at tight stderr."""
    start = time.perf_counter()
    check = run_lower_bound_trials(disjoint_family(), 10_000, 100, master_seed=SEED)
    elapsed = time.perf_counter() - start
    assert check.high_error_mass == pytest.approx(0.002, abs=1e-11)
    assert check.constant == pytest.approx(0.0030329, abs=5e-6)
    assert check.constant == pytest.approx(0.003033017181664055, rel=1e-12, abs=0.0)
    assert check.stderr <= check.rhs / 10.0, (
        f"stderr {check.stderr} above rhs/10 = {check.rhs / 10.0} "
        f"after {check.trials_used} trials"
    )
    assert check.lhs >= check.rhs, f"lhs {check.lhs} fell below rhs {check.rhs}"
    assert elapsed < 600.0, f"lower-bound run took {elapsed:.1f}s"
    print(
        f"criterion 05 PASS: lhs {check.lhs:.3e} >= rhs {check.rhs:.3e}, "
        f"stderr {check.stderr:.2e}, {check.trials_used} trials in {elapsed:.0f}s"
    )


def test_c06_margin_rate_slope():
    """Log-log excess-risk slope sits near -2/3 under the k ~ n^(2/3) schedule,
    and each mean excess stays under the expected-excess bound."""
    dist = PowerMargin1D(1.0)
    # eta(x) = x is 1-Lipschitz on a density floored at 1; mass{|eta - 1/2| <= t} = min(1, 2t)
    smooth = holder_translate(1.0, 1, 1.0, 1.0)
    for t in (0.0, 0.1, 0.25, 0.5, 0.75):
        assert margin_mass(dist, t) == min(1.0, 2.0 * t)
    margin = MarginSpec(1.0, 2.0)
    start = time.perf_counter()
    sweep = rate_sweep(
        dist,
        [500, 1500, 5000, 15000, 50000],
        KRule("power", exponent=2.0 / 3.0),
        trials=64,
        master_seed=SEED,
    )
    elapsed = time.perf_counter() - start
    assert sweep.excluded == ()
    assert -0.82 <= sweep.slope <= -0.52, f"slope {sweep.slope} outside [-0.82, -0.52]"
    assert elapsed < 1200.0, f"rate sweep took {elapsed:.1f}s"
    for row in sweep.rows:
        bound = expected_risk_bound(row.n, row.k, smooth, margin)
        assert row.mean_excess <= bound + 3.0 * row.stderr, (
            f"n={row.n}: mean excess {row.mean_excess} above bound {bound} + 3*{row.stderr}"
        )
    print(f"criterion 06 PASS: slope {sweep.slope:.4f} in [-0.82, -0.52] in {elapsed:.1f}s")


def test_c07_exponential_regime_bound():
    """Hard-margin schedule keeps empirical disagreement under 2 exp(-c n)."""
    dist = step_family()
    spec = SmoothnessSpec(1.0, 1.0)
    for n in (250, 500, 1000):
        regime = exponential_regime(0.4, spec, n)
        mean, stderr = mc_expected_mistake(dist, n, regime.k, 200, master_seed=SEED)
        assert mean <= regime.bound + 3.0 * stderr, (
            f"n={n}: mean {mean} above bound {regime.bound} + 3*{stderr}"
        )
        print(
            f"criterion 07 PASS at n={n}: mean {mean:.5f} <= "
            f"{regime.bound:.5f} + 3*{stderr:.5f} (k={regime.k})"
        )


def test_c08_zero_noise_schedule():
    """Pure-label mass level bounds violations and grows strictly with k."""
    report = run_upper_bound_trials(
        disjoint_family(), 200, 1, 0.1, 500, master_seed=SEED, schedule="zero_bayes"
    )
    assert report.wilson_high <= 0.1 + 0.03, (
        f"violation frequency {report.violation_frequency} "
        f"(wilson upper {report.wilson_high}) exceeds 0.13"
    )
    levels = [zero_bayes_params(200, k, 0.1) for k in range(1, 51)]
    assert all(b > a for a, b in zip(levels, levels[1:])), "mass level not strictly increasing in k"
    print(
        f"criterion 08 PASS: wilson upper {report.wilson_high:.4f} <= 0.13, "
        f"mass level strictly increasing on k=1..50"
    )


def test_c09_gaussian_tail_soundness():
    """Exact binomial upper tails dominate the Gaussian lower bound everywhere it applies."""
    start = time.perf_counter()
    applied = 0
    for n in range(1, 61):
        for qi in range(1, 11):
            q = qi / 20.0
            for count in range(0, n + 1):
                bound, clause = slud_bound(n, q, count)
                if clause == "inapplicable":
                    continue
                applied += 1
                tail = binomial_tail(n, q, count, "ge")
                assert tail >= bound - 1e-12, (
                    f"n={n} q={q} count={count}: tail {tail} < bound {bound} ({clause})"
                )
    medians = 0
    for n in range(2, 61):
        for k in range(1, n):
            medians += 1
            tail = binomial_tail(n, k / n, k + 1, "ge")
            assert tail <= 0.5 + 1e-12, f"n={n} k={k}: upper tail {tail} above 1/2"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"exhaustive tail sweep took {elapsed:.1f}s"
    print(
        f"criterion 09 PASS: {applied} tail bounds and {medians} median checks in {elapsed:.1f}s"
    )


def test_c10_smoothness_translation():
    """Certified ball-average smoothness pins Boundary verdicts to a pointwise band."""
    start = time.perf_counter()
    dist = PowerMargin1D(1.0)
    # eta(x) = x is 1-Lipschitz, and the density is floored at 1
    spec = holder_translate(1.0, 1, 1.0, 1.0)
    assert spec == SmoothnessSpec(1.0, 0.5)
    exponent, constant = spec.exponent, spec.constant
    rng = np.random.default_rng(7)
    audit_probes = [
        (float(x), float(r))
        for x, r in zip(rng.uniform(0.0, 1.0, 200), rng.uniform(1e-6, 0.3, 200))
    ]
    assert smoothness_audit(dist, exponent, constant, audit_probes) is None
    n, k = 10_000, 100
    params = upper_bound_params(n, k, 0.1)
    upper, lower = smooth_thresholds(spec, params.mass_level, params.band, n, k)
    assert upper == params.band + constant * params.mass_level**exponent
    probes = rng.uniform(1e-4, 1.0 - 1e-4, 1000)
    flagged = in_band = 0
    for x in probes.tolist():
        gap = abs(x - 0.5)  # eta(x) = x, so this is |eta - 1/2|
        verdict = region_classify(dist, x, params.mass_level, params.band)
        if verdict.verdict == "Boundary":
            flagged += 1
            assert gap <= upper + 1e-9, f"Boundary probe {x} has margin {gap} > {upper}"
        if 0.0 < gap <= lower:
            in_band += 1
            assert high_error_classify(dist, x, n, k).verdict, (
                f"probe {x} with margin {gap} <= {lower} escaped the high-error set"
            )
    elapsed = time.perf_counter() - start
    assert flagged > 0 and in_band > 0
    assert elapsed < 10.0, f"translation sweep took {elapsed:.1f}s"
    print(
        f"criterion 10 PASS: {flagged} Boundary probes within {upper:.4f}, "
        f"{in_band} narrow-margin probes in the high-error set, in {elapsed:.1f}s"
    )


def test_c11_consistency_trend():
    """Median excess risk decays strictly and ends small under k = ceil(sqrt(n))."""
    sweep = consistency_sweep(
        PowerMargin1D(1.0), [100, 1000, 10_000], trials=100, master_seed=SEED
    )
    medians = [row.median_excess for row in sweep.rows]
    assert all(b < a for a, b in zip(medians, medians[1:])), f"medians not decreasing: {medians}"
    assert medians[-1] <= 0.05, f"final median {medians[-1]} above 0.05"
    print(f"criterion 11 PASS: medians {[f'{m:.5f}' for m in medians]} strictly decreasing")


def test_c12_bitwise_determinism(tmp_path):
    """Identical config and seed reproduce every number bit for bit."""
    dist = PowerMargin1D(1.0)
    report_a = run_upper_bound_trials(dist, 400, 20, 0.3, 24, master_seed=SEED)
    excess_a = estimate_expected_excess(dist, 300, 9, 16, master_seed=SEED)
    report_b = run_upper_bound_trials(dist, 400, 20, 0.3, 24, master_seed=SEED)
    excess_b = estimate_expected_excess(dist, 300, 9, 16, master_seed=SEED)
    assert report_a.mistake_probs == report_b.mistake_probs
    assert excess_a.per_trial == excess_b.per_trial

    config = {
        "distribution": {"family": "power_margin_1d", "gamma": 1.0},
        "seed": SEED,
        "output_dir": "out",
        "experiments": [
            {"type": "upper_bound", "n": 400, "k": 20, "delta": 0.3, "trials": 24},
            {"type": "excess", "n": 300, "k": 9, "trials": 16},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", str(path)]) == 0
    first = {
        f.name: f.read_bytes() for f in (tmp_path / "out").iterdir() if f.name != "manifest.json"
    }
    assert cli_main(["run", str(path)]) == 0
    second = {
        f.name: f.read_bytes() for f in (tmp_path / "out").iterdir() if f.name != "manifest.json"
    }
    assert first == second and len(first) == 2
    print("criterion 12 PASS: reruns bitwise identical")
