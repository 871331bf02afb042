"""Each check accepts the program's real output and rejects a deliberately wrong value."""

import copy
import json
import math

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed
from nnrates import load_distribution
from nnrates._rng import mix64
from nnrates.cli import main

SEED = 5


def cli_report(tmp_path, name, argv_tail, dist=workloads.DISJOINT, experiment=None):
    out = tmp_path / name
    if experiment is not None:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"distribution": dist, "seed": SEED, "experiments": [experiment]}))
        assert main(["run", str(config), "--format", "json", "--output_dir", str(out)]) == 0
        return json.loads((out / f"00_{experiment['type']}.json").read_text())
    dist_file = tmp_path / f"{name}_dist.json"
    dist_file.write_text(json.dumps(dist))
    argv = ["analyze", "boundary", "--dist", str(dist_file), *argv_tail, "--format", "json"]
    assert main([*argv, "--output_dir", str(out)]) == 0
    return json.loads((out / "boundary_verdicts.json").read_text())


def rejects(check, report, mutate, **kwargs):
    bad = copy.deepcopy(report)
    mutate(bad)
    with pytest.raises(CheckFailed):
        check(bad, **kwargs)


@pytest.fixture(scope="module")
def upper(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("upper")
    n, k = 2000, 30
    rep = cli_report(tmp, "upper", None, experiment={
        "type": "upper_bound", "n": n, "k": k, "delta": 0.1, "trials": 40})
    level, band = checks.schedule(n, k, 0.1)
    return rep, dict(n=n, k=k, delta=0.1, trials=40, boundary_mass=2 * band * level)


def test_upper_check(upper):
    rep, args = upper
    checks.check_upper(rep, **args)

    def shift_mass(r):
        r["summary"]["boundary_mass"] *= 1.1

    def flip_flag(r):
        r["columns"]["violated"][3] = 1

    def move_wilson(r):
        r["summary"]["wilson_high"] += 0.01

    def violate_everything(r):
        r["columns"]["mistake_prob"] = [0.9] * args["trials"]
        r["columns"]["violated"] = [1] * args["trials"]
        r["summary"]["violation_frequency"] = 1.0
        r["summary"]["wilson_low"], r["summary"]["wilson_high"] = checks.wilson(40, 40)

    for mutate in (shift_mass, flip_flag, move_wilson, violate_everything):
        rejects(checks.check_upper, rep, mutate, **args)


@pytest.fixture(scope="module")
def lower(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lower")
    n, k, cap = 300, 25, 400
    rep = cli_report(tmp, "lower", None, experiment={"type": "lower_bound", "n": n, "k": k, "trials": cap})
    return rep, dict(n=n, k=k, cap=cap, high_error_mass=2 * math.sqrt(k) / n)


def test_lower_check(lower):
    rep, args = lower
    checks.check_lower(rep, **args)

    def shift_mass(r):
        r["summary"]["high_error_mass"] *= 1.01

    def shift_constant(r):
        r["summary"]["constant"] *= 1.01

    def sink_lhs(r):
        s = r["summary"]
        s["lhs"] = s["rhs"] - 4 * s["stderr"]

    def stop_early(r):
        r["summary"]["trials_used"] = args["cap"] - 1  # stderr is far above rhs/10

    for mutate in (shift_mass, shift_constant, sink_lhs, stop_early):
        rejects(checks.check_lower, rep, mutate, **args)


@pytest.fixture(scope="module")
def atoms(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("atoms")
    workloads.Workload("trials_small", SEED, tmp)  # writes the atom metric files
    mixed = json.loads((tmp / "mixed_atoms_dist.json").read_text())
    mixed["metric_file"] = str(tmp / mixed["metric_file"])
    pure = {"family": "finite_atomic", "metric_file": str(tmp / "pure_atoms.txt"),
            "masses": [0.5, 0.5], "etas": [1.0, 0.0]}
    upper = cli_report(tmp, "upper", None, mixed,
                       {"type": "upper_bound", "n": 40, "k": 13, "delta": 0.1, "trials": 4000})
    exact = cli_report(tmp, "exact", None, mixed, {"type": "lower_bound", "n": 40, "k": 13})
    pure_rep = cli_report(tmp, "pure", None, pure, {"type": "lower_bound", "n": 10, "k": 1})
    return upper, exact, pure_rep


def test_mc_against_exact_oracle(atoms):
    upper, exact, _ = atoms
    values = upper["columns"]["mistake_prob"]
    lhs = exact["summary"]["lhs"]
    checks.check_mc_matches_exact(values, lhs)
    _, stderr = checks.mean_stderr(values)
    for wrong in (lhs - 10 * stderr, lhs + 10 * stderr):
        with pytest.raises(CheckFailed):
            checks.check_mc_matches_exact(values, wrong)


def test_exact_oracle_closed_form(atoms):
    _, exact, pure = atoms
    checks.check_lower(exact, n=40, k=13, cap=None)
    args = dict(n=10, k=1, cap=None, high_error_mass=1.0, lhs=0.5**10)
    checks.check_lower(pure, **args)

    def off_by_ulps(r):
        r["summary"]["lhs"] *= 1 + 1e-8

    def flip_passed(r):
        r["summary"]["passed"] = 1 - r["summary"]["passed"]

    for mutate in (off_by_ulps, flip_passed):
        rejects(checks.check_lower, pure, mutate, **args)


def _sweep(means, slope):
    grid = [500, 1500, 5000, 15000, 50000]
    rows = {"n": grid, "k": [math.ceil(n ** (2 / 3)) for n in grid], "mean_excess": means,
            "stderr": [0.0] * len(grid)}
    return {"columns": rows, "summary": {"slope": slope, "intercept": 0.0, "excluded": "none"}}, grid


def test_rate_sweep_check():
    grid = [500, 1500, 5000, 15000, 50000]
    good, _ = _sweep([2.0 * n ** -0.67 for n in grid], -0.67)
    checks.check_rate_sweep(good, grid=grid, exponent=2 / 3)
    shallow, _ = _sweep([2.0 * n ** -0.4 for n in grid], -0.4)
    with pytest.raises(CheckFailed):
        checks.check_rate_sweep(shallow, grid=grid, exponent=2 / 3)
    with pytest.raises(CheckFailed):  # the summary slope does not fit the rows
        checks.check_rate_sweep(_sweep(good["columns"]["mean_excess"], -0.6)[0], grid=grid, exponent=2 / 3)


def test_consistency_check():
    grid = [100, 1000, 10000]
    rows = {"n": grid, "k": [10, 32, 100], "mean_excess": [0.02, 0.007, 0.002], "stderr": [0, 0, 0]}
    good = {"columns": rows, "summary": {"spearman": -1, "median_100": 0.02, "median_1000": 0.007,
                                          "median_10000": 0.002}}
    checks.check_consistency(good, grid=grid)

    def stall(r):
        r["summary"]["median_10000"] = 0.007

    rejects(checks.check_consistency, good, stall, grid=grid)


@pytest.mark.parametrize("family", ["disjoint", "power"])
def test_boundary_closed_forms(tmp_path, family):
    dist = workloads.Workload.FAMILIES[family]
    check = checks.check_disjoint_boundary if family == "disjoint" else checks.check_power_boundary
    p, band = 0.2, 0.25
    rep = cli_report(tmp_path, family, ["--p", str(p), "--delta", str(band)], dist)
    checks.check_analyze(rep, p=p, band=band, probes=201)
    check(rep, p=p, band=band)

    def shift_mass(r):
        r["summary"]["boundary_mass"] += 1e-6

    def flip_verdict(r):
        r["columns"]["verdict"][100] = "InteriorPlus"  # x = 1/2 is always Boundary

    for mutate in (shift_mass, flip_verdict):
        rejects(check, rep, mutate, p=p, band=band)


def test_boundary_monotone_check():
    grid = {(p, b): (2 * p * b, 1e-12) for p in (0.05, 0.2, 0.4) for b in (0.05, 0.25)}
    checks.check_boundary_monotone(grid)
    grid[(0.4, 0.25)] = (0.01, 1e-12)
    with pytest.raises(CheckFailed):
        checks.check_boundary_monotone(grid)


def test_atomic_boundary_check():
    rep = {"columns": {"verdict": ["Boundary", "InteriorMinus", "Boundary"]},
           "summary": {"boundary_mass": 0.7}}
    checks.check_atomic_boundary(rep, masses=[0.2, 0.3, 0.5])
    rep["summary"]["boundary_mass"] = 1.0
    with pytest.raises(CheckFailed):
        checks.check_atomic_boundary(rep, masses=[0.2, 0.3, 0.5])


def test_mix64_matches_the_seed_contract():
    for parts in [(0,), (2026, 10_000, 7), (1 << 70, 3, 5, 1)]:
        assert checks.mix64(*parts) == mix64(*parts)


def test_bruteforce_knn(tmp_path):
    n, k, trials, queries = 1000, 25, 3, 400
    rep = cli_report(tmp_path, "upper", None, experiment={
        "type": "upper_bound", "n": n, "k": k, "delta": 0.1, "trials": trials})
    dist = load_distribution(workloads.DISJOINT)
    rng = np.random.default_rng(0)
    samples = []
    for t in range(trials):
        xs, zs, ys = dist.sample_arrays(checks.mix64(SEED, n, t), n)
        hits, window = checks.bruteforce_disjoint(xs, zs, ys, k, rng, queries)
        samples.append((hits, queries, window, rep["columns"]["mistake_prob"][t]))
    checks.check_binomial(samples, z=5.0)
    for scale in (0.0, 3.0):
        wrong = [(h, q, w, v * scale) for h, q, w, v in samples]
        with pytest.raises(CheckFailed):
            checks.check_binomial(wrong, z=5.0)


def test_knn_labels_break_ties_by_draw_then_index():
    xs = np.array([0.4, 0.6, 0.6, 0.4])
    zs = np.array([0.5, 0.1, 0.1, 0.2])
    ys = np.array([0, 1, 0, 0], dtype=np.int8)
    # from 0.5 all four are at distance 0.1; z orders them 1, 2, 3, 0 and
    # index breaks the tie between points 1 and 2
    assert checks.knn_labels(xs, zs, ys, 1, np.array([0.5]))[0] == 1
    assert checks.knn_labels(xs, zs, ys, 3, np.array([0.5]))[0] == 0


def test_trial_counts_follow_each_sweep_config(tmp_path):
    wl = workloads.Workload("geometry_sweep", SEED, tmp_path)
    ops = {op.name: op for op in wl.ops}
    for name, (grid, trials) in {
        "rate_sweep": (wl.RATE[0], wl.RATE[2]),
        "consistency": (wl.CONSISTENCY[0], wl.CONSISTENCY[1]),
    }.items():
        config = json.loads((tmp_path / f"{name}.json").read_text())["experiments"][0]
        assert config["trials"] == trials
        assert ops[name].trials({"columns": {"n": grid}}) == trials * len(grid)
