import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnrates.cli import _report, main


def run_cli(args):
    return main(list(args))


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


POWER_DIST = {"family": "power_margin_1d", "gamma": 1.0}


def test_bounds_eval_theorem1(capsys):
    rc = run_cli(["bounds", "eval", "--theorem", "1", "--n", "10000", "--k", "100", "--delta", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mass_level=0.0152943475927" in out
    assert "band=0.17308183826" in out
    assert "chernoff_slack=0.34616367652" in out


def test_bounds_eval_theorem3_csv(capsys):
    rc = run_cli(["bounds", "eval", "--theorem", "3", "--k", "100", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,wrong_vote,count_tail,product"
    values = lines[1].split(",")
    assert float(values[3]) == pytest.approx(0.00303301718166, rel=1e-11, abs=0.0)


def test_bounds_eval_theorem4(capsys):
    rc = run_cli([
        "bounds", "eval", "--theorem", "4", "--n", "1000",
        "--smooth_exponent", "1", "--smooth_constant", "1",
        "--margin_exponent", "1", "--margin_constant", "1", "--delta", "0.1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k=132" in out
    assert "mode=highprob" in out


def test_bounds_eval_exp_and_zero(capsys):
    rc = run_cli([
        "bounds", "eval", "--theorem", "exp", "--n", "1000",
        "--margin_floor", "0.4", "--smooth_exponent", "1", "--smooth_constant", "0.5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k=200" in out
    assert "rate_constant=0.008" in out
    rc = run_cli(["bounds", "eval", "--theorem", "zero", "--n", "100", "--k", "1", "--delta", "0.1"])
    assert rc == 0
    assert "mass_level=0.139110437622" in capsys.readouterr().out


def test_bounds_eval_missing_required(capsys):
    rc = run_cli(["bounds", "eval", "--theorem", "3"])
    assert rc == 2
    assert "required" in capsys.readouterr().err
    # theorem 1 read its flags unchecked: a missing one ended in a traceback
    given = {"--n": "100", "--k": "20", "--delta": "0.1"}
    for flag in given:
        argv = [part for f, v in given.items() if f != flag for part in (f, v)]
        assert run_cli(["bounds", "eval", "--theorem", "1", *argv]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, flag
        assert flag in err and "required" in err, flag


def test_bounds_eval_infeasible(capsys):
    rc = run_cli(["bounds", "eval", "--theorem", "1", "--n", "100", "--k", "2", "--delta", "0.1"])
    assert rc == 2


def test_bounds_eval_subnormal_delta(capsys):
    # 2/delta overflowed to inf: theorem 1 refused with "need k > inf",
    # and theorem zero printed mass_level=inf
    rc = run_cli(["bounds", "eval", "--theorem", "1", "--n", "100000", "--k", "5000", "--delta", "1e-320"])
    assert rc == 0
    assert "mass_level=0.215633601655" in capsys.readouterr().out
    rc = run_cli(["bounds", "eval", "--theorem", "zero", "--n", "10", "--k", "5", "--delta", "5e-324"])
    assert rc == 0
    assert "mass_level=299.052451667" in capsys.readouterr().out


def json_payload(report):
    columns = {name: [row[i] for row in report.rows] for i, name in enumerate(report.columns)}
    return {"columns": columns, "summary": report.summary}


def test_reports_render_as_json_and_csv_would():
    # JSON reports are laid out without json's encoder and must still be its
    # bytes: the values whose repr and 12-digit forms differ, an int past
    # int64, canonicalized bools, quotes, a backslash and non-ASCII text
    rows = [
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16],
        [123456789012.0, 2**63, True, False, 'say "hi" \\ back', "naïve ü 中"],
        [np.float64(1 / 3), np.int64(-7), 0.1, 1, 0.0, ""],
    ]
    summary = {
        "schedule": "confidence", "n": 40, "rate": np.float64(0.25), "count": np.int64(7),
        "passed": True, "none": None, "low": -math.inf, "big": 2**63,
    }
    report = _report(["a", "b", "c", "d", "e", "f"], rows, summary)
    assert [type(v) for v in report.rows[1][2:4]] == [int, int]
    assert report.to_json() == json.dumps(json_payload(report), indent=2) + "\n"
    assert report.to_csv() == (
        "a,b,c,d,e,f\n"
        "nan,inf,-inf,-0,4.94065645841e-324,1e+16\n"
        '123456789012,9223372036854775808,1,0,say "hi" \\ back,naïve ü 中\n'
        "0.333333333333,-7,0.1,1,0,\n"
        "# schedule=confidence n=40 rate=0.25 count=7 passed=1 none=None low=-inf big=9223372036854775808\n"
    )
    for empty in (_report(["a", "b"], [], {"trials": 0}), _report([], [], {})):
        assert empty.to_json() == json.dumps(json_payload(empty), indent=2) + "\n"


def test_run_excess_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "seed": 5,
        "output_dir": "out",
        "experiments": [
            {"type": "excess", "n": 120, "k": 9, "trials": 6, "mc_points": 200},
        ],
    })
    rc = run_cli(["run", str(cfg)])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert manifest["experiments"] == [{"index": 0, "type": "excess", "status": "ok"}]
    report = (tmp_path / "out" / "00_excess.csv").read_text()
    lines = report.strip().splitlines()
    assert lines[0] == "n,k,mean_excess,stderr"
    assert lines[1].startswith("120,9,")
    assert lines[-1].startswith("# ")
    # stdout carries the same manifest
    printed = json.loads(capsys.readouterr().out)
    assert printed["outputs"] == manifest["outputs"]


def test_run_accepts_and_ignores_mc_points(tmp_path, capsys):
    # excess trials are exact, so the mc_points key of older configs reaches
    # nothing: with and without it a run writes the same bytes.  The key is
    # still checked, and the --mc_points flag is gone
    blocks = [
        {"type": "excess", "n": 120, "k": 9, "trials": 6},
        {"type": "rate_sweep", "n_grid": [40, 60, 90, 135], "trials": 3},
        {"type": "consistency", "n_grid": [40, 90], "trials": 3},
    ]
    reports = []
    for extra, out in (({}, "plain"), ({"mc_points": 7}, "sampled")):
        body = {"distribution": POWER_DIST, "seed": 5, "output_dir": out,
                "experiments": [{**block, **extra} for block in blocks]}
        assert run_cli(["run", str(write_config(tmp_path, body, f"{out}.json"))]) == 0
        reports.append({f.name: f.read_bytes() for f in (tmp_path / out).glob("0*")})
    assert len(reports[0]) == 3 and reports[0] == reports[1]
    assert reports[0]["00_excess.csv"].decode().splitlines()[-1] == "# trials=6"
    body = {"distribution": POWER_DIST, "output_dir": "out", "experiments": [{**blocks[0], "mc_points": 0}]}
    assert run_cli(["run", str(write_config(tmp_path, body))]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["run", str(tmp_path / "plain.json"), "--mc_points", "5", "--output_dir", "flagged"])
    assert exit_info.value.code == 2
    assert "--mc_points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "flagged").exists()


def test_run_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "seed": 9,
        "output_dir": "out",
        "experiments": [
            {"type": "upper_bound", "n": 300, "k": 20, "delta": 0.3, "trials": 12},
            {"type": "excess", "n": 100, "k": 7, "trials": 5, "mc_points": 150},
        ],
    })
    assert run_cli(["run", str(cfg)]) == 0
    first = (tmp_path / "out" / "00_upper_bound.csv").read_bytes()
    first_excess = (tmp_path / "out" / "01_excess.csv").read_bytes()
    assert run_cli(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "00_upper_bound.csv").read_bytes() == first
    assert (tmp_path / "out" / "01_excess.csv").read_bytes() == first_excess


def test_run_ignores_the_removed_worker_variable(tmp_path, monkeypatch):
    # NNRATES_WORKERS once set the thread count; a value that is not a
    # number used to end a 1-D run in a traceback with nothing written
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "seed": 4,
        "output_dir": "out",
        "experiments": [{"type": "upper_bound", "n": 200, "k": 16, "delta": 0.4, "trials": 5}],
    })
    assert run_cli(["run", str(cfg)]) == 0
    want = (tmp_path / "out" / "00_upper_bound.csv").read_bytes()
    monkeypatch.setenv("NNRATES_WORKERS", "abc")
    assert run_cli(["run", str(cfg), "--output_dir", "out2"]) == 0
    assert (tmp_path / "out2" / "00_upper_bound.csv").read_bytes() == want


def test_run_json_format(tmp_path):
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "seed": 1,
        "output_dir": "out",
        "experiments": [{"type": "excess", "n": 80, "k": 5, "trials": 4, "mc_points": 100}],
    })
    assert run_cli(["run", str(cfg), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "out" / "00_excess.json").read_text())
    assert payload["columns"]["n"] == [80]
    assert payload["columns"]["k"] == [5]
    assert len(payload["columns"]["mean_excess"]) == 1
    assert "summary" in payload


def test_run_trial_columns(tmp_path):
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "seed": 2,
        "output_dir": "out",
        "experiments": [{"type": "upper_bound", "n": 200, "k": 16, "delta": 0.4, "trials": 7}],
    })
    assert run_cli(["run", str(cfg)]) == 0
    lines = (tmp_path / "out" / "00_upper_bound.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,n,k,delta,mistake_prob,bound,violated"
    assert len(lines) == 1 + 7 + 1
    assert "violation_frequency=" in lines[-1]
    assert "wilson_high=" in lines[-1]
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "200" and first[2] == "16"


def test_run_rejects_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", str(bad)]) == 2
    cfg = write_config(tmp_path, {"distribution": POWER_DIST, "experiments": []})
    assert run_cli(["run", str(cfg)]) == 2
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "experiments": [{"type": "mystery", "n": 10}],
    })
    assert run_cli(["run", str(cfg)]) == 2
    # JSON booleans load as Python bools, a subclass of int: a config that
    # asks for an integer must still refuse them, and write nothing
    excess = {"type": "excess", "n": 100, "k": 5, "trials": 3, "mc_points": 50}
    lower = {"type": "lower_bound", "n": 100, "k": 5, "trials": 3}
    for body in (
        {"seed": True, "experiments": [excess]},
        {"experiments": [{**excess, "trials": True}]},
        {"experiments": [{**excess, "mc_points": True}]},
        {"experiments": [{**lower, "trials": True}]},
        {"experiments": [{"type": "upper_bound", "n": 100, "k": 30, "delta": 10**400}]},  # no float holds it
    ):
        cfg = write_config(tmp_path, {"distribution": POWER_DIST, "output_dir": "out", **body})
        assert run_cli(["run", str(cfg)]) == 2, body
        assert not (tmp_path / "out").exists(), body
    # the config's seed and output_dir are checked where a flag overrides
    # them, and --trials where every block sets its own
    for body, flags in (
        ({"seed": "1"}, ["--master_seed", "3"]), ({"output_dir": 5}, ["--output_dir", "out"]), ({}, ["--trials", "0"]),
    ):
        cfg = write_config(tmp_path, {"distribution": POWER_DIST, "output_dir": "out", "experiments": [excess], **body})
        assert run_cli(["run", str(cfg), *flags]) == 2, flags
        assert not (tmp_path / "out").exists(), flags
    # a rate_optimal rule needs delta in (0, 1), alpha > 0 and a finite
    # k_scale > 0; each bad value exits 2 with a message naming its key
    capsys.readouterr()
    for key, value in (
        ("delta", True), ("alpha", True), ("k_scale", True), ("delta", 0), ("delta", 1),
        ("delta", -1), ("alpha", -0.5), ("alpha", 0), ("k_scale", 0.0), ("k_scale", float("inf")),
        ("k_scale", 10**400),
    ):
        rule = {"kind": "rate_optimal", "delta": 0.1, key: value}
        body = {"experiments": [{**excess, "n": 200, "k": rule}]}
        cfg = write_config(tmp_path, {"distribution": POWER_DIST, "output_dir": "out", **body})
        assert run_cli(["run", str(cfg)]) == 2, (key, value)
        assert not (tmp_path / "out").exists(), (key, value)
        assert repr(key) in capsys.readouterr().err, (key, value)
    # a sweep grid that is too short or does not increase is refused before
    # the block ahead of it runs, and so is a config file that is not UTF-8
    for kind, grid in (("rate_sweep", [20]), ("rate_sweep", [100, 50, 200, 400]), ("consistency", [100])):
        sweep = {"type": kind, "n_grid": grid, "trials": 2, "mc_points": 20}
        cfg = write_config(tmp_path, {"distribution": POWER_DIST, "output_dir": "out", "experiments": [excess, sweep]})
        assert run_cli(["run", str(cfg)]) == 2, (kind, grid)
        assert not (tmp_path / "out").exists(), (kind, grid)
        assert "strictly increasing" in capsys.readouterr().err
    cfg.write_bytes(b"\xff\xfe{}")
    assert run_cli(["run", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.startswith("error: config is not valid JSON")


def test_run_validation_failure_writes_nothing(tmp_path):
    # second block is infeasible, so even the first must not run
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "output_dir": "out",
        "experiments": [
            {"type": "excess", "n": 100, "k": 5, "trials": 3, "mc_points": 50},
            {"type": "upper_bound", "n": 100, "k": 2, "delta": 0.1, "trials": 3},
        ],
    })
    assert run_cli(["run", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_run_missing_config_is_io_error(tmp_path):
    assert run_cli(["run", str(tmp_path / "missing.json")]) == 4


def pure_atoms_lower_bound(tmp_path, n, k):
    (tmp_path / "m.txt").write_text("2\n0 1\n1 0\n")
    return write_config(tmp_path, {
        "distribution": {
            "family": "finite_atomic",
            "metric_file": "m.txt",
            "masses": [0.5, 0.5],
            "etas": [1.0, 0.0],
        },
        "output_dir": "out",
        "experiments": [{"type": "lower_bound", "n": n, "k": k}],
    })


def test_run_resource_limit_exit(tmp_path):
    # an atomic lower-bound block at k = 30,000 puts the exact oracle past
    # its term budget
    assert run_cli(["run", str(pure_atoms_lower_bound(tmp_path, 5_000_000, 30_000))]) == 3
    assert not (tmp_path / "out").exists()


def test_run_exact_oracle_at_five_million_points(tmp_path):
    # k = 3 at n = 5,000,000 once needed 5,000,001 occupancy vectors, past
    # the old budget; each query atom now holds 2.5 million points of its
    # own label, so the rule errs with probability 0
    cfg = pure_atoms_lower_bound(tmp_path, 5_000_000, 3)
    assert run_cli(["run", str(cfg), "--format", "json"]) == 0
    report = json.loads((tmp_path / "out" / "00_lower_bound.json").read_text())
    assert report["summary"]["lhs"] == 0.0
    # the lhs is the mean disagreement Pr(g_n(X) != g(X)), which the lower bound bounds
    assert list(report["columns"]) == ["n", "k", "mean_disagreement", "stderr"]


def test_run_refuses_a_sample_size_past_the_float_range(tmp_path):
    # the high-error measure divides by n as a float: at n = 10**400 it
    # raised OverflowError, a traceback; the exact oracle reads n as an
    # exact float, so it refuses n = 2**70, once refused by its old budget
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "output_dir": "out",
        "experiments": [{"type": "lower_bound", "n": 10**400, "k": 3}],
    })
    assert run_cli(["run", str(cfg)]) == 2
    assert run_cli(["run", str(pure_atoms_lower_bound(tmp_path, 2**70, 3))]) == 2
    assert not (tmp_path / "out").exists()


THREE_ATOMS = {
    "family": "finite_atomic",
    "metric_file": "m.txt",
    "masses": [0.2, 0.3, 0.5],
    "etas": [0.9, 0.2, 0.6],
}


def three_atoms_run(tmp_path, n, k):
    (tmp_path / "m.txt").write_text("3\n0 1 1\n1 0 2\n1 2 0\n")
    return write_config(tmp_path, {
        "distribution": THREE_ATOMS,
        "output_dir": "out",
        "experiments": [
            {"type": "upper_bound", "n": 200, "k": 13, "delta": 0.1, "trials": 20},
            {"type": "lower_bound", "n": n, "k": k},
        ],
    })


def test_run_refuses_an_oversized_enumeration_before_running(tmp_path):
    # the lower bound's exact oracle would need 4e9 terms at k = 20,000;
    # the refusal comes at validation, so the upper bound before it never
    # runs and no output directory appears
    assert run_cli(["run", str(three_atoms_run(tmp_path, 30_000, 20_000))]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "m.txt"]


def test_run_exact_oracle_at_three_thousand_points(tmp_path):
    # (3000, 13) once needed 4,504,501 occupancy vectors and was refused.
    # Fewer than 13 of 3,000 points land on an atom of mass 0.2 or more
    # with probability below 1e-200, so the 13 neighbors all carry the
    # query atom's own label frequency
    assert run_cli(["run", str(three_atoms_run(tmp_path, 3000, 13)), "--format", "json"]) == 0
    want = Fraction(0)
    for mass, eta in zip(THREE_ATOMS["masses"], THREE_ATOMS["etas"]):
        e = Fraction(eta)
        pmf = [math.comb(13, j) * e**j * (1 - e) ** (13 - j) for j in range(14)]
        want += Fraction(mass) * sum(pmf[:7] if eta >= 0.5 else pmf[7:])
    report = json.loads((tmp_path / "out" / "01_lower_bound.json").read_text())
    assert report["summary"]["lhs"] == pytest.approx(float(want), rel=1e-11, abs=0.0)


def test_run_failing_late_publishes_nothing(tmp_path, monkeypatch):
    # an error in the second experiment, after the first has run, leaves
    # neither a report nor a staging directory behind
    import nnrates.cli
    from nnrates.errors import ResourceLimitError

    def refuse(*args, **kwargs):
        raise ResourceLimitError("refused for the test")

    monkeypatch.setattr(nnrates.cli, "estimate_expected_excess", refuse)
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "output_dir": "out",
        "experiments": [
            {"type": "upper_bound", "n": 200, "k": 16, "delta": 0.4, "trials": 3},
            {"type": "excess", "n": 100, "k": 5, "trials": 3, "mc_points": 50},
        ],
    })
    assert run_cli(["run", str(cfg)]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_run_out_of_memory_publishes_nothing(tmp_path, monkeypatch, capsys):
    # a runner that runs out of memory exits 3 like any resource limit; the
    # MemoryError is raised, never allocated
    import nnrates.cli

    def exhaust(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(nnrates.cli, "estimate_expected_excess", exhaust)
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "output_dir": "out",
        "experiments": [
            {"type": "upper_bound", "n": 200, "k": 16, "delta": 0.4, "trials": 3},
            {"type": "excess", "n": 100, "k": 5, "trials": 3, "mc_points": 50},
        ],
    })
    assert run_cli(["run", str(cfg)]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    assert capsys.readouterr().err == "error: resource limit: out of memory\n"


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, {
        "distribution": POWER_DIST,
        "seed": 1,
        "output_dir": "out",
        "experiments": [{"type": "excess", "n": 90, "k": 6, "trials": 4, "mc_points": 120}],
    })
    assert run_cli(["run", str(cfg)]) == 0
    base = (tmp_path / "out" / "00_excess.csv").read_text()
    assert run_cli(["run", str(cfg), "--master_seed", "77", "--output_dir", "out2"]) == 0
    other = (tmp_path / "out2" / "00_excess.csv").read_text()
    assert base != other


def test_analyze_boundary_stdout(tmp_path, capsys):
    dist = write_config(tmp_path, POWER_DIST, name="dist.json")
    rc = run_cli(["analyze", "boundary", "--dist", str(dist), "--p", "0.2", "--delta", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "x,verdict,binding_radius"
    assert lines[1].startswith("0,InteriorMinus")
    assert lines[-1].startswith("# ")
    assert "boundary_mass=0.2" in lines[-1]
    # the strip (0.4, 0.6) must come out as boundary
    middle = [ln for ln in lines if ln.startswith("0.5,")]
    assert middle and "Boundary" in middle[0]


def test_analyze_boundary_to_file(tmp_path, capsys):
    dist = write_config(tmp_path, POWER_DIST, name="dist.json")
    rc = run_cli([
        "analyze", "boundary", "--dist", str(dist), "--p", "0.2", "--delta", "0.1",
        "--output_dir", str(tmp_path / "reports"),
    ])
    assert rc == 0
    target = tmp_path / "reports" / "boundary_verdicts.csv"
    assert target.exists()
    assert "boundary_mass=0.2" in target.read_text()


def test_analyze_boundary_finite_atoms(tmp_path, capsys):
    # the acceptance suite's three atoms; at p=0.4 atoms 0 and 1 reach
    # their neighbors and average to 0.54 and 0.48, inside the band, while
    # atom 2 holds mass 0.5 >= p alone at frequency 0.6
    (tmp_path / "m.txt").write_text("3\n0 1 1\n1 0 2\n1 2 0\n")
    masses = [0.2, 0.3, 0.5]
    dist = write_config(tmp_path, {
        "family": "finite_atomic",
        "metric_file": "m.txt",
        "masses": masses,
        "etas": [0.9, 0.2, 0.6],
    }, name="dist.json")
    rc = run_cli([
        "analyze", "boundary", "--dist", str(dist), "--p", "0.4", "--delta", "0.05", "--format", "json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["columns"]["x"] == [0, 1, 2]
    verdicts = report["columns"]["verdict"]
    assert verdicts == ["Boundary", "Boundary", "InteriorPlus"]
    marked = math.fsum(m for m, v in zip(masses, verdicts) if v == "Boundary")
    assert report["summary"]["boundary_mass"] == pytest.approx(marked, abs=1e-12)
    assert report["summary"]["mass_error_bound"] == 0.0


PIECEWISE_DIST = {
    "family": "piecewise_uniform_1d",
    "priors": [0.5, 0.5],
    "class0": {"breaks": [0.0, 0.5, 1.0], "densities": [2.0, 0.0]},
    "class1": {"breaks": [0.0, 0.5, 1.0], "densities": [0.0, 2.0]},
}
PURE_ATOMS = {"family": "finite_atomic", "metric_file": "m.txt", "masses": [0.5, 0.5], "etas": [1.0, 0.0]}


@pytest.mark.parametrize(
    "dist, code",
    [
        ({**POWER_DIST, "gamma": "x"}, 2),
        ({**PIECEWISE_DIST, "class0": [0, 1]}, 2),
        ({**PIECEWISE_DIST, "priors": [1.0]}, 2),
        ({**PIECEWISE_DIST, "priors": [None, 1.0]}, 2),
        ({**PURE_ATOMS, "metric_file": 3}, 2),
        ({**PURE_ATOMS, "masses": [10**400, 0.5]}, 2),
        ({**PURE_ATOMS, "etas": [math.nan, 0.0]}, 2),
        ({**PURE_ATOMS, "metric_file": "missing.txt"}, 4),
        ({**POWER_DIST, "gamm": 1.0}, 2),
    ],
    ids=[
        "gamma_string", "class_list", "one_prior", "null_prior", "metric_file_number",
        "mass_past_float", "nan_eta", "metric_file_missing", "unknown_key",
    ],
)
def test_malformed_distribution_exits_with_its_code(tmp_path, capsys, dist, code):
    # a malformed distribution field is a config error and an unreadable
    # metric file an I/O failure, on both commands that load a distribution,
    # with a message and no traceback
    (tmp_path / "m.txt").write_text("2\n0 1\n1 0\n")
    cfg = write_config(tmp_path, {
        "distribution": dist,
        "output_dir": "out",
        "experiments": [{"type": "excess", "n": 20, "k": 3, "trials": 2, "mc_points": 5}],
    })
    assert run_cli(["run", str(cfg)]) == code
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.startswith("error: ")
    path = write_config(tmp_path, dist, name="dist.json")
    assert run_cli(["analyze", "boundary", "--dist", str(path), "--p", "0.2", "--delta", "0.1"]) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_boundary_bad_params(tmp_path):
    dist = write_config(tmp_path, POWER_DIST, name="dist.json")
    assert run_cli(["analyze", "boundary", "--dist", str(dist), "--p", "1.5", "--delta", "0.1"]) == 2
    assert run_cli(["analyze", "boundary", "--dist", str(dist), "--p", "0.2", "--delta", "0.7"]) == 2
    assert run_cli(["analyze", "boundary", "--dist", str(tmp_path / "nope.json"), "--p", "0.2", "--delta", "0.1"]) == 4
    dist.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert run_cli(["analyze", "boundary", "--dist", str(dist), "--p", "0.2", "--delta", "0.1"]) == 2


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


# -- fuzzing the refusal path ----------------------------------------------------
#
# Whatever a config, a distribution file or a flag set holds, `main` returns
# one of the documented exit codes, and a run that fails publishes nothing.
# Sizes stay small (n <= 60, trials <= 3, mc_points <= 20) so every input
# that passes validation runs in milliseconds.

TWO_ATOMS = {"family": "finite_atomic", "metric_file": "m.txt", "masses": [0.5, 0.5], "etas": [0.9, 0.2]}
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.just([]), st.just({"kind": "fixed"})
)
NUMBERS = st.one_of(
    st.floats(), st.sampled_from([0.0, 0.5, 1.0, 1e10, 1e308, 1e-320, -1.0, 10**400]), st.integers(-2, 3)
)
K_RULES = st.one_of(
    st.integers(-2, 60),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["fixed", "power", "sqrt", "rate_optimal", "cube"])},
        optional={
            "k": st.one_of(st.integers(-2, 60), JUNK),
            **{key: st.one_of(NUMBERS, JUNK) for key in ("exponent", "k_scale", "alpha", "delta")},
        },
    ),
    JUNK,
)
BLOCK_FIELDS = {
    "type": st.one_of(st.sampled_from(["upper_bound", "lower_bound", "excess", "rate_sweep", "consistency"]), JUNK),
    "n": st.one_of(st.integers(-2, 60), JUNK),
    "k": K_RULES,
    "k_rule": K_RULES,
    "delta": st.one_of(NUMBERS, JUNK),
    "schedule": st.one_of(st.sampled_from(["confidence", "zero_bayes", "other"]), JUNK),
    "trials": st.one_of(st.integers(-1, 3), JUNK),
    "mc_points": st.one_of(st.integers(-1, 20), JUNK),
    "n_grid": st.one_of(st.lists(st.integers(-2, 60), max_size=5), JUNK),
}
SKELETONS = [
    {"type": "upper_bound", "n": 40, "k": 9, "delta": 0.3, "trials": 2},
    {"type": "lower_bound", "n": 30, "k": 3, "trials": 2},
    {"type": "excess", "n": 30, "k": 3, "trials": 2, "mc_points": 10},
    {"type": "rate_sweep", "n_grid": [10, 20, 30, 40], "trials": 2, "mc_points": 10},
    {"type": "consistency", "n_grid": [10, 20], "trials": 2, "mc_points": 10},
]


@st.composite
def fuzzed_blocks(draw):
    block = dict(draw(st.sampled_from(SKELETONS)))
    for key in draw(st.sets(st.sampled_from(sorted(BLOCK_FIELDS)), max_size=3)):
        # any key but trials may go missing: a lower bound without it sizes its own run
        if key != "trials" and draw(st.integers(0, 4)) == 0:
            block.pop(key, None)
        else:
            block[key] = draw(BLOCK_FIELDS[key])
    return block


RUN_CONFIGS = st.fixed_dictionaries(
    {
        "distribution": st.sampled_from([POWER_DIST, PIECEWISE_DIST, TWO_ATOMS]),
        "output_dir": st.just("out"),
        "experiments": st.lists(fuzzed_blocks(), min_size=1, max_size=2),
    },
    optional={"seed": st.one_of(st.integers(), JUNK)},
)


def sweep_config(kind, grid):
    block = {"type": kind, "n_grid": grid, "trials": 2, "mc_points": 10}
    return {"distribution": POWER_DIST, "output_dir": "out", "experiments": [block]}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(config=st.one_of(RUN_CONFIGS, st.binary(max_size=6)))
@example(config=b"\xff\xfe{}")
@example(config=sweep_config("rate_sweep", [100, 50, 200]))
@example(config=sweep_config("consistency", [100]))
@example(config={
    "distribution": POWER_DIST,
    "output_dir": "out",
    "experiments": [{"type": "excess", "n": 1000, "k": {"kind": "power", "exponent": 1e10}, "trials": 2}],
})
def test_fuzzed_run_configs_exit_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "m.txt").write_text("2\n0 1\n1 0\n")
        path = root / "config.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        code = run_cli(["run", str(path)])
        assert code in (0, 2, 3, 4)
        if code:  # neither the output directory nor a staging directory
            assert sorted(p.name for p in root.iterdir()) == ["config.json", "m.txt"]


FLAG_VALUES = {
    "n": st.one_of(st.integers(-2, 10**6), st.just(10**400)),
    "k": st.one_of(st.integers(-2, 10**6), st.just(10**400)),
    **{
        flag: st.one_of(st.floats(), NUMBERS)
        for flag in (
            "delta", "smooth_exponent", "smooth_constant", "margin_exponent",
            "margin_constant", "margin_floor", "k_scale", "c_scale",
        )
    },
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    theorem=st.sampled_from(["1", "3", "4", "exp", "zero"]),
    flags=st.fixed_dictionaries({}, optional=FLAG_VALUES),
)
@example(theorem="1", flags={"n": 100, "k": 20})
@example(theorem="4", flags={
    "n": 1000, "smooth_exponent": 1, "smooth_constant": 1, "margin_exponent": 1,
    "margin_constant": 1, "k_scale": math.inf,
})
@example(theorem="exp", flags={"n": 10000, "margin_floor": 0.5, "smooth_exponent": 1e-300, "smooth_constant": 1e-300})
def test_fuzzed_bounds_flags_exit_cleanly(theorem, flags):
    argv = [f"--{flag}={value!r}" for flag, value in flags.items()]
    assert run_cli(["bounds", "eval", "--theorem", theorem, *argv]) in (0, 2)


@st.composite
def fuzzed_distributions(draw):
    family = draw(st.sampled_from(["power", "piecewise", "atoms"]))
    if family == "power":
        dist, fuzz = dict(POWER_DIST), {"gamma": st.one_of(st.floats(0.0, 50.0), NUMBERS, JUNK)}
    elif family == "piecewise":
        cut, weight = draw(st.floats(0.01, 0.99)), draw(st.floats(0.0, 1.0))
        spec = {"breaks": [0.0, cut, 1.0], "densities": [weight / cut, (1.0 - weight) / (1.0 - cut)]}
        dist = {**PIECEWISE_DIST, "class1": spec}
        fuzz = {"class1": JUNK, "priors": st.one_of(st.lists(NUMBERS, max_size=3), JUNK)}
    else:
        mass = draw(st.floats(0.0, 1.0))
        etas = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
        dist = {**TWO_ATOMS, "masses": [mass, 1.0 - mass], "etas": etas}
        fuzz = {"masses": st.lists(NUMBERS, max_size=3), "etas": st.lists(NUMBERS, max_size=3), "metric_file": JUNK}
    for key in draw(st.sets(st.sampled_from(sorted(fuzz)))):
        dist[key] = draw(fuzz[key])
    return dist


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dist=st.one_of(fuzzed_distributions(), st.binary(max_size=6)),
    p=st.one_of(st.floats(0.0, 1.0), NUMBERS),
    band=st.one_of(st.floats(0.0, 0.5), NUMBERS),
)
@example(dist=b"\xff\xfe{}", p=0.2, band=0.1)
def test_fuzzed_distribution_files_exit_cleanly(dist, p, band):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "m.txt").write_text("2\n0 1\n1 0\n")
        path = root / "dist.json"
        path.write_bytes(dist if isinstance(dist, bytes) else json.dumps(dist).encode())
        argv = ["analyze", "boundary", "--dist", str(path), f"--p={p!r}", f"--delta={band!r}"]
        assert run_cli(argv) in (0, 2, 3, 4)


# -- the config schema -------------------------------------------------------------
#
# A key outside its object's table once went unread: "trails": 3 in an excess
# block ran 400 trials and exited 0.  Each case adds one such key, or moves a
# key to a block type that does not take it, behind a block that would run.

K_RULES_BY_KIND = [
    {"kind": "fixed", "k": 3}, {"kind": "power", "exponent": 0.5}, {"kind": "sqrt"},
    {"kind": "rate_optimal", "k_scale": 0.5},
]
BLOCK = {block["type"]: block for block in SKELETONS}


def run_config(blocks, dist=POWER_DIST):
    return {"distribution": dist, "output_dir": "out", "experiments": [BLOCK["excess"], *blocks]}


UNKNOWN_KEYS = [
    *[(b["type"], run_config([{**b, "trails": 3}]), "experiments[1]", "trails") for b in SKELETONS],
    *[
        (f"k_rule_{rule['kind']}", run_config([{**BLOCK["rate_sweep"], "k_rule": {**rule, "kidn": 1}}]),
         "experiments[1].k_rule", "kidn")
        for rule in K_RULES_BY_KIND
    ],
    ("root", {**run_config([]), "sede": 3}, "config", "sede"),
    *[
        (dist["family"], run_config([], {**dist, key: 1.0}), "distribution", key)
        for dist, key in ((POWER_DIST, "gamm"), (PIECEWISE_DIST, "prior"), (TWO_ATOMS, "mass"))
    ],
    ("class0", run_config([], {**PIECEWISE_DIST, "class0": {**PIECEWISE_DIST["class0"], "break": [0.0, 1.0]}}),
     "distribution.class0", "break"),
    ("k_rule_in_an_n_block", run_config([{**BLOCK["excess"], "k_rule": {"kind": "sqrt"}}]),
     "experiments[1]", "k_rule"),
    ("k_in_a_sweep", run_config([{**BLOCK["rate_sweep"], "k": 3}]), "experiments[1]", "k"),
    *[
        (f"mc_points_in_{kind}", run_config([{**BLOCK[kind], "mc_points": 10}]), "experiments[1]", "mc_points")
        for kind in ("upper_bound", "lower_bound")
    ],
]


@pytest.mark.parametrize("config, where, key", [case[1:] for case in UNKNOWN_KEYS], ids=[c[0] for c in UNKNOWN_KEYS])
def test_run_refuses_a_key_outside_its_table(tmp_path, capsys, config, where, key):
    (tmp_path / "m.txt").write_text("2\n0 1\n1 0\n")
    assert run_cli(["run", str(write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err == f"error: {where}: unknown key {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "m.txt"]


@pytest.mark.parametrize("value", [["excess"], {"kind": "sqrt"}], ids=["list", "object"])
@pytest.mark.parametrize(
    "tag, where, config",
    [
        ("type", "experiments[1]", lambda value: run_config([{**BLOCK["rate_sweep"], "type": value}])),
        ("kind", "experiments[1].k_rule",
         lambda value: run_config([{**BLOCK["rate_sweep"], "k_rule": {"kind": value}}])),
        ("family", "distribution", lambda value: run_config([], {**POWER_DIST, "family": value})),
    ],
    ids=["type", "kind", "family"],
)
def test_run_refuses_a_tag_that_is_not_a_string(tmp_path, capsys, tag, where, config, value):
    # a JSON list is unhashable, so looking one up in a table raises TypeError
    assert run_cli(["run", str(write_config(tmp_path, config(value)))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: {tag} must be one of ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
