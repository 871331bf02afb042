import json
import math

import pytest

from nnrates.cli import main


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
    assert float(values[3]) == pytest.approx(0.00303301718166, rel=1e-11)


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


def test_bounds_eval_infeasible(capsys):
    rc = run_cli(["bounds", "eval", "--theorem", "1", "--n", "100", "--k", "2", "--delta", "0.1"])
    assert rc == 2


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
    ):
        cfg = write_config(tmp_path, {"distribution": POWER_DIST, "output_dir": "out", **body})
        assert run_cli(["run", str(cfg)]) == 2, body
        assert not (tmp_path / "out").exists(), body
    # a rate_optimal rule needs delta in (0, 1), alpha > 0 and a finite
    # k_scale > 0; each bad value exits 2 with a message naming its key
    capsys.readouterr()
    for key, value in (
        ("delta", True), ("alpha", True), ("k_scale", True), ("delta", 0), ("delta", 1),
        ("delta", -1), ("alpha", -0.5), ("alpha", 0), ("k_scale", 0.0), ("k_scale", float("inf")),
    ):
        rule = {"kind": "rate_optimal", "delta": 0.1, key: value}
        body = {"experiments": [{**excess, "n": 200, "k": rule}]}
        cfg = write_config(tmp_path, {"distribution": POWER_DIST, "output_dir": "out", **body})
        assert run_cli(["run", str(cfg)]) == 2, (key, value)
        assert not (tmp_path / "out").exists(), (key, value)
        assert repr(key) in capsys.readouterr().err, (key, value)


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


def test_run_resource_limit_exit(tmp_path):
    # atomic lower-bound block forces the exact oracle past its
    # enumeration budget at run time
    metric = tmp_path / "m.txt"
    metric.write_text("2\n0 1\n1 0\n")
    cfg = write_config(tmp_path, {
        "distribution": {
            "family": "finite_atomic",
            "metric_file": "m.txt",
            "masses": [0.5, 0.5],
            "etas": [1.0, 0.0],
        },
        "output_dir": "out",
        "experiments": [{"type": "lower_bound", "n": 5_000_000, "k": 3}],
    })
    assert run_cli(["run", str(cfg)]) == 3


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


def test_analyze_boundary_bad_params(tmp_path):
    dist = write_config(tmp_path, POWER_DIST, name="dist.json")
    assert run_cli(["analyze", "boundary", "--dist", str(dist), "--p", "1.5", "--delta", "0.1"]) == 2
    assert run_cli(["analyze", "boundary", "--dist", str(dist), "--p", "0.2", "--delta", "0.7"]) == 2
    assert run_cli(["analyze", "boundary", "--dist", str(tmp_path / "nope.json"), "--p", "0.2", "--delta", "0.1"]) == 4


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2
