"""Command-line front end.

Subcommands:
  run <config.json>        execute the experiment blocks in a config file
  bounds eval --theorem T  evaluate closed-form guarantee parameters
  analyze boundary ...     classify probe points and report boundary mass

Every refusal takes one path: a command raises, and `main` prints one
`error: ` line and maps the exception to an exit code.  0 is success; 2 an
invalid argument, config or parameter (any `ValueError`: the library's
refusals, undecodable JSON, a config error); 3 a `ResourceLimitError` (the
exact oracle's term budget) or exhausted memory; 4 an I/O failure (`OSError`).
A refusal that comes up mid-run exits the same way, and a run that fails
publishes nothing.  Observed bound violations are data, never an exit code.

All numbers in reports are canonicalized to 12 significant digits at
report construction, so CSV and JSON renderings of a run agree exactly
and reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds
from .boundary import boundary_measure, region_verdicts
from .distributions import FiniteAtomic, load_distribution
from .errors import ResourceLimitError
from .harness import (
    KRule,
    _check_grid,
    _oracle_groups,
    consistency_sweep,
    estimate_expected_excess,
    rate_sweep,
    run_lower_bound_trials,
    run_upper_bound_trials,
)

__all__ = ["main"]

_EXPERIMENT_TYPES = ("upper_bound", "lower_bound", "excess", "rate_sweep", "consistency")


def _canon(value):
    """Canonical 12-significant-digit value for report payloads."""
    if type(value) is float:
        return float(f"{value:.12g}") if math.isfinite(value) else value
    if isinstance(value, (int, np.integer)):  # a bool too
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _canon(float(value))
    return value


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested at indent pad.

    With an indent, json encodes in pure Python, several calls a value.
    Here a dict (with string keys) or a list is laid out as json lays it
    out, and its finite floats and ints are written with ``repr``, as json
    writes them; anything else goes to json itself.
    """
    inner = pad + "  "
    if type(value) is dict and value:
        items = [f"{json.dumps(key)}: {_json(v, inner)}" for key, v in value.items()]
    elif type(value) is list and value:
        items = [
            repr(v) if type(v) is int or type(v) is float and math.isfinite(v) else _json(v, inner)
            for v in value
        ]
    elif type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    else:
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    ends = "{}" if type(value) is dict else "[]"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class Report:
    columns: list[str]
    rows: list[list]
    summary: dict

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(_fmt(v) for v in row) for row in self.rows]
        lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in self.summary.items()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "columns": {
                name: [row[i] for row in self.rows] for i, name in enumerate(self.columns)
            },
            "summary": self.summary,
        }
        return _json(payload) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _report(columns, rows, summary) -> Report:
    canon_rows = [[_canon(v) for v in row] for row in rows]
    canon_summary = {k: _canon(v) for k, v in summary.items()}
    return Report(list(columns), canon_rows, canon_summary)


# -- config parsing ------------------------------------------------------------


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    """True for JSON integers; JSON booleans load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is float and _is_int(value) and abs(value) <= sys.float_info.max:
        value = float(value)  # an integer past the float range stays one, and is refused
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _parse_k_rule(raw, where: str) -> KRule:
    if _is_int(raw):
        return KRule("fixed", k=raw)
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: k rule must be an integer or an object")
    kind = _require(raw, "kind", str, where)
    if kind == "fixed":
        return KRule("fixed", k=_require(raw, "k", int, where))
    if kind == "power":
        return KRule("power", exponent=_require(raw, "exponent", float, where))
    if kind == "sqrt":
        return KRule("sqrt")
    if kind == "rate_optimal":

        def number(key: str, default, upper: float, span: str):
            value = raw.get(key, default)
            if value is None:
                return None
            numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not numeric or not 0.0 < value < upper:
                raise ConfigError(f"{where}: rate_optimal key {key!r} must be a number {span}")
            return float(value)

        return KRule(
            "rate_optimal",
            k_scale=number("k_scale", 1.0, sys.float_info.max, "> 0 and finite"),
            alpha=number("alpha", 1.0, sys.float_info.max, "> 0 and finite"),
            delta=number("delta", None, 1.0, "in (0, 1)"),
        )
    raise ConfigError(f"{where}: unknown k rule kind {kind!r}")


def _parse_n_grid(raw, where: str) -> list[int]:
    if not isinstance(raw, list) or not all(_is_int(v) and v >= 2 for v in raw):
        raise ConfigError(f"{where}: n_grid must be a list of integers >= 2")
    return raw


def _read_json(path: Path, what: str):
    """The JSON document in ``path``; a file that is not UTF-8 JSON is a ConfigError."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _validate_experiment(i: int, block, dist, defaults: dict):
    """(type, runner) of one experiment block, checked before anything runs; runner() reports."""
    where = f"experiments[{i}]"
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be an object")
    kind = _require(block, "type", str, where)
    if kind not in _EXPERIMENT_TYPES:
        raise ConfigError(f"{where}: unknown type {kind!r}")
    trials = block.get("trials", defaults["trials"])
    mc_points = block.get("mc_points", 1)  # accepted and ignored: excess trials are exact
    seed = defaults["master_seed"]
    if not _is_int(trials) or trials < 1:
        raise ConfigError(f"{where}: trials must be a positive integer")
    if not _is_int(mc_points) or mc_points < 1:
        raise ConfigError(f"{where}: mc_points must be a positive integer")

    if kind in ("rate_sweep", "consistency"):
        n_grid = _parse_n_grid(block.get("n_grid"), where)
        _check_grid(n_grid, "rate" if kind == "rate_sweep" else "consistency")
        rule = _parse_k_rule(block.get("k_rule", {"kind": "sqrt"}), where)
        for n in n_grid:
            rule.k_for(n)  # raises on an out-of-range k before anything runs

        def run_sweep():
            if kind == "rate_sweep":
                sweep = rate_sweep(dist, n_grid, rule, trials, seed)
                summary = {
                    "slope": sweep.slope,
                    "intercept": sweep.intercept,
                    "excluded": ";".join(str(n) for n in sweep.excluded) or "none",
                }
            else:
                sweep = consistency_sweep(dist, n_grid, rule, trials, seed)
                summary = {"spearman": sweep.spearman}
                summary.update((f"median_{r.n}", r.median_excess) for r in sweep.rows)
            rows = [[r.n, r.k, r.mean_excess, r.stderr] for r in sweep.rows]
            return _report(["n", "k", "mean_excess", "stderr"], rows, summary)

        return kind, run_sweep

    n = _require(block, "n", int, where)
    k = _parse_k_rule(block.get("k", block.get("k_rule")), where).k_for(n)

    if kind == "upper_bound":
        delta = _require(block, "delta", float, where)
        schedule = block.get("schedule", "confidence")
        bounds._upper_schedule(n, k, delta, schedule)  # the run's own refusal, before any output exists

        def run_upper():
            rep = run_upper_bound_trials(dist, n, k, delta, trials, seed, schedule)
            rows = [
                [t, rep.n, rep.k, rep.delta, p, rep.bound, v]
                for t, (p, v) in enumerate(zip(rep.mistake_probs, rep.violated))
            ]
            summary = {
                "schedule": rep.schedule,
                "boundary_mass": rep.boundary_mass,
                "violation_frequency": rep.violation_frequency,
                "wilson_low": rep.wilson_low,
                "wilson_high": rep.wilson_high,
            }
            cols = ["trial", "n", "k", "delta", "mistake_prob", "bound", "violated"]
            return _report(cols, rows, summary)

        return kind, run_upper

    if kind == "lower_bound":
        cap = block.get("trials")  # validated above; absent, the harness sizes the run
        if isinstance(dist, FiniteAtomic):
            _oracle_groups(dist, k)  # refuses past the exact oracle's budget, before anything runs

        def run_lower():
            chk = run_lower_bound_trials(dist, n, k, cap, seed)
            rows = [[chk.n, chk.k, chk.lhs, chk.stderr]]
            summary = {
                "lhs": chk.lhs,
                "rhs": chk.rhs,
                "stderr": chk.stderr,
                "trials_used": chk.trials_used,
                "high_error_mass": chk.high_error_mass,
                "constant": chk.constant,
                "passed": int(chk.passed),
            }
            return _report(["n", "k", "mean_excess", "stderr"], rows, summary)

        return kind, run_lower

    def run_excess():
        est = estimate_expected_excess(dist, n, k, trials, seed)
        rows = [[est.n, est.k, est.mean, est.stderr]]
        summary = {"trials": trials}
        return _report(["n", "k", "mean_excess", "stderr"], rows, summary)

    return kind, run_excess


# -- subcommand: run -----------------------------------------------------------


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    config = _read_json(config_path, "config")
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    dist = load_distribution(config.get("distribution"), base_dir=config_path.parent)
    seed = args.master_seed if args.master_seed is not None else config.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("config: 'seed' must be an integer")
    out_dir = args.output_dir or config.get("output_dir", "reports")
    if not isinstance(out_dir, str):
        raise ConfigError("config: 'output_dir' must be a string")
    blocks = config.get("experiments")
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("config: 'experiments' must be a nonempty list")
    defaults = {
        "trials": args.trials if args.trials is not None else 400,
        "master_seed": seed,
    }
    plans = [_validate_experiment(i, b, dist, defaults) for i, b in enumerate(blocks)]

    out_path = Path(out_dir)
    if not out_path.is_absolute():
        out_path = config_path.parent / out_path
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    ext = args.format
    # reports are staged beside the output directory and moved in only
    # once every experiment has run, the manifest last: a failed run
    # publishes nothing
    staging = None
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{out_path.name}-", dir=out_path.parent))
        names = [f"{i:02d}_{kind}.{ext}" for i, (kind, _) in enumerate(plans)]
        for name, (_, runner) in zip(names, plans):
            (staging / name).write_text(runner().render(ext))
        manifest = {
            "config": config,
            "master_seed": seed,
            "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": [str(out_path / name) for name in names],
            "experiments": [
                {"index": i, "type": kind, "status": "ok"} for i, (kind, _) in enumerate(plans)
            ],
        }
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        out_path.mkdir(exist_ok=True)
        for name in [*names, "manifest.json"]:
            os.replace(staging / name, out_path / name)
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    print(json.dumps(manifest, indent=2))
    return 0


# -- subcommand: bounds eval ---------------------------------------------------


# the flags each theorem's evaluation reads, and may not do without
_THEOREM_FLAGS = {
    "1": ("n", "k", "delta"),
    "3": ("k",),
    "4": ("n", "smooth_exponent", "smooth_constant", "margin_exponent", "margin_constant"),
    "exp": ("n", "margin_floor", "smooth_exponent", "smooth_constant"),
    "zero": ("n", "k", "delta"),
}


def _bounds_pairs(args) -> list[tuple[str, object]]:
    kind = args.theorem
    missing = [f"--{flag}" for flag in _THEOREM_FLAGS[kind] if getattr(args, flag) is None]
    if missing:
        raise ConfigError(f"theorem {kind}: {', '.join(missing)} required")
    # each result's own fields, after the flags a theorem echoes
    if kind == "1":
        return list(vars(bounds.upper_bound_params(args.n, args.k, args.delta)).items())
    if kind == "3":
        return [("k", args.k), *vars(bounds.lower_bound_constants(args.k)).items()]
    if kind == "4":
        smooth = bounds.SmoothnessSpec(args.smooth_exponent, args.smooth_constant)
        margin = bounds.MarginSpec(args.margin_exponent, args.margin_constant)
        result = bounds.margin_rate(args.n, smooth, margin, args.delta, args.k_scale, args.c_scale)
        return [("n", args.n), *result._asdict().items()]
    if kind == "exp":
        smooth = bounds.SmoothnessSpec(args.smooth_exponent, args.smooth_constant)
        regime = bounds.exponential_regime(args.margin_floor, smooth, args.n)
        return [("n", args.n), *regime._asdict().items()]
    # kind == "zero"
    level = bounds.zero_bayes_params(args.n, args.k, args.delta)
    return [("n", args.n), ("k", args.k), ("delta", args.delta), ("mass_level", level)]


def _cmd_bounds_eval(args) -> int:
    pairs = [(k, _canon(v)) for k, v in _bounds_pairs(args)]
    if args.format == "csv":
        print(",".join(k for k, _ in pairs))
        print(",".join(_fmt(v) for _, v in pairs))
    else:
        for k, v in pairs:
            print(f"{k}={_fmt(v)}")
    return 0


# -- subcommand: analyze boundary ----------------------------------------------


def _cmd_analyze_boundary(args) -> int:
    dist_path = Path(args.dist)
    dist = load_distribution(_read_json(dist_path, "distribution file"), base_dir=dist_path.parent)

    if isinstance(dist, FiniteAtomic):
        probes = list(range(dist.space.size))
    else:
        probes = np.linspace(0.0, 1.0, 201).tolist()
    rows = [
        [_canon(x), v.verdict, "" if v.binding_radius is None else _canon(v.binding_radius)]
        for x, v in zip(probes, region_verdicts(dist, probes, args.p, args.delta))
    ]
    mass = boundary_measure(dist, args.p, args.delta)
    summary = {
        "p": args.p,
        "delta": args.delta,
        "boundary_mass": mass.value,
        "mass_error_bound": mass.error_bound,
    }
    report = _report(["x", "verdict", "binding_radius"], rows, summary)
    rendered = report.render(args.format)
    if args.output_dir:
        out_path = Path(args.output_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        target = out_path / f"boundary_verdicts.{args.format}"
        target.write_text(rendered)
        print(str(target))
    else:
        sys.stdout.write(rendered)
    return 0


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnrates",
        description="Nearest-neighbor risk bounds: experiments, formulas, region analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the experiment blocks in a JSON config")
    run_p.add_argument("config", help="path to the experiment config file")
    run_p.add_argument("--master_seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--output_dir", default=None)
    run_p.set_defaults(func=_cmd_run)

    bounds_p = sub.add_parser("bounds", help="closed-form guarantee evaluation")
    bounds_sub = bounds_p.add_subparsers(dest="bounds_command", required=True)
    eval_p = bounds_sub.add_parser("eval", help="print guarantee parameters as key=value")
    eval_p.add_argument("--theorem", required=True, choices=tuple(_THEOREM_FLAGS))
    eval_p.add_argument("--n", type=int, default=None)
    eval_p.add_argument("--k", type=int, default=None)
    eval_p.add_argument("--delta", type=float, default=None)
    eval_p.add_argument("--smooth_exponent", type=float, default=None)
    eval_p.add_argument("--smooth_constant", type=float, default=None)
    eval_p.add_argument("--margin_exponent", type=float, default=None)
    eval_p.add_argument("--margin_constant", type=float, default=None)
    eval_p.add_argument("--margin_floor", type=float, default=None)
    eval_p.add_argument("--k_scale", type=float, default=1.0)
    eval_p.add_argument("--c_scale", type=float, default=1.0)
    eval_p.add_argument("--format", choices=("csv", "keyvalue"), default="keyvalue")
    eval_p.set_defaults(func=_cmd_bounds_eval)

    analyze_p = sub.add_parser("analyze", help="distribution-dependent region analysis")
    analyze_sub = analyze_p.add_subparsers(dest="analyze_command", required=True)
    boundary_p = analyze_sub.add_parser("boundary", help="classify probes against the effective boundary")
    boundary_p.add_argument("--dist", required=True, help="JSON distribution config file")
    boundary_p.add_argument("--p", type=float, required=True)
    boundary_p.add_argument("--delta", type=float, required=True, help="interior band width")
    boundary_p.add_argument("--format", choices=("csv", "json"), default="csv")
    boundary_p.add_argument("--output_dir", default=None)
    boundary_p.set_defaults(func=_cmd_analyze_boundary)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # argparse exits 2 on bad arguments, which matches the contract
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        code, text = 2, str(exc)
    except (ResourceLimitError, MemoryError) as exc:
        code, text = 3, f"resource limit: {str(exc) or 'out of memory'}"
    except OSError as exc:
        code, text = 4, f"I/O failure: {exc}"
    print(f"error: {text}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
