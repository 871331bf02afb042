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

A report holds columns (name -> list of values).  Every number in it is
canonicalized to 12 significant digits at report construction, so CSV and
JSON renderings of a run agree exactly and reruns are byte-identical.
Canonicalizing and rendering go a column at a time (`_each_once`).  Only a
column of one type (`int`, `float` or `str`, as every trial column is) is
read once per distinct value, in C-level passes with no Python step per
cell; any other column is read cell by cell.  The argument parser is built
once a process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds
from ._schema import REQUIRED, check, fields, is_int, real
from .boundary import boundary_measure, region_verdicts
from .distributions import FiniteAtomic, load_distribution
from .errors import ResourceLimitError
from .harness import (
    KRule,
    _check_grid,
    _oracle_budget,
    consistency_sweep,
    estimate_expected_excess,
    rate_sweep,
    run_lower_bound_trials,
    run_upper_bound_trials,
)

__all__ = ["main"]

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
    out, a list's items through `_each_once`, and finite floats and ints
    are written with ``repr``, as json writes them.  Other scalars go to
    ``json.dumps`` without an indent, which gives the same bytes from
    json's one default encoder, where an indent builds a new encoder a
    call; anything else goes to json itself.
    """
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    if value is None or type(value) in (str, float):
        return json.dumps(value)
    inner = pad + "  "
    if type(value) is dict and value:
        items = [f"{json.dumps(key)}: {_json(v, inner)}" for key, v in value.items()]
    elif type(value) is list and value:
        items = _each_once(lambda v: _json(v, inner), value)
    else:
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    ends = "{}" if type(value) is dict else "[]"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _each_once(fn, values) -> list:
    """``[fn(v) for v in values]``; a column of one type calls fn once a distinct value.

    fn is `_canon`, or writes an `int` as ``repr`` does.  A column whose
    values all have one type, `int`, `float` or `str`, as every trial
    column's do, takes C-level passes with no Python step per cell.  One
    repeated nonempty value costs one call.  An int is its own canonical
    value, and ``repr`` writes it.  Otherwise ``set`` finds the distinct
    values, fn maps each, and ``map`` reads the results back; if no value
    repeats, fn maps the column itself.  The set keeps a float column's
    first zero, as 0.0 == -0.0, and a numpy pass gives the zeros of the
    other sign their own result.  Distinct NaN objects stay apart in a
    set, so a NaN costs at most a call.  Any other column is mapped cell
    by cell.
    """
    first = values[0] if values else None
    kind = type(first)
    if kind in (int, float, str) and list(map(type, values)).count(kind) == len(values):
        if first and values.count(first) == len(values):
            return [fn(first)] * len(values)
        if kind is int:
            return list(values) if fn is _canon else list(map(repr, values))
        distinct = set(values)
        if len(distinct) == len(values):
            return list(map(fn, values))
        done = dict(zip(distinct, map(fn, distinct)))
        out = list(map(done.__getitem__, values))
        if 0.0 in done:
            zero = values[values.index(0.0)]
            cells = np.fromiter(values, float, len(values))
            other = (cells == 0.0) & (np.signbit(cells) != np.signbit(zero))
            if other.any():
                out = np.array(out, dtype=object)
                out[other] = fn(-zero)
                out = out.tolist()
        return out
    return [fn(v) for v in values]


@dataclass
class Report:
    """Canonical columns and a summary, rendered a column at a time by `_each_once`."""

    columns: dict[str, list]  # each name's column, all of one length
    summary: dict

    def to_csv(self) -> str:
        cells = [_each_once(_fmt, column) for column in self.columns.values()]
        lines = [",".join(self.columns), *map(",".join, zip(*cells))]
        lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in self.summary.items()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return _json({"columns": self.columns, "summary": self.summary}) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _report(columns: dict, summary: dict) -> Report:
    canon_columns = {name: _each_once(_canon, column) for name, column in columns.items()}
    return Report(canon_columns, {k: _canon(v) for k, v in summary.items()})


# -- config parsing ------------------------------------------------------------


def _read_json(path: Path, what: str):
    """The JSON document in ``path``; a file that is not UTF-8 JSON is a ValueError."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def _parse_k_rule(raw, where: str, key: str) -> KRule:
    """A k rule: an integer k, or an object whose kind names its keys in `_K_RULES`."""
    if isinstance(raw, dict):
        return KRule(**fields(raw, _K_RULES, f"{where}.{key}", "kind"))
    return KRule("fixed", k=check(is_int, "an integer or an object")(raw, where, key))


# the keys of each config object, each with its check and its default
_INT = check(is_int, "an integer")
_COUNT = check(lambda v: is_int(v) and v >= 1, "a positive integer")
_STRING = check(lambda v: isinstance(v, str), "a string")
_FINITE, _POSITIVE = real("a finite number"), real("a finite number > 0", 0.0)
_K_RULES = {
    "fixed": {"k": (_INT, REQUIRED)},
    "power": {"exponent": (_FINITE, REQUIRED)},
    "sqrt": {},
    "rate_optimal": {
        "k_scale": (_POSITIVE, 1.0),
        "alpha": (_POSITIVE, 1.0),
        "delta": (real("a number in (0, 1)", 0.0, 1.0), None),
    },
}
_GRID = check(lambda v: isinstance(v, list) and all(is_int(n) and n >= 2 for n in v), "a list of integers >= 2")
# mc_points is read by nothing, since excess trials are exact; the benchmark's sweep configs carry it
_TRIALS, _MC_POINTS = (_COUNT, None), (_COUNT, None)
_N_BLOCK = {"n": (_INT, REQUIRED), "k": (_parse_k_rule, REQUIRED), "trials": _TRIALS}
_SWEEP = {"n_grid": (_GRID, REQUIRED), "k_rule": (_parse_k_rule, KRule("sqrt")),
          "trials": _TRIALS, "mc_points": _MC_POINTS}
_BLOCKS = {
    "upper_bound": {**_N_BLOCK, "delta": (_FINITE, REQUIRED), "schedule": (_STRING, "confidence")},
    "lower_bound": _N_BLOCK,  # without trials, the harness sizes the run
    "excess": {**_N_BLOCK, "mc_points": _MC_POINTS},
    "rate_sweep": _SWEEP,
    "consistency": _SWEEP,
}
_ROOT = {
    "distribution": (lambda value, where, key: value, REQUIRED),  # load_distribution reads it
    "seed": (_INT, 0),
    "output_dir": (_STRING, "reports"),
    "experiments": (check(lambda v: isinstance(v, list) and v, "a nonempty list"), REQUIRED),
}


def _validate_experiment(i: int, block, dist, trials: int, seed: int):
    """(type, runner) of one experiment block, checked before anything runs; runner() reports."""
    spec = fields(block, _BLOCKS, f"experiments[{i}]", "type")
    kind, trials = spec["type"], trials if spec["trials"] is None else spec["trials"]

    if kind in ("rate_sweep", "consistency"):
        n_grid, rule = spec["n_grid"], spec["k_rule"]
        _check_grid(n_grid, "rate" if kind == "rate_sweep" else "consistency")
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
            names = ("n", "k", "mean_excess", "stderr")
            return _report({name: [getattr(r, name) for r in sweep.rows] for name in names}, summary)

        return kind, run_sweep

    n, k = spec["n"], spec["k"].k_for(spec["n"])

    if kind == "upper_bound":
        delta, schedule = spec["delta"], spec["schedule"]
        bounds._upper_schedule(n, k, delta, schedule)  # the run's own refusal, before any output exists

        def run_upper():
            rep = run_upper_bound_trials(dist, n, k, delta, trials, seed, schedule)
            t = len(rep.mistake_probs)
            columns = {
                "trial": list(range(t)),
                "n": [rep.n] * t,
                "k": [rep.k] * t,
                "delta": [rep.delta] * t,
                "mistake_prob": rep.mistake_probs,
                "bound": [rep.bound] * t,
                "violated": rep.violated,
            }
            summary = {
                "schedule": rep.schedule,
                "boundary_mass": rep.boundary_mass,
                "violation_frequency": rep.violation_frequency,
                "wilson_low": rep.wilson_low,
                "wilson_high": rep.wilson_high,
            }
            return _report(columns, summary)

        return kind, run_upper

    if kind == "lower_bound":
        if isinstance(dist, FiniteAtomic):
            _oracle_budget(dist, k)  # refuses past the exact oracle's budget, before anything runs

        def run_lower():
            chk = run_lower_bound_trials(dist, n, k, spec["trials"], seed)
            summary = {
                "lhs": chk.lhs,
                "rhs": chk.rhs,
                "stderr": chk.stderr,
                "trials_used": chk.trials_used,
                "high_error_mass": chk.high_error_mass,
                "constant": chk.constant,
                "passed": int(chk.passed),
            }
            columns = {"n": [chk.n], "k": [chk.k], "mean_disagreement": [chk.lhs], "stderr": [chk.stderr]}
            return _report(columns, summary)

        return kind, run_lower

    def run_excess():
        est = estimate_expected_excess(dist, n, k, trials, seed)
        columns = {"n": [est.n], "k": [est.k], "mean_excess": [est.mean], "stderr": [est.stderr]}
        return _report(columns, {"trials": trials})

    return kind, run_excess


# -- subcommand: run -----------------------------------------------------------


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    config = _read_json(config_path, "config")
    root = fields(config, _ROOT, "config")
    dist = load_distribution(root["distribution"], base_dir=config_path.parent)
    seed = root["seed"] if args.master_seed is None else args.master_seed
    out_dir = args.output_dir or root["output_dir"]
    if args.trials < 1:
        raise ValueError("--trials must be a positive integer")
    plans = [_validate_experiment(i, b, dist, args.trials, seed) for i, b in enumerate(root["experiments"])]

    out_path = Path(out_dir)
    if not out_path.is_absolute():
        out_path = config_path.parent / out_path
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    ext = args.format
    # reports are staged beside the output directory and moved in only
    # once every experiment has run, the manifest last: a failed run
    # publishes nothing
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=f".{out_path.name}-", dir=out_path.parent, ignore_cleanup_errors=True
    ) as staging_dir:
        staging = Path(staging_dir)
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
        text = _json(manifest)
        (staging / "manifest.json").write_text(text + "\n")
        out_path.mkdir(exist_ok=True)
        for name in [*names, "manifest.json"]:
            os.replace(staging / name, out_path / name)
    print(text)
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
        raise ValueError(f"theorem {kind}: {', '.join(missing)} required")
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
    verdicts = region_verdicts(dist, probes, args.p, args.delta)
    columns = {
        "x": probes,
        "verdict": [v.verdict for v in verdicts],
        "binding_radius": ["" if v.binding_radius is None else v.binding_radius for v in verdicts],
    }
    mass = boundary_measure(dist, args.p, args.delta)
    summary = {
        "p": args.p,
        "delta": args.delta,
        "boundary_mass": mass.value,
        "mass_error_bound": mass.error_bound,
    }
    report = _report(columns, summary)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnrates",
        description="Nearest-neighbor risk bounds: experiments, formulas, region analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the experiment blocks in a JSON config")
    run_p.add_argument("config", help="path to the experiment config file")
    run_p.add_argument("--master_seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=400)
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
