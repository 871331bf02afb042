"""nnrates benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload trials_large --seed 1 --seconds 30 --trace 0

A closed loop with one client: rounds of the workload's operations run
back to back in this process until `--seconds` have passed, and the round
in progress is finished, so every run attempts whole rounds.  Every report
of the first round is checked; later rounds must reproduce it byte for
byte.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the entry points of
every module are wrapped in spans and the metrics are per layer.

Every time printed is given at a reference host speed: a fixed kernel that
does not touch nnrates is timed between rounds, and each round's times are
scaled by the kernel's reference time over its measured time next to that
round (see hostspeed.py).  The raw times go to the results file.

The program is imported from `src/` next to this directory; without it the
benchmark exits 2 before printing a result.  Details of each run go to
`bench/results/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_REPEATS = 9
KERNEL_REPEATS = 3  # reference-kernel passes in each gap between rounds

# a fresh interpreter imports nnrates and writes the inputs, timing both
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.Workload(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(time.perf_counter() - start)
"""


def _setup_seconds(workload: str, seed: int) -> float:
    root = tempfile.mkdtemp(dir=WORK)
    try:
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload, str(seed), root],
            check=True, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return float(out.stdout.split()[-1])


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import checks
    import hostspeed
    import spans
    import workloads

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    root = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload = workloads.Workload(workload_name, seed, root)
        rounds, errors, reference, setup = [], [], {}, []
        attempted = failed = 0
        hostspeed.kernel_seconds()  # warm-up pass, not used
        # kernel passes in every gap between rounds: gaps[i] and gaps[i + 1] frame round i
        gaps = [hostspeed.sample(KERNEL_REPEATS)]
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            before = tracer.snapshot() if tracer else None
            outcomes = {op.name: workloads.run_op(op) for op in workload.ops}
            after = tracer.snapshot() if tracer else None
            gaps.append(hostspeed.sample(KERNEL_REPEATS))
            trial_ops = [op for op in workload.ops if op.trials and not outcomes[op.name].error]
            row = {
                "op_s": {name: o.seconds for name, o in outcomes.items()},
                "wall_s": sum(o.seconds for o in outcomes.values()),
                "trials": sum(op.trials(outcomes[op.name].report) for op in trial_ops),
                "trial_s": sum(outcomes[op.name].seconds for op in trial_ops),
                "scale": hostspeed.scale(gaps[-2], gaps[-1]),
            }
            if tracer:
                row["layers"] = spans.layer_metrics(spans.difference(after, before))
            rounds.append(row)
            attempted += len(workload.ops)
            for op in workload.ops:
                outcome = outcomes[op.name]
                if outcome.error:
                    failed += 1
                    if not op.expect_failure:
                        errors.append(f"{op.name} failed: {outcome.error}")
                elif len(rounds) == 1:
                    reference[op.name] = outcome.data
                elif outcome.data != reference.get(op.name):
                    errors.append(f"{op.name}: round {len(rounds)} report differs from round 1")
            # set-up is timed between every other round, so that its median
            # samples the host over the whole run, as the rounds do
            if not trace and len(rounds) % 2 == 1 and len(setup) < SETUP_REPEATS:
                setup.append((_setup_seconds(workload_name, seed), hostspeed.scale(gaps[-1])))
            if len(rounds) == 1:
                try:
                    workload.check({name: json.loads(data) for name, data in reference.items()})
                except checks.CheckFailed as exc:
                    errors.append(f"check failed: {exc}")
        failures = {op.name: outcomes[op.name].error for op in workload.ops if outcomes[op.name].error}
        while not trace and len(setup) < SETUP_REPEATS:
            setup.append((_setup_seconds(workload_name, seed), hostspeed.scale(gaps[-1])))
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(root, ignore_errors=True)

    walls = [r["wall_s"] for r in rounds]
    kernel = [t for gap in gaps for t in gap]
    detail = {
        "rounds": len(rounds),
        "round_wall_s": walls,
        "round_scale": [r["scale"] for r in rounds],
        "round_trials": [r["trials"] for r in rounds],
        "op_median_s": _median_by_key([r["op_s"] for r in rounds]),
        "round_op_s": [r["op_s"] for r in rounds],
        "failures_last_round": failures,
        "setup_s": [s for s, _ in setup],
        "setup_scale": [k for _, k in setup],
        "kernel_s": kernel,
        "errors": errors,
    }
    # every time below is at the reference host speed (see hostspeed.py)
    if tracer:
        metrics = {}
        for key in rounds[0]["layers"]:
            scaled = key.endswith(("_s", ".s"))
            metrics[key] = statistics.median(r["layers"][key] * (r["scale"] if scaled else 1) for r in rounds)
        metrics["traced.wall_s"] = statistics.median(r["wall_s"] * r["scale"] for r in rounds)
        metrics["host.kernel_s"] = statistics.median(kernel)
        units = {name: "s" if name.endswith(("_s", ".s")) else "count" for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in rounds),
            # a round whose trial operations all failed has no rate (and fails the run)
            "trials_per_s": statistics.median(
                [r["trials"] / (r["trial_s"] * r["scale"]) for r in rounds if r["trial_s"] > 0] or [0.0]
            ),
            "setup_s": statistics.median(s * k for s, k in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nnrates" / "__init__.py").is_file():
        print(f"error: the nnrates source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    import numpy

    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        workers=os.environ.get("NNRATES_WORKERS", f"default ({os.cpu_count()})"),
        python=platform.python_version(), numpy=numpy.__version__, result=result,
    )
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=2) + "\n")
    for line in detail["errors"]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
