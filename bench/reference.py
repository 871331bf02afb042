"""Reference figures for bench/README.md: per-stage cost of a 1-D trial, and
the default worker count against NNRATES_WORKERS=1.

    python3 bench/reference.py

Trials are `nnrates.mc_expected_mistake` on the disjoint family.  Stage
times come from the benchmark's spans with one worker, so stages do not
overlap; worker timings are untraced medians of alternating repeats.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nnrates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CASES = ((1000, 30, 2000), (10_000, 100, 400))  # n, k, trials
STAGES = (
    "rng.mix64",
    "rng.generator",
    "distributions.sample_arrays",
    "classifier.fit_arrays",
    "distributions.cdf_pair_array",
    "harness.mc_expected_mistake",
)
REPEATS = 5


def _trials_seconds(dist, n, k, trials, workers) -> float:
    if workers is None:
        os.environ.pop("NNRATES_WORKERS", None)
    else:
        os.environ["NNRATES_WORKERS"] = workers
    start = time.perf_counter()
    nnrates.mc_expected_mistake(dist, n, k, trials, master_seed=1)
    return time.perf_counter() - start


def main() -> None:
    dist = nnrates.load_distribution(workloads.DISJOINT)
    print("| n | k | " + " | ".join(STAGES) + " | total |")
    print("|---" * (len(STAGES) + 3) + "|")
    for n, k, trials in CASES:
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            _trials_seconds(dist, n, k, trials, "1")
            snap = tracer.snapshot()
        finally:
            tracer.restore()
        per_trial = [snap["self_s"].get(stage, 0.0) / trials * 1e6 for stage in STAGES]
        cells = " | ".join(f"{v:.1f}" for v in per_trial)
        print(f"| {n} | {k} | {cells} | {sum(per_trial):.1f} |")
    print()
    print(f"| n | k | default workers ({os.cpu_count()}) us/trial | NNRATES_WORKERS=1 us/trial |")
    print("|---|---|---|---|")
    for n, k, trials in CASES:
        runs = {None: [], "1": []}
        for i in range(REPEATS):
            for workers in ((None, "1") if i % 2 == 0 else ("1", None)):
                runs[workers].append(_trials_seconds(dist, n, k, trials, workers) / trials * 1e6)
        default, single = (statistics.median(runs[w]) for w in (None, "1"))
        print(f"| {n} | {k} | {default:.0f} | {single:.0f} |")


if __name__ == "__main__":
    main()
