"""The benchmark's three workloads: inputs made from a seed, operations, checks.

Every operation is one call of the user's entry point, `nnrates.cli.main`,
with the stdout the CLI prints captured and dropped.  `nnrates run` takes a
config with one experiment, so each experiment is timed on its own;
`nnrates analyze boundary` takes a distribution file.  Reports are written
as JSON into the operation's own directory and read back for the checks.

Importing this module imports nnrates; `Workload(...)` then writes the
inputs.  Together they are what the benchmark times as set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import nnrates.cli

DISJOINT = {
    "family": "piecewise_uniform_1d",
    "priors": [0.5, 0.5],
    "class0": {"breaks": [0.0, 0.5, 1.0], "densities": [2.0, 0.0]},
    "class1": {"breaks": [0.0, 0.5, 1.0], "densities": [0.0, 2.0]},
}
# five class-0 and four class-1 pieces with unequal priors: the scan meets
# many cells, pure and mixed labels and a label-0 gap inside class 1's support
MULTI_SEGMENT = {
    "family": "piecewise_uniform_1d",
    "priors": [0.4, 0.6],
    "class0": {
        "breaks": [0.0, 0.15, 0.4, 0.6, 0.85, 1.0],
        "densities": [2.0, 0.4, 2.0, 0.4, 0.6666666666666666],
    },
    "class1": {"breaks": [0.0, 0.2, 0.5, 0.7, 1.0], "densities": [0.5, 1.5, 0.0, 1.5]},
}
POWER_MARGIN = {"family": "power_margin_1d", "gamma": 1.0}
# three atoms with mixed labels (the acceptance suite's fixture) and two pure atoms
MIXED_ATOMS = ([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]], [0.2, 0.3, 0.5], [0.9, 0.2, 0.6])
PURE_ATOMS = ([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [1.0, 0.0])

NAMES = ("trials_large", "trials_small", "geometry_sweep")


@dataclass
class Op:
    """One CLI call; `trials` reads the trial count from its report."""

    name: str
    argv: list[str]
    report: Path
    trials: Optional[Callable[[dict], int]] = None
    expect_failure: bool = False


@dataclass
class Outcome:
    seconds: float
    error: Optional[str]
    data: Optional[bytes] = None

    @property
    def report(self) -> dict:
        return json.loads(self.data)


def run_op(op: Op) -> Outcome:
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = nnrates.cli.main(op.argv)
    except Exception as exc:  # a traceback a CLI user would see; counted as a failed operation
        return Outcome(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(seconds, f"exit code {code}")
    return Outcome(seconds, None, op.report.read_bytes())


class Workload:
    """Inputs under `root`, the operations of one round, and the checks."""

    def __init__(self, name: str, seed: int, root):
        self.name, self.seed, self.root = name, seed, Path(root)
        self.ops: list[Op] = []
        self.root.mkdir(parents=True, exist_ok=True)
        getattr(self, f"_build_{name}")()

    # -- input writers ---------------------------------------------------------

    def _write(self, name: str, payload) -> Path:
        path = self.root / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def _atoms(self, name: str, spec) -> dict:
        matrix, masses, etas = spec
        rows = "\n".join(" ".join(repr(v) for v in row) for row in matrix)
        self._write(f"{name}.txt", f"{len(matrix)}\n{rows}\n")
        return {"family": "finite_atomic", "metric_file": f"{name}.txt", "masses": masses, "etas": etas}

    def _run(self, name: str, dist: dict, experiment: dict, trials=None) -> None:
        config = {"distribution": dist, "seed": self.seed, "experiments": [experiment]}
        path = self._write(f"{name}.json", config)
        out = self.root / name
        argv = ["run", str(path), "--format", "json", "--output_dir", str(out)]
        self.ops.append(Op(name, argv, out / f"00_{experiment['type']}.json", trials))

    def _analyze(self, name: str, dist_file: str, p: float, band: float, expect_failure=False) -> None:
        out = self.root / name
        argv = [
            "analyze", "boundary", "--dist", str(self.root / dist_file), "--p", repr(p),
            "--delta", repr(band), "--format", "json", "--output_dir", str(out),
        ]
        self.ops.append(Op(name, argv, out / "boundary_verdicts.json", None, expect_failure))

    # -- trials_large ----------------------------------------------------------

    UPPER_LARGE = ((10_000, 100, 150), (50_000, 224, 50))  # (n, k, trials), delta 0.1
    LOWER_LARGE = ((10_000, 100, 150), (30_000, 173, 60))  # (n, k, trial cap)

    def _build_trials_large(self) -> None:
        for n, k, trials in self.UPPER_LARGE:
            experiment = {"type": "upper_bound", "n": n, "k": k, "delta": 0.1, "trials": trials}
            self._run(f"upper_n{n}", DISJOINT, experiment, _row_count)
        for n, k, cap in self.LOWER_LARGE:
            experiment = {"type": "lower_bound", "n": n, "k": k, "trials": cap}
            self._run(f"lower_n{n}", DISJOINT, experiment, _trials_used)

    def _check_trials_large(self, reports: dict[str, dict]) -> None:
        for n, k, trials in self.UPPER_LARGE:
            level, band = checks.schedule(n, k, 0.1)
            checks.check_upper(
                reports[f"upper_n{n}"], n=n, k=k, delta=0.1, trials=trials,
                boundary_mass=2.0 * band * min(1.0, level),
            )
        for n, k, cap in self.LOWER_LARGE:
            checks.check_lower(
                reports[f"lower_n{n}"], n=n, k=k, cap=cap, high_error_mass=2.0 * math.sqrt(k) / n
            )
        # both runs draw trial t from seed mix64(seed, n, t), so the lower bound's
        # mean is the mean of the upper-bound report's first `cap` masses
        n, k, cap = self.LOWER_LARGE[0]
        probs = reports[f"upper_n{n}"]["columns"]["mistake_prob"][:cap]
        lhs = reports[f"lower_n{n}"]["summary"]["lhs"]
        checks.require(checks.close(lhs, math.fsum(probs) / cap), "lhs != mean of the same trials")
        self._check_bruteforce(reports[f"upper_n{n}"], n, k)

    BRUTE_TRIALS = 3
    BRUTE_QUERIES = 400

    def _check_bruteforce(self, report: dict, n: int, k: int) -> None:
        dist = nnrates.load_distribution(DISJOINT)
        rng = np.random.default_rng([self.seed, 1])
        samples = []
        for t in range(self.BRUTE_TRIALS):
            xs, zs, ys = dist.sample_arrays(checks.mix64(self.seed, n, t), n)
            hits, window = checks.bruteforce_disjoint(xs, zs, ys, k, rng, self.BRUTE_QUERIES)
            sample = (hits, self.BRUTE_QUERIES, window, report["columns"]["mistake_prob"][t])
            checks.check_binomial([sample], z=5.0)
            samples.append(sample)
        checks.check_binomial(samples, z=5.0)

    # -- trials_small ----------------------------------------------------------

    ATOMIC = (40, 13, 0.1, 4000)  # n, k, delta, trials
    PURE_N = 20
    SMALL_1D = (300, 25, 2500)  # n, k, trial cap
    ANALYZE_ATOMS = (0.5, 0.45)  # p, band

    def _build_trials_small(self) -> None:
        mixed = self._atoms("mixed_atoms", MIXED_ATOMS)
        self._write("mixed_atoms_dist.json", mixed)
        pure = self._atoms("pure_atoms", PURE_ATOMS)
        n, k, delta, trials = self.ATOMIC
        self._run("upper_atoms", mixed,
                  {"type": "upper_bound", "n": n, "k": k, "delta": delta, "trials": trials}, _row_count)
        self._run("lower_atoms", mixed, {"type": "lower_bound", "n": n, "k": k})
        self._run("lower_pure_atoms", pure, {"type": "lower_bound", "n": self.PURE_N, "k": 1})
        n, k, cap = self.SMALL_1D
        self._run("lower_1d", DISJOINT, {"type": "lower_bound", "n": n, "k": k, "trials": cap},
                  _trials_used)
        # fails on every run while `analyze boundary` passes float probes to a
        # finite metric (cli.py builds them as float(i)); kept to show the fix
        self._analyze("analyze_atoms", "mixed_atoms_dist.json", *self.ANALYZE_ATOMS, expect_failure=True)

    def _check_trials_small(self, reports: dict[str, dict]) -> None:
        _, masses, etas = MIXED_ATOMS
        widest = max(abs(e - 0.5) for e in etas)
        n, k, delta, trials = self.ATOMIC
        _, band = checks.schedule(n, k, delta)
        # a band wider than every atom's margin fails at radius 0: all mass is boundary
        checks.require(band > widest, "the atomic upper bound's band must exceed every margin")
        checks.check_upper(reports["upper_atoms"], n=n, k=k, delta=delta, trials=trials, boundary_mass=1.0)
        checks.check_lower(reports["lower_atoms"], n=n, k=k, cap=None)
        checks.check_mc_matches_exact(
            reports["upper_atoms"]["columns"]["mistake_prob"], reports["lower_atoms"]["summary"]["lhs"]
        )
        # two pure atoms at k = 1: a query atom is misread only when every
        # training point sits on the other atom, so the mass is 0.5**n; with
        # 1/sqrt(k) = 1 every atom is in the high-error set
        checks.check_lower(
            reports["lower_pure_atoms"], n=self.PURE_N, k=1, cap=None,
            high_error_mass=1.0, lhs=0.5**self.PURE_N,
        )
        n, k, cap = self.SMALL_1D
        checks.check_lower(reports["lower_1d"], n=n, k=k, cap=cap, high_error_mass=2.0 * math.sqrt(k) / n)
        if "analyze_atoms" in reports:
            p, band = self.ANALYZE_ATOMS
            checks.require(band > widest, "the analyze band must exceed every margin")
            checks.check_analyze(reports["analyze_atoms"], p=p, band=band, probes=len(masses))
            checks.check_atomic_boundary(reports["analyze_atoms"], masses=masses)
            checks.require(reports["analyze_atoms"]["summary"]["boundary_mass"] == 1.0, "mass != 1")

    # -- geometry_sweep --------------------------------------------------------

    LEVELS = (0.05, 0.4)
    BANDS = (0.05, 0.25)
    FAMILIES = {"disjoint": DISJOINT, "multi": MULTI_SEGMENT, "power": POWER_MARGIN}
    RATE = ([500, 1500, 5000, 15_000, 50_000], 2.0 / 3.0, 128, 1000)  # grid, exponent, trials, mc
    CONSISTENCY = ([100, 1000, 10_000], 100, 2000)  # grid, trials, mc_points

    def _build_geometry_sweep(self) -> None:
        for family, dist in self.FAMILIES.items():
            self._write(f"{family}.json", dist)
            for p in self.LEVELS:
                for band in self.BANDS:
                    self._analyze(f"analyze_{family}_p{p}_b{band}", f"{family}.json", p, band)
        grid, exponent, trials, mc = self.RATE
        rule = {"kind": "power", "exponent": exponent}
        self._run("rate_sweep", POWER_MARGIN, {"type": "rate_sweep", "n_grid": grid, "k_rule": rule,
                  "trials": trials, "mc_points": mc}, _per_row(trials))
        grid, trials, mc = self.CONSISTENCY
        self._run("consistency", POWER_MARGIN, {"type": "consistency", "n_grid": grid,
                  "trials": trials, "mc_points": mc}, _per_row(trials))

    def _check_geometry_sweep(self, reports: dict[str, dict]) -> None:
        for family in self.FAMILIES:
            masses = {}
            for p in self.LEVELS:
                for band in self.BANDS:
                    rep = reports[f"analyze_{family}_p{p}_b{band}"]
                    checks.check_analyze(rep, p=p, band=band, probes=201)
                    if family == "disjoint":
                        checks.check_disjoint_boundary(rep, p=p, band=band)
                    elif family == "power":
                        checks.check_power_boundary(rep, p=p, band=band)
                    masses[(p, band)] = (rep["summary"]["boundary_mass"], rep["summary"]["mass_error_bound"])
            checks.check_boundary_monotone(masses)
        grid, exponent, _, _ = self.RATE
        checks.check_rate_sweep(reports["rate_sweep"], grid=grid, exponent=exponent)
        checks.check_consistency(reports["consistency"], grid=self.CONSISTENCY[0])

    def check(self, reports: dict[str, dict]) -> None:
        """Raise checks.CheckFailed unless every report is right."""
        getattr(self, f"_check_{self.name}")(reports)


def _row_count(report: dict) -> int:
    return len(report["columns"]["trial"])


def _trials_used(report: dict) -> int:
    return report["summary"]["trials_used"]


def _per_row(trials: int) -> Callable[[dict], int]:
    """Trial count of a sweep report that runs `trials` trials per row."""
    return lambda report: trials * len(report["columns"]["n"])
