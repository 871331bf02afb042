"""Output checks for the benchmark, computed apart from the program.

Each check takes a parsed report (the JSON that `nnrates run` or
`nnrates analyze boundary` writes: ``{"columns": {...}, "summary": {...}}``)
plus the inputs the benchmark gave the program, and raises `CheckFailed`
when the report disagrees with a closed form, a property the method must
have, or a brute-force recomputation.  Nothing here imports nnrates.

Reports carry 12 significant digits, so equalities use a relative
tolerance of 1e-9 and an absolute one of 1e-9 on masses.
"""

from __future__ import annotations

import math

import numpy as np

_WILSON_Z = 1.959963984540054
_MASK64 = (1 << 64) - 1
REL = 1e-9
ABS = 1e-9


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL, abs_: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# -- closed forms from the paper's statements -----------------------------------


def schedule(n: int, k: int, delta: float) -> tuple[float, float]:
    """(mass level, band) of the high-probability bound at (n, k, delta)."""
    log_term = math.log(2.0 / delta)
    mass_level = (k / n) / (1.0 - math.sqrt(4.0 * log_term / k))
    return mass_level, min(0.5, math.sqrt(log_term / k))


def normal_cdf(a: float) -> float:
    return 0.5 * math.erfc(-a / math.sqrt(2.0))


def lower_bound_constant(k: int) -> float:
    """(1/2 - Phi(-1/sqrt 3)) * (1 - Phi(2 + 2/sqrt k)), the lower bound's constant."""
    return (0.5 - normal_cdf(-1.0 / math.sqrt(3.0))) * (1.0 - normal_cdf(2.0 + 2.0 / math.sqrt(k)))


def wilson(successes: int, total: int) -> tuple[float, float]:
    phat = successes / total
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2.0 * total)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / total + z2 / (4.0 * total**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mean_stderr(values) -> tuple[float, float]:
    count = len(values)
    mean = math.fsum(values) / count
    var = math.fsum((v - mean) ** 2 for v in values) / (count - 1)
    return mean, math.sqrt(var / count)


# -- experiment reports -----------------------------------------------------------


def check_upper(rep: dict, *, n: int, k: int, delta: float, trials: int, boundary_mass: float) -> None:
    """An `upper_bound` report: shape, the boundary term, flags, Wilson bound <= delta + 0.03."""
    cols, summary = rep["columns"], rep["summary"]
    require(cols["trial"] == list(range(trials)), "trial column is not 0..trials-1")
    require(set(cols["n"]) == {n} and set(cols["k"]) == {k}, "n or k column differs from the config")
    require(
        close(summary["boundary_mass"], boundary_mass, abs_=ABS),
        f"boundary mass {summary['boundary_mass']} != closed form {boundary_mass}",
    )
    bound = delta + boundary_mass
    require(all(close(b, bound, abs_=ABS) for b in cols["bound"]), f"bound column != {bound}")
    probs, flags = cols["mistake_prob"], cols["violated"]
    require(all(0.0 <= p <= 1.0 for p in probs), "a mistake probability lies outside [0, 1]")
    for p, flag in zip(probs, flags):
        if abs(p - bound) > ABS:
            require(flag == int(p > bound), f"violation flag {flag} wrong for mass {p} vs {bound}")
    hits = sum(flags)
    require(close(summary["violation_frequency"], hits / trials), "violation frequency != flag mean")
    low, high = wilson(hits, trials)
    require(
        close(summary["wilson_low"], low, abs_=1e-12) and close(summary["wilson_high"], high),
        f"Wilson interval {summary['wilson_low']}, {summary['wilson_high']} != {low}, {high}",
    )
    require(high <= delta + 0.03, f"Wilson upper bound {high} on violations exceeds delta + 0.03")


def check_lower(
    rep: dict,
    *,
    n: int,
    k: int,
    cap: int | None,
    high_error_mass: float | None = None,
    lhs: float | None = None,
) -> None:
    """A `lower_bound` report: constant, rhs, the stopping rule and lhs >= rhs - 3 stderr.

    ``cap`` is None for finite-atomic runs, which use the exact oracle.
    ``high_error_mass`` and ``lhs`` are closed forms where the family has one.
    """
    s = rep["summary"]
    require(close(s["constant"], lower_bound_constant(k)), f"constant {s['constant']} wrong for k={k}")
    if high_error_mass is not None:
        require(
            close(s["high_error_mass"], high_error_mass, abs_=ABS),
            f"high-error mass {s['high_error_mass']} != closed form {high_error_mass}",
        )
    require(close(s["rhs"], s["constant"] * s["high_error_mass"], abs_=1e-15), "rhs != constant * mass")
    if lhs is not None:
        require(close(s["lhs"], lhs), f"lhs {s['lhs']} != closed form {lhs}")
    if cap is None:
        require(s["stderr"] == 0 and s["trials_used"] == 0, "the exact oracle reported trials")
        require(s["passed"] == int(s["lhs"] >= s["rhs"]), "passed flag disagrees with lhs >= rhs")
        return
    used = s["trials_used"]
    require(1 <= used <= cap, f"trials_used {used} outside [1, {cap}]")
    if used < cap:
        require(s["stderr"] <= s["rhs"] / 10.0 * (1 + REL), "stopped before stderr <= rhs/10")
    require(s["lhs"] >= s["rhs"] - 3.0 * s["stderr"], "lhs < rhs - 3 stderr")
    require(s["passed"] == 1, "the lower bound check did not pass")


def check_mc_matches_exact(values, exact: float, z: float = 4.0) -> None:
    """Monte Carlo mean of per-trial masses within z stderr of the exact oracle."""
    mean, stderr = mean_stderr(values)
    require(
        abs(mean - exact) <= z * stderr + 1e-12,
        f"MC mean {mean} is {abs(mean - exact) / stderr:.2f} stderr from exact {exact}",
    )


def check_rate_sweep(rep: dict, *, grid: list[int], exponent: float) -> None:
    """k = ceil(n^exponent), slope is the log-log fit of the rows, slope in [-0.82, -0.52]."""
    cols, s = rep["columns"], rep["summary"]
    require(cols["n"] == grid, "n column differs from the grid")
    require(cols["k"] == [math.ceil(n**exponent) for n in grid], "k column breaks the k rule")
    require(s["excluded"] == "none" and all(m > 0 for m in cols["mean_excess"]), "a row was excluded")
    xs = [math.log(n) for n in grid]
    ys = [math.log(m) for m in cols["mean_excess"]]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    require(close(s["slope"], slope, rel=1e-6), f"slope {s['slope']} != fit of the rows {slope}")
    require(-0.82 <= slope <= -0.52, f"rate slope {slope} outside [-0.82, -0.52]")


def check_consistency(rep: dict, *, grid: list[int]) -> None:
    """k = ceil(sqrt n), medians strictly decrease and end at most 0.05."""
    cols, s = rep["columns"], rep["summary"]
    require(cols["n"] == grid, "n column differs from the grid")
    require(cols["k"] == [math.ceil(math.sqrt(n)) for n in grid], "k column breaks the sqrt rule")
    medians = [s[f"median_{n}"] for n in grid]
    require(all(b < a for a, b in zip(medians, medians[1:])), f"medians not decreasing: {medians}")
    require(medians[-1] <= 0.05, f"final median {medians[-1]} above 0.05")
    require(s["spearman"] == -1, f"strictly decreasing medians give spearman -1, got {s['spearman']}")


# -- boundary analysis --------------------------------------------------------------


def check_boundary_monotone(masses: dict[tuple[float, float], tuple[float, float]]) -> None:
    """Boundary mass does not decrease in the level p or in the band, within error bounds."""
    for (p, band), (value, err) in masses.items():
        for (p2, band2), (up, up_err) in masses.items():
            if p2 >= p and band2 >= band:
                require(
                    up >= value - (err + up_err + 1e-12),
                    f"boundary mass falls from {value} at {(p, band)} to {up} at {(p2, band2)}",
                )


def check_analyze(rep: dict, *, p: float, band: float, probes: int) -> None:
    cols, s = rep["columns"], rep["summary"]
    require(s["p"] == p and s["delta"] == band, "summary does not echo p and band")
    require(len(cols["x"]) == probes, f"expected {probes} probes, got {len(cols['x'])}")
    require(0.0 <= s["boundary_mass"] <= 1.0 + ABS and s["mass_error_bound"] >= 0.0, "mass out of range")


def _check_band_verdicts(rep: dict, half_width: float) -> None:
    # Boundary exactly when |x - 1/2| < half_width; interiors take the side of 1/2
    for x, verdict in zip(rep["columns"]["x"], rep["columns"]["verdict"]):
        gap = abs(x - 0.5)
        if abs(gap - half_width) <= ABS:
            continue
        expected = "Boundary" if gap < half_width else ("InteriorPlus" if x > 0.5 else "InteriorMinus")
        require(verdict == expected, f"probe {x}: verdict {verdict}, closed form {expected}")


def check_disjoint_boundary(rep: dict, *, p: float, band: float) -> None:
    """Disjoint family: Boundary is |x - 1/2| < band * p, of mass 2 * band * p."""
    require(p <= 0.5, "the closed form holds for p <= 1/2")
    mass = rep["summary"]["boundary_mass"]
    require(close(mass, 2.0 * band * p, abs_=ABS), f"boundary mass {mass} != 2*band*p = {2 * band * p}")
    _check_band_verdicts(rep, band * p)


def check_power_boundary(rep: dict, *, p: float, band: float) -> None:
    """Power margin gamma = 1: Boundary is |x - 1/2| < band, of mass 2 * band, for p <= 1 - 2 band."""
    require(p <= 1.0 - 2.0 * band, "the closed form holds for p <= 1 - 2 band")
    mass = rep["summary"]["boundary_mass"]
    require(close(mass, 2.0 * band, abs_=ABS), f"boundary mass {mass} != 2*band = {2 * band}")
    _check_band_verdicts(rep, band)


def check_atomic_boundary(rep: dict, *, masses: list[float]) -> None:
    """Finite atoms: the boundary mass is the mass of the atoms marked Boundary."""
    verdicts = rep["columns"]["verdict"]
    marked = math.fsum(m for m, v in zip(masses, verdicts) if v == "Boundary")
    require(close(rep["summary"]["boundary_mass"], marked, abs_=ABS), "mass != mass of Boundary atoms")


# -- brute-force k-NN ---------------------------------------------------------------


def mix64(*parts: int) -> int:
    """SplitMix64 chain over the parts: the documented per-trial seed contract."""
    acc = 0
    for part in parts:
        state = ((acc ^ (int(part) & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc


def knn_labels(xs: np.ndarray, zs: np.ndarray, ys: np.ndarray, k: int, queries: np.ndarray) -> np.ndarray:
    """k-NN labels by a full sort of the training set by (distance, z, index) per query.

    np.lexsort is stable, so ties in (distance, z) keep index order.
    """
    labels = np.empty(queries.size, dtype=np.int8)
    for i, q in enumerate(queries):
        order = np.lexsort((zs, np.abs(xs - q)))
        labels[i] = 2 * int(ys[order[:k]].sum()) >= k
    return labels


def disjoint_window(xs: np.ndarray, k: int) -> tuple[float, float]:
    """Queries outside [lo, hi] get the Bayes label on the disjoint family.

    Labels are pure: 1 on [1/2, 1], 0 below.  A query q > 1/2 is closer to
    every training point in [1/2, 2q - 1/2) than to any point below 1/2, so
    once m = floor(k/2) + 1 such points exist the vote is won by label 1.
    That holds for q above (t_m + 1/2)/2, t_m the m-th smallest point at or
    above 1/2; the left side mirrors it.
    """
    m = k // 2 + 1
    right = np.sort(xs[xs >= 0.5])
    left = np.sort(xs[xs < 0.5])
    hi = (right[m - 1] + 0.5) / 2.0 if right.size >= m else 1.0
    lo = (left[-m] + 0.5) / 2.0 if left.size >= m else 0.0
    return float(lo), float(hi)


def bruteforce_disjoint(xs, zs, ys, k: int, rng: np.random.Generator, queries: int) -> tuple[int, float]:
    """(disagreeing queries, window mass) for uniform queries in the window.

    The marginal is uniform on [0, 1], so the window's mass is its width
    and window mass * hits / queries estimates the disagreement mass.
    """
    require(bool(np.all(ys == (xs >= 0.5))), "training labels on the disjoint family are not pure")
    lo, hi = disjoint_window(xs, k)
    outside = np.concatenate([rng.uniform(0.0, lo, 8), rng.uniform(hi, 1.0, 8)])
    require(
        bool(np.all(knn_labels(xs, zs, ys, k, outside) == (outside >= 0.5))),
        "a query outside the window disagrees with the Bayes label",
    )
    inside = rng.uniform(lo, hi, queries)
    hits = int(np.count_nonzero(knn_labels(xs, zs, ys, k, inside) != (inside >= 0.5)))
    return hits, hi - lo


def check_binomial(samples, z: float) -> None:
    """Brute-force masses agree with the program's within z binomial sigmas.

    ``samples`` holds (hits, queries, window mass, program mass) per trial;
    the check pools them, so one call can test one trial or several.
    Under the program's masses each trial's hit count is binomial with
    success rate mass / window.
    """
    estimate = value = variance = slack = 0.0
    for hits, queries, window, mass in samples:
        f = mass / window
        require(0.0 <= f <= 1.0, f"disagreement mass {mass} exceeds the window mass {window}")
        estimate += window * hits / queries
        value += mass
        variance += window**2 * f * (1.0 - f) / queries
        slack += window / queries
    sigma = math.sqrt(variance)
    require(
        abs(estimate - value) <= z * sigma + slack,
        f"brute-force mass {estimate} vs program {value} (sigma {sigma})",
    )
