"""Scalar references that the library itself no longer needs.

The Bayes-one cdf is the mass of [0, t] on which the Bayes label is 1.
The trial kernel computes it in bulk (`_cdf_pair_into`); the spelled-out
form here, one point at a time, is what the kernel is tested against.

The finite-atomic trials are spelled out the same way: one trial reads its
own uniforms off its block's stream (`atomic_uniforms`), trains a model
with `fit_arrays` and labels each atom with `predict`, the path that the
blocked kernel (`harness._atomic_wrong`) must match bit for bit.
A trial's excess is spelled out twice: exactly, as a sum over its wrong
atoms, and as the harness once estimated it, from query draws on a second
stream (`sampled_excess`), whose mean over training draws is the exact
excess.
The 1-D window table is spelled out as a full lexsort and a cumsum of
labels, with `predict` deciding each window that a repeated location
splits.

The 1-D mean is spelled out with no sample at all (`exact_mean_1d`), by the
conditional-radius argument of the paper's lower-bound proof: it reads only
the family's ball queries, not the kernel's sorted windows or its sampler.
"""

import math

import numpy as np

from nnrates._rng import generator, mix64
from nnrates.bounds import _binom_log_pmf
from nnrates.classifier import fit_arrays, predict
from nnrates.distributions import FiniteAtomic, PowerMargin1D
from nnrates.harness import _states, _Trials1D
from nnrates.metric import IntervalMetric


def bayes_one_cdf(dist, t: float) -> float:
    t = min(max(t, 0.0), 1.0)
    if isinstance(dist, PowerMargin1D):
        return max(0.0, t - 0.5)
    j = min(max(int(np.searchsorted(dist.breaks, t, side="right")) - 1, 0), dist.f.size - 1)
    base = dist._bayes_one_prefix[j]
    if dist.f[j] > 0.0 and dist.seg_eta[j] >= 0.5:
        base = base + dist.f[j] * (t - dist.breaks[j])
    return float(base)


def atom_labels(model) -> np.ndarray:
    """The rule's label of every atom, one `predict` call each."""
    return np.array([predict(model, a) for a in range(model.space.size)])


def atomic_uniforms(master_seed: int, n: int, t: int) -> np.ndarray:
    """The (3, n) uniforms of finite-atomic trial t: numbers [3n j, 3n (j + 1)) of the stream
    ``generator(master_seed, n, b)``, where (b, j) = divmod(t, 512)."""
    rng = generator(master_seed, n, t // 512)
    rng.bit_generator.advance(3 * n * (t % 512))
    return rng.random((3, n))


def atom_wrong(dist, n: int, k: int, master_seed: int, t: int) -> np.ndarray:
    """The bool row of atoms where the rule of finite-atomic trial t is not Bayes."""
    xs, zs, ys = dist._draw(atomic_uniforms(master_seed, n, t))
    return atom_labels(fit_arrays(dist.space, xs, zs, ys, k)) != (dist.etas >= 0.5)


def trial_disagreement(dist, n: int, k: int, master_seed: int, t: int) -> float:
    """Exact Bayes-disagreement mass of the rule of finite-atomic trial t."""
    return float(dist.masses[atom_wrong(dist, n, k, master_seed, t)].sum())


def atomic_excess(dist, n: int, k: int, master_seed: int, t: int) -> float:
    """Exact excess of finite-atomic trial t: mass * |1 - 2 eta| over the atoms where the rule is wrong."""
    wrong = atom_wrong(dist, n, k, master_seed, t)
    return float((dist.masses * np.abs(1.0 - 2.0 * dist.etas))[wrong].sum())


def sampled_excess(dist, n: int, k: int, queries: int, master_seed: int, trials: int) -> list[float]:
    """Per trial, the mean of |1 - 2 eta| * 1{rule != Bayes} over ``queries`` query draws.

    Trial t's queries are the locations of ``sample_arrays(mix64(master_seed,
    n, t, 1), queries)``, a stream apart from its training draw.  A 1-D rule
    is read off the kernel's window table (`_Trials1D._train`), a
    finite-atomic one off `fit_arrays` and `predict`.
    """
    kernel = None if isinstance(dist, FiniteAtomic) else _Trials1D(dist, n, k)
    values = []
    for t, state in enumerate(_states(master_seed, n, 0, trials)):
        xq = dist.sample_arrays(mix64(master_seed, n, t, 1), queries)[0]
        etas = dist.eta_point_value(xq)
        if kernel is None:
            wrong = atom_wrong(dist, n, k, master_seed, t)[xq]
        else:
            edges, preds = kernel._train(state)
            wrong = preds[np.searchsorted(edges[1:-1], xq)] != (etas >= 0.5)
        values.append(float(np.mean(np.abs(1.0 - 2.0 * etas) * wrong)))
    return values


def reference_window(xs, zs, ys, k):
    """Sorted-window table of a 1-D training row: (switches, int8 preds).

    Windows come off the (location, tie-break draw) order.  A window that
    starts inside a run of equal locations with mixed labels gets
    `predict`'s label at a query inside its range, asked on the locations'
    ranks among the distinct ones: a monotone relabeling keeps every
    window's neighbors, and quarter ranks are exact.  Any part of a run of
    one label votes alike, and a window whose range is empty is read by no
    query and adds no mass: both keep their vote.
    """
    n = xs.size
    order = np.lexsort((zs, xs))
    t, y = xs[order], ys[order]
    sums = np.concatenate([[0], np.cumsum(y, dtype=np.int64)])
    preds = (2 * (sums[k:] - sums[: n + 1 - k]) >= k).astype(np.int8)
    ranks = np.unique(xs, return_inverse=True)[1].astype(float)
    model = fit_arrays(IntervalMetric(0.0, float(n)), ranks, zs, ys, k)
    r = ranks[order]
    for i in range(1, n - k + 1):
        if r[i - 1] == r[i] and (i + k == n or r[i + k - 1] < r[i + k]) and np.ptp(y[r == r[i]]):
            preds[i] = predict(model, (r[i] + r[i + k - 1]) / 2.0 + 0.25)
    return (t[: n - k] + t[k:]) / 2.0, preds


def _binom_pmf(m: int, eta: float) -> np.ndarray:
    """pmf of Bin(m, eta) on 0..m; a pure label is a point mass."""
    if eta == 0.0 or eta == 1.0:
        pmf = np.zeros(m + 1)
        pmf[m if eta == 1.0 else 0] = 1.0
        return pmf
    return np.array([math.exp(_binom_log_pmf(m, eta, j)) for j in range(m + 1)])


def _compositions(total: int, caps):
    """All ways to split `total` into len(caps) parts with part i <= caps[i]."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first, *rest)


def _vote_pmf_for_occupancy(dist, query: int, counts, k: int) -> np.ndarray:
    """pmf of the k nearest neighbors' label sum, given per-atom counts.

    Atoms are consumed in distance order from the query.  Which points of
    an atom enter the neighbor set is decided by tie-break draws, but
    labels within an atom are exchangeable, so only the number taken
    matters: a fully consumed atom contributes Bin(count, eta); a distance
    group that overflows the remaining slots contributes a uniformly
    random split (multivariate hypergeometric) across its atoms.
    """
    row = dist.space.matrix[query]
    order = np.argsort(row, kind="stable")
    pmf = np.ones(1)
    remaining = k
    i = 0
    while remaining > 0 and i < order.size:
        group = [int(order[i])]
        while i + 1 < order.size and row[order[i + 1]] == row[group[0]]:
            i += 1
            group.append(int(order[i]))
        i += 1
        available = [counts[a] for a in group]
        total = sum(available)
        if total == 0:
            continue
        if total <= remaining:
            for atom, have in zip(group, available):
                if have > 0:
                    pmf = np.convolve(pmf, _binom_pmf(have, float(dist.etas[atom])))
            remaining -= total
        else:
            mix = np.zeros(remaining + pmf.size)
            denom = math.comb(total, remaining)
            for taken in _compositions(remaining, available):
                weight = 1.0
                for have, t in zip(available, taken):
                    weight *= math.comb(have, t)
                branch = pmf
                for atom, t in zip(group, taken):
                    if t > 0:
                        branch = np.convolve(branch, _binom_pmf(t, float(dist.etas[atom])))
                padded = np.zeros(mix.size)
                padded[: branch.size] = branch
                mix += (weight / denom) * padded
            pmf = mix
            remaining = 0
    return pmf


def occupancy_expected_mistake(dist, n: int, k: int) -> float:
    """Exact expected Bayes-disagreement mass, by enumeration over occupancy vectors.

    Every split of the n points over the m atoms is weighted by its
    multinomial probability, and for each query atom the neighbor-label
    sum is an exact convolution.  C(n + m - 1, m - 1) vectors: a spec for
    small cases, which `harness.exact_expected_mistake` must match.
    """
    m = dist.space.size
    log_masses = [math.log(v) if v > 0.0 else -math.inf for v in dist.masses]
    threshold = (k + 1) // 2
    bayes = dist.etas >= 0.5
    total = 0.0
    for counts in _compositions(n, [n] * m):
        log_w = math.lgamma(n + 1)
        ok = True
        for h, lm in zip(counts, log_masses):
            if h > 0:
                if lm == -math.inf:
                    ok = False
                    break
                log_w += h * lm - math.lgamma(h + 1)
        if not ok:
            continue
        weight = math.exp(log_w)
        for query in range(m):
            if dist.masses[query] <= 0.0:
                continue
            pmf = _vote_pmf_for_occupancy(dist, query, counts, k)
            predict_one = float(pmf[threshold:].sum())
            p_disagree = 1.0 - predict_one if bayes[query] else predict_one
            total += weight * float(dist.masses[query]) * p_disagree
    return total


# where the radius cells of `exact_mean_1d` cut the Beta law of U, in its sd from its mean
_U_CUTS = (-40, -20, -10, -6, -4, -3, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3, 4, 6, 10, 20, 40)


def _gauss_cells(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, ``order`` of each in every cell between consecutive edges
    along the last axis."""
    t, w = np.polynomial.legendre.leggauss(order)
    half = np.diff(edges, axis=-1)[..., None] / 2.0
    shape = edges.shape[:-1] + (-1,)
    return (edges[..., :-1, None] + half + half * t).reshape(shape), (half * w).reshape(shape)


def exact_mean_1d(dist, n: int, k: int, excess: bool = False) -> float:
    """Expected Bayes-disagreement mass of the k-NN rule on a 1-D family over all training draws,
    or with ``excess`` its expected excess risk, by quadrature.

    U, the mass of the ball that reaches x's (k + 1)-th neighbor, is
    Beta(k + 1, n - k).  Given U = u, the k nearest points are iid draws of
    mu restricted to B(x, r(u)), r(u) = ``radius_at(ball_table(x), u)``, so their
    label sum is Bin(k, eta(B)), eta(B) read off ``ball_sums``, and the rule
    says 1 when the sum is at least k/2.  The mean is the integral over x of
    f(x), or |1 - 2 eta(x)| f(x) for the excess, times E_U[P(the vote is not
    the Bayes label at x)].  k = n has no (k + 1)-th neighbor, and its ball
    is the whole support.

    E_U is taken over the ball's radius r, with dU = (f(x - r) + f(x + r)) dr:
    8-point Gauss-Legendre in each radius cell, cut where U sits at
    `_U_CUTS` and where the ball's edge meets a breakpoint, so that no cell
    holds a kink.  x takes 20-point Gauss-Legendre cells, 100 per unit
    length between the family's breakpoints.  Against twice both counts,
    the value moved by at most 4e-11 on the three families at
    (300, 25) and (40, 16); on the disjoint family it is the finite sum over
    the cut's two order statistics, 6.6935323005512e-03 at (300, 25), to
    1e-16.
    """
    bps = np.asarray(dist.x_breakpoints(), dtype=float)
    x_cuts = [np.linspace(a, b, math.ceil(100 * (b - a)) + 1)[:-1] for a, b in zip(bps, bps[1:])]
    xs, wx = _gauss_cells(np.append(np.concatenate(x_cuts), bps[-1]), 20)
    eta = dist.eta_point_value(xs)
    weight = wx * dist.density_at(xs) * (np.abs(1.0 - 2.0 * eta) if excess else 1.0)
    x = xs[:, None]
    table = dist.ball_table(xs)
    if k == n:
        r, wr = dist.radius_at(table, 1.0)[:, None], np.ones_like(x)
    else:
        mean = (k + 1) / (n + 1)
        sd = math.sqrt(mean * (1.0 - mean) / (n + 2))
        rims = [dist.radius_at(table, u) for u in np.clip(mean + sd * np.array(_U_CUTS), 0.0, 1.0)]
        rims = np.stack(rims, axis=1)
        kinks = np.clip(table[0][:, 1:], rims[:, :1], rims[:, -1:])
        r, wr = _gauss_cells(np.sort(np.concatenate([rims, kinks], axis=1), axis=1), 8)
    mass, ones = dist.ball_sums(x, r)
    if k < n:
        log_norm = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k)
        with np.errstate(divide="ignore"):  # the Beta density at U = mass, 0 at U = 0 and at U = 1
            log_pdf = log_norm + k * np.log(mass) + ((n - k - 1) * np.log1p(-mass) if n - k > 1 else 0.0)
        wr = wr * (dist.density_at(x - r) + dist.density_at(x + r)) * np.exp(log_pdf)
    p = np.divide(ones, mass, out=np.zeros_like(mass), where=mass > 0.0).clip(0.0, 1.0)
    # the rule says 1 at a label sum i >= ceil(k/2); it errs there where the Bayes label is 0.
    # Summed term by term over the wrong side of Bin(k, p), with 0 * log 0 = 0 at i = 0 and i = k
    says_one_wrongly = (eta < 0.5)[:, None]
    log_fact = [math.lgamma(i + 1) for i in range(k + 1)]
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
    p_wrong = np.zeros_like(p)
    for i in range(k + 1):
        log_pmf = log_fact[k] - log_fact[i] - log_fact[k - i]
        log_pmf = log_pmf + (i * log_p if i > 0 else 0.0) + ((k - i) * log_q if i < k else 0.0)
        p_wrong += np.where(says_one_wrongly == (2 * i >= k), np.exp(log_pmf), 0.0)
    return float(weight @ (wr * p_wrong).sum(axis=1))
