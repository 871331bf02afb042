"""Scalar references that the library itself no longer needs.

The Bayes-one cdf is the mass of [0, t] on which the Bayes label is 1.
The trial kernel computes it in bulk (`_cdf_pair_into`); the spelled-out
form here, one point at a time, is what the kernel is tested against.

The finite-atomic trials are spelled out the same way: one trial trains a
model with `fit_arrays` and labels each atom with `predict`, the path
that the blocked kernel (`harness._atomic_wrong`) must match bit for bit.
The 1-D window table is spelled out as a full lexsort and a cumsum of
labels, with `predict` deciding each window that a repeated location
splits.
"""

import numpy as np

from nnrates._rng import mix64
from nnrates.classifier import fit_arrays, predict
from nnrates.distributions import PowerMargin1D
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


def trial_disagreement(dist, n: int, k: int, seed: int) -> float:
    """Exact Bayes-disagreement mass of one freshly trained finite-atomic rule."""
    preds = atom_labels(fit_arrays(dist.space, *dist.sample_arrays(seed, n), k))
    return float(dist.masses[preds != (dist.etas >= 0.5)].sum())


def atomic_excess(dist, n: int, k: int, mc_points: int, master_seed: int, t: int) -> float:
    """Excess of finite-atomic trial t: |1 - 2 eta| where the rule is wrong, over query draws."""
    xs, zs, ys = dist.sample_arrays(mix64(master_seed, n, t), n)
    model = fit_arrays(dist.space, xs, zs, ys, k)
    xq, _, _ = dist.sample_arrays(mix64(master_seed, n, t, 1), mc_points)
    preds = atom_labels(model)[xq]
    etas = dist.etas[xq]
    disagree = preds != (etas >= 0.5)
    return float(np.mean(np.abs(1.0 - 2.0 * etas) * disagree))


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
