"""Scalar references that the library itself no longer needs.

The Bayes-one cdf is the mass of [0, t] on which the Bayes label is 1.
The trial kernel computes it in bulk (`cdf_pair_array`); the spelled-out
form here, one point at a time, is what the kernel is tested against.

The finite-atomic trials are spelled out the same way: one trial trains a
model with `fit_arrays` and labels atoms with `predict_batch`, the path
that the blocked kernel (`harness._atomic_wrong`) must match bit for bit.
"""

import numpy as np

from nnrates._rng import mix64
from nnrates.classifier import fit_arrays, predict_batch
from nnrates.distributions import PowerMargin1D


def bayes_one_cdf(dist, t: float) -> float:
    t = min(max(t, 0.0), 1.0)
    if isinstance(dist, PowerMargin1D):
        return max(0.0, t - 0.5)
    j = min(max(int(np.searchsorted(dist.breaks, t, side="right")) - 1, 0), dist.f.size - 1)
    base = dist._bayes_one_prefix[j]
    if dist.f[j] > 0.0 and dist.seg_eta[j] >= 0.5:
        base = base + dist.f[j] * (t - dist.breaks[j])
    return float(base)


def trial_disagreement(dist, n: int, k: int, seed: int) -> float:
    """Exact Bayes-disagreement mass of one freshly trained finite-atomic rule."""
    xs, zs, ys = dist.sample_arrays(seed, n)
    preds = predict_batch(fit_arrays(dist.space, xs, zs, ys, k), np.arange(dist.space.size))
    return float(dist.masses[preds != (dist.etas >= 0.5)].sum())


def atomic_excess(dist, n: int, k: int, mc_points: int, master_seed: int, t: int) -> float:
    """Excess of finite-atomic trial t: |1 - 2 eta| where the rule is wrong, over query draws."""
    xs, zs, ys = dist.sample_arrays(mix64(master_seed, n, t), n)
    model = fit_arrays(dist.space, xs, zs, ys, k)
    xq, _, _ = dist.sample_arrays(mix64(master_seed, n, t, 1), mc_points)
    preds = predict_batch(model, xq)
    etas = dist.eta_values(xq)
    disagree = preds != (etas >= 0.5)
    return float(np.mean(np.abs(1.0 - 2.0 * etas) * disagree))
