"""Scalar references that the library itself no longer needs.

The Bayes-one cdf is the mass of [0, t] on which the Bayes label is 1.
The trial kernel computes it in bulk (`cdf_pair_array`); the spelled-out
form here, one point at a time, is what the kernel is tested against.
"""

import numpy as np

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
