"""k-nearest-neighbor classification with randomized tie-breaking.

A trained model stores the augmented training set (locations, tie-break
draws, labels).  Neighbors of a query are ranked lexicographically by
(distance, tie-break draw, training index), so the k nearest are always
uniquely determined even when distances collide; the predicted label is 1
exactly when at least half of the k neighbor labels are 1.

This is the rule as stated, one query at a time, and the reference that
the trial kernels in `nnrates.harness` are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import AugmentedSample
from .metric import FiniteMetric, MetricSpace

__all__ = [
    "TrainedModel",
    "fit",
    "fit_arrays",
    "predict",
]


@dataclass(frozen=True)
class TrainedModel:
    """A fitted k-NN rule: the augmented training arrays plus k."""

    space: MetricSpace
    k: int
    xs: np.ndarray
    zs: np.ndarray
    ys: np.ndarray

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def _check_k(k, n: int) -> None:
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValueError(f"k must be an integer in [1, n={n}], got {k}")


def fit_arrays(
    space: MetricSpace, xs: np.ndarray, zs: np.ndarray, ys: np.ndarray, k: int
) -> TrainedModel:
    """A model on training arrays taken as given: only k is checked (`fit` checks each entry)."""
    _check_k(k, xs.shape[0])
    return TrainedModel(space, int(k), xs, np.asarray(zs, float), np.asarray(ys, np.int8))


def fit(space: MetricSpace, samples: Sequence[AugmentedSample], k: int) -> TrainedModel:
    """Fit from a list of labeled augmented samples, validating each entry."""
    if len(samples) == 0:
        raise ValueError("cannot fit on an empty sample")
    for s in samples:
        space.check_point(s.x)
        if not 0.0 <= s.z < 1.0:
            raise ValueError(f"tie-break draw must lie in [0, 1), got {s.z}")
        if s.y not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {s.y}")
    if isinstance(space, FiniteMetric):
        xs = np.array([s.x for s in samples], dtype=np.intp)
    else:
        xs = np.array([s.x for s in samples], dtype=float)
    zs = np.array([s.z for s in samples], dtype=float)
    ys = np.array([s.y for s in samples], dtype=np.int8)
    return fit_arrays(space, xs, zs, ys, k)


def predict(model: TrainedModel, query) -> int:
    """Label a single query through the full lexicographic neighbor rank."""
    model.space.check_point(query)
    d = model.space.distances_to(query, model.xs)
    order = np.lexsort((np.arange(model.n), model.zs, d))
    vote = int(model.ys[order[: model.k]].sum())
    return 1 if 2 * vote >= model.k else 0
