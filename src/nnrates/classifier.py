"""k-nearest-neighbor classification with randomized tie-breaking.

A trained model stores the augmented training set (locations, tie-break
draws, labels).  Neighbors of a query are ranked lexicographically by
(distance, tie-break draw, training index), so the k nearest are always
uniquely determined even when distances collide; the predicted label is 1
exactly when at least half of the k neighbor labels are 1.

Batch prediction over interval spaces uses the sorted-window identity: the
k nearest neighbors of any query on the line form a contiguous block of
the location-sorted training set, and the block boundary moves exactly at
midpoints (t[i] + t[i+k]) / 2.  That path is exact except on training sets
with duplicate locations, which continuous sampling produces with
probability on the order of n**2 * 2**-53 per draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import AugmentedSample
from .metric import FiniteMetric, IntervalMetric, MetricSpace

__all__ = [
    "TrainedModel",
    "fit",
    "fit_arrays",
    "predict",
    "predict_batch",
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


def _window_table(xs, zs, ys, k: int, packed: bool, switches, preds, scratch, flag) -> None:
    """Fill the sorted-window table of n training points on the line, in place.

    switches (n - k floats) and preds (n - k + 1 bools) receive the table
    that `_window_structure` returns; scratch (two float rows of at least
    n + 1) and flag (at least n bools) are overwritten.

    With packed set (every location in [0, 2)), `_packed_sort` orders the
    points.  A repeated location, or packed unset, falls back to
    lexsort((zs, xs)), the exact order by (location, tie-break draw).
    """
    n = xs.shape[0]
    t = scratch[0, :n]
    sums = scratch[1, : n + 1].view(np.int64)
    if not (packed and _packed_sort(xs, ys, t, sums[1:], flag)):
        # only a repeated location needs the tie-break draws to order it
        order = np.lexsort((zs, xs))
        t[:] = xs[order]
        sums[1:] = ys[order]
    _window_votes(t, sums, k, switches, preds)


def _packed_sort(xs, ys, t, labels, flag) -> bool:
    """Sort locations in [0, 2) with their labels into t and the int64 labels.

    One sort of the key (x bits << 1) | y orders the points: the bits of
    such doubles sort as the doubles do, a -0.0 packs as +0.0, and the low
    bit carries the label along.  Returns False when a location repeats,
    an order that only the tie-break draws decide; flag (at least n bools)
    is overwritten.
    """
    np.left_shift(xs.view(np.int64), 1, out=labels)
    labels |= ys
    labels.sort()
    np.right_shift(labels, 1, out=t.view(np.int64))
    labels &= 1
    return not np.equal(t[1:], t[:-1], out=flag[: t.size - 1]).any()


def _window_votes(t, sums, k: int, switches, preds) -> None:
    """The window table of ascending locations t whose labels are in sums[1:].

    sums (n + 1 int64) becomes the label prefix sums, and t is overwritten.
    """
    n = t.shape[0]
    sums[0] = 0
    np.cumsum(sums[1:], out=sums[1:])
    np.add(t[: n - k], t[k:], out=switches)
    switches /= 2.0
    votes = t.view(np.int64)[: n - k + 1]
    np.subtract(sums[k:], sums[: n + 1 - k], out=votes)
    np.greater_equal(votes, (k + 1) // 2, out=preds)


def _window_structure(model: TrainedModel) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-window prediction table for interval spaces.

    Returns (switches, preds): preds[i] labels queries falling between
    switches[i-1] and switches[i] (with virtual switches at -inf/+inf).
    """
    n, k = model.n, model.k
    packed = 0.0 <= model.space.low and model.space.high < 2.0 and model.xs.dtype == np.float64
    switches = np.empty(n - k)
    preds = np.empty(n - k + 1, dtype=bool)
    scratch, flag = np.empty((2, n + 1)), np.empty(n, dtype=bool)
    _window_table(model.xs, model.zs, model.ys, k, packed, switches, preds, scratch, flag)
    return switches, preds.view(np.int8)


def predict_batch(model: TrainedModel, queries: np.ndarray) -> np.ndarray:
    """Label an array of queries, matching `predict` query by query."""
    if isinstance(model.space, IntervalMetric):
        switches, preds = _window_structure(model)
        w = np.searchsorted(switches, np.asarray(queries, dtype=float), side="left")
        return preds[w]
    queries = np.asarray(queries)
    if isinstance(model.space, FiniteMetric):
        # queries repeat over few atoms: predict each distinct atom once
        uniq, inverse = np.unique(queries, return_inverse=True)
        labels = np.array([predict(model, int(q)) for q in uniq], dtype=np.int8)
        return labels[inverse]
    return np.array([predict(model, q) for q in queries], dtype=np.int8)
