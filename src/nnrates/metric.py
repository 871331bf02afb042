"""Metric spaces: the point domains of the distribution families.

Two concrete spaces cover every supported experiment: a finite atom set
with an explicit distance matrix, and a closed real interval under the
absolute difference.  Both check their points and give vectorized
distances; the classifier orders neighbors by (distance, tie-break draw,
source index) on top of these distances.

A finite metric checks the triangle inequality on every triple, through
one m x m float and one bool buffer for all of them: about 5 ms at 128
atoms, 0.3 s at 500 and 2.2 s at 1,000 (shared 2-core box).  It is the one
place that knows which atoms tie in distance (see `FiniteMetric`).
"""

from __future__ import annotations

import itertools
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "FiniteMetric",
    "IntervalMetric",
    "MetricSpace",
    "load_finite_metric",
]

Point = Union[int, float, Sequence[float], np.ndarray]


class MetricSpace:
    """Common interface of the point domains."""

    def contains(self, x: Point) -> bool:
        raise NotImplementedError

    def distance(self, a: Point, b: Point) -> float:
        raise NotImplementedError

    def distances_to(self, x: Point, xs: np.ndarray) -> np.ndarray:
        """Vectorized distances from ``x`` to an array of stored locations."""
        raise NotImplementedError

    def check_point(self, x: Point) -> None:
        if not self.contains(x):
            raise DomainError(f"point {x!r} lies outside {self!r}")


class FiniteMetric(MetricSpace):
    """Finite atom set whose metric is an explicit symmetric matrix.

    Points are atom indices ``0 .. m-1``.  The matrix is validated on
    construction: zero diagonal, positive distances between distinct atoms
    (read off ``sorted_rows[:, 1]``), symmetry, and the triangle inequality
    on every triple.  Beside it, and read-only like it, the group table:
    ``order[q]``, the atoms by (distance from q, index), along which atomic
    ball sums and the exact oracle's walk run; ``sorted_rows[q]``, those
    distances, q's candidate radii; and ``group[q, a]``, the number of
    distinct distances from q below d(q, a), by which the trial kernel ranks
    and the oracle cuts its walk.  24 MB at 1,000 atoms, beside the matrix's 8.
    """

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[float]]):
        mat = np.asarray(matrix, dtype=float) + 0.0  # a copy of its own, where -0.0 is 0.0
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {mat.shape}")
        m = mat.shape[0]
        if m == 0:
            raise ValueError("distance matrix must have at least one atom")
        if not np.all(np.isfinite(mat)):
            raise ValueError("distance matrix entries must be finite")
        if np.any(mat < 0.0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diag(mat) != 0.0):
            raise ValueError("self-distances must be zero")
        order = np.argsort(mat, axis=1, kind="stable")
        sorted_rows = np.take_along_axis(mat, order, axis=1)
        if np.any(sorted_rows[:, 1:2] <= 0.0):  # each row's nearest other atom
            raise ValueError("distinct atoms must have positive distance")
        if not np.array_equal(mat, mat.T):
            raise ValueError("distance matrix must be symmetric")
        relaxed, over = np.empty_like(mat), np.empty(mat.shape, dtype=bool)
        for k in range(m):
            np.add(mat[:, k, None], mat[k], out=relaxed)
            relaxed += 1e-12
            if np.greater(mat, relaxed, out=over).any():
                np.add(mat[:, k, None], mat[k], out=relaxed)
                i, j = np.unravel_index(np.argmax(np.subtract(mat, relaxed, out=relaxed)), mat.shape)
                raise ValueError(f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})")
        del relaxed, over  # before the group table's own m x m arrays
        self.matrix, self.size, self.order, self.sorted_rows = mat, m, order, sorted_rows
        self.group = np.empty_like(self.order)
        ranks = np.zeros_like(self.order)
        np.cumsum(self.sorted_rows[:, 1:] > self.sorted_rows[:, :-1], axis=1, out=ranks[:, 1:])
        np.put_along_axis(self.group, self.order, ranks, axis=1)
        for table in (self.matrix, self.order, self.sorted_rows, self.group):
            table.setflags(write=False)

    def __repr__(self) -> str:
        return f"FiniteMetric(m={self.size})"

    def contains(self, x: Point) -> bool:
        return isinstance(x, (int, np.integer)) and 0 <= int(x) < self.size

    def distance(self, a: Point, b: Point) -> float:
        self.check_point(a)
        self.check_point(b)
        return float(self.matrix[int(a), int(b)])

    def distances_to(self, x: Point, xs: np.ndarray) -> np.ndarray:
        self.check_point(x)
        return self.matrix[int(x)][np.asarray(xs, dtype=np.intp)]


class IntervalMetric(MetricSpace):
    """Closed real interval [low, high] under the absolute difference."""

    def __init__(self, low: float, high: float):
        if not (np.isfinite(low) and np.isfinite(high) and low < high):
            raise ValueError(f"interval bounds must be finite with low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def __repr__(self) -> str:
        return f"IntervalMetric([{self.low}, {self.high}])"

    def contains(self, x: Point) -> bool:
        try:
            v = float(x)
        except (TypeError, ValueError):
            return False
        return np.isfinite(v) and self.low <= v <= self.high

    def distance(self, a: Point, b: Point) -> float:
        self.check_point(a)
        self.check_point(b)
        return abs(float(a) - float(b))

    def distances_to(self, x: Point, xs: np.ndarray) -> np.ndarray:
        self.check_point(x)
        return np.abs(np.asarray(xs, dtype=float) - float(x))


def load_finite_metric(path: str) -> FiniteMetric:
    """Read a finite metric from text: first line the atom count m, then an
    m-by-m matrix of whitespace-separated distances, one row per line.

    The text is split a line at a time, once to count the entries and once
    to parse them into the matrix, so no list of all m * m tokens is built:
    a 1,000-atom file's parse peaks near twice its text (tracemalloc), where
    a token list and a float list took about 14 times the text.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    tokens = itertools.chain.from_iterable(line.split() for line in lines)
    head = next(tokens, None)
    if head is None:
        raise ValueError(f"{path}: empty metric file")
    try:
        m = int(head)
    except ValueError as exc:
        raise ValueError(f"{path}: first token must be the atom count") from exc
    if m < 1:
        raise ValueError(f"{path}: atom count must be at least 1, got {m}")
    count = sum(len(line.split()) for line in lines) - 1
    if count != m * m:
        raise ValueError(f"{path}: expected {m}x{m} matrix entries after the count, got {count}")
    values = np.fromiter(map(float, tokens), dtype=float, count=count)
    del lines, tokens  # the text goes before FiniteMetric builds its tables
    return FiniteMetric(values.reshape(m, m))
