"""Metric spaces: the point domains of the distribution families.

Two concrete spaces cover every supported experiment: a finite atom set
with an explicit distance matrix, and a closed real interval under the
absolute difference.  Both check their points and give vectorized
distances; the classifier orders neighbors by (distance, tie-break draw,
source index) on top of these distances.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "FiniteMetric",
    "IntervalMetric",
    "MetricSpace",
    "Point",
    "distance",
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
    construction: symmetry, zero diagonal, strictly positive off-diagonal
    entries, and the triangle inequality (exhaustively for small matrices,
    on sampled triples for large ones).
    """

    _TRIANGLE_EXHAUSTIVE_LIMIT = 128

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[float]]):
        mat = np.asarray(matrix, dtype=float)
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
        if m > 1:
            off = mat[~np.eye(m, dtype=bool)]
            if np.any(off <= 0.0):
                raise ValueError("distinct atoms must have positive distance")
        if not np.array_equal(mat, mat.T):
            raise ValueError("distance matrix must be symmetric")
        self._check_triangle(mat)
        self.matrix = mat
        self.matrix.setflags(write=False)
        self.size = m

    @classmethod
    def _check_triangle(cls, mat: np.ndarray) -> None:
        m = mat.shape[0]
        if m <= cls._TRIANGLE_EXHAUSTIVE_LIMIT:
            for k in range(m):
                relaxed = mat[:, k][:, None] + mat[k, :][None, :]
                if np.any(mat > relaxed + 1e-12):
                    i, j = np.unravel_index(np.argmax(mat - relaxed), mat.shape)
                    raise ValueError(
                        f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                    )
        else:
            rng = np.random.Generator(np.random.PCG64(0))
            triples = rng.integers(0, m, size=(4 * m, 3))
            for i, j, k in triples:
                if mat[i, j] > mat[i, k] + mat[k, j] + 1e-12:
                    raise ValueError(
                        f"triangle inequality fails on sampled triple ({i},{j},{k})"
                    )

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


def distance(space: MetricSpace, a: Point, b: Point) -> float:
    """Metric value between two domain points; raises DomainError otherwise."""
    return space.distance(a, b)


def load_finite_metric(path: str) -> FiniteMetric:
    """Read a finite metric from text: first line the atom count m, then an
    m-by-m matrix of whitespace-separated distances, one row per line."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty metric file")
    try:
        m = int(tokens[0])
    except ValueError as exc:
        raise ValueError(f"{path}: first token must be the atom count") from exc
    expected = 1 + m * m
    if len(tokens) != expected:
        raise ValueError(
            f"{path}: expected {m}x{m} matrix entries after the count, got {len(tokens) - 1}"
        )
    values = np.array([float(t) for t in tokens[1:]], dtype=float).reshape(m, m)
    return FiniteMetric(values)
