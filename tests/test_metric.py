"""Metric spaces, and the augmented-ball semantics the classifier relies on.

The augmented point and ball, the box space and the neighbor ordering
below are spec oracles: the library ranks neighbors in bulk (see
`nnrates.classifier`), and these spelled-out scalar forms state the
convention it follows.  Each training point carries a tie-break draw z in
[0, 1); neighbors are ordered by (distance, z, source index), which keeps
the order total even when distances coincide.  An augmented ball pairs a
closed ball with a z cutoff on its sphere, so "the first k points in
neighbor order" and "the points inside the ball spanned by the k-th
neighbor, plus that neighbor" describe the same set.
"""

import re
import tracemalloc
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrates import metric as metric_module
from nnrates.errors import DomainError
from nnrates.metric import (
    FiniteMetric,
    IntervalMetric,
    MetricSpace,
    Point,
    load_finite_metric,
)


@dataclass(frozen=True)
class AugmentedPoint:
    """A location joined with its tie-breaking draw and provenance index."""

    location: Point
    z: float
    source_index: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.z < 1.0:
            raise ValueError(f"z must lie in [0, 1), got {self.z}")
        if self.source_index < 0:
            raise ValueError("source_index must be nonnegative")


@dataclass(frozen=True)
class AugmentedBall:
    """Closed ball plus a z cutoff governing membership on the sphere.

    ``z_cut`` may equal 1.0, in which case the whole sphere is included and
    the augmented ball coincides with the closed ball.
    """

    center: Point
    radius: float
    z_cut: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")
        if not 0.0 <= self.z_cut <= 1.0:
            raise ValueError(f"z_cut must lie in [0, 1], got {self.z_cut}")


class BoxMetric(MetricSpace):
    """Axis-aligned box in R^d under the Euclidean norm."""

    def __init__(self, lows: Sequence[float], highs: Sequence[float]):
        lo = np.asarray(lows, dtype=float)
        hi = np.asarray(highs, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValueError("lows and highs must be equal-length 1-D sequences")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo < hi)):
            raise ValueError("box bounds must be finite with lows < highs")
        self.lows = lo
        self.highs = hi
        self.dim = lo.size

    def __repr__(self) -> str:
        return f"BoxMetric(dim={self.dim})"

    def contains(self, x: Point) -> bool:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            return False
        return bool(np.all(np.isfinite(arr)) and np.all(arr >= self.lows) and np.all(arr <= self.highs))

    def distance(self, a: Point, b: Point) -> float:
        self.check_point(a)
        self.check_point(b)
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.sqrt(np.dot(diff, diff)))

    def distances_to(self, x: Point, xs: np.ndarray) -> np.ndarray:
        self.check_point(x)
        diff = np.asarray(xs, dtype=float) - np.asarray(x, dtype=float)[None, :]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def neighbor_order(
    space: MetricSpace, query: Point, training: Sequence[AugmentedPoint]
) -> list[int]:
    """Permutation of list positions sorted by (distance, z, source_index).

    The returned list contains positions into ``training``, nearest first.
    The ordering is total: exact distance ties fall back to the stored z
    draws, and exact (distance, z) ties to the source index.
    """
    if len(training) == 0:
        raise ValueError("training sequence must be nonempty")
    space.check_point(query)
    keys = [
        (space.distance(query, p.location), p.z, p.source_index)
        for p in training
    ]
    return sorted(range(len(training)), key=keys.__getitem__)


def augmented_ball_contains(
    ball: AugmentedBall, point: AugmentedPoint, space: MetricSpace
) -> bool:
    """Membership test: strictly inside, or on the sphere with z below the cutoff.

    The comparison against the radius is exact on purpose; the augmented
    semantics lose their meaning if sphere membership is fuzzed.
    """
    d = space.distance(ball.center, point.location)
    return d < ball.radius or (d == ball.radius and point.z < ball.z_cut)


def test_augmented_point_z_range():
    AugmentedPoint(0.3, 0.0, 0)
    AugmentedPoint(0.3, 0.999999, 4)
    with pytest.raises(ValueError):
        AugmentedPoint(0.3, 1.0, 0)
    with pytest.raises(ValueError):
        AugmentedPoint(0.3, -0.1, 0)


def test_finite_metric_validation():
    good = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    fm = FiniteMetric(good)
    assert fm.size == 3
    assert fm.distance(0, 2) == 2.0

    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0.5, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0.0, 0.0], [0.0, 0.0]]))  # zero off-diagonal
    # triangle violation: d(0,2) > d(0,1) + d(1,2)
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]))


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "distinct atoms must have positive distance"),
        ([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "distinct atoms must have positive distance"),
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "distance matrix must be symmetric"),
        ([[0.0, 0.0, 9.0], [0.0, 0.0, 1.0], [9.0, 1.0, 0.0]], "distinct atoms must have positive distance"),
    ],
    ids=["zero_and_asymmetric", "zero_on_one_side", "asymmetric", "zero_and_no_triangle"],
)
def test_finite_metric_refuses_a_zero_distance_before_the_later_checks(matrix, message):
    # the positivity check reads each sorted row's nearest other atom, which
    # the zero self-distance leaves in column 1; it still comes before the
    # symmetry and triangle checks
    with pytest.raises(ValueError, match=f"^{message}$"):
        FiniteMetric(np.array(matrix))


@pytest.mark.parametrize("pair", [(10, 20), (50, 150), (198, 199), (3, 8), (0, 1)], ids=lambda p: f"{p[0]}-{p[1]}")
def test_finite_metric_refuses_a_non_metric_of_any_size(pair):
    # 200 atoms at distance 1 but one pair at 2.5 > 1 + 1: every triple is
    # checked, so the one failing pair is found wherever it lies
    mat = np.ones((200, 200)) - np.eye(200)
    mat[pair] = mat[pair[::-1]] = 2.5
    with pytest.raises(ValueError, match="triangle inequality fails"):
        FiniteMetric(mat)


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0]],
        [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]],
        [[0.0, 2.0, 1.0, 2.0], [2.0, 0.0, 2.0, 1.0], [1.0, 2.0, 0.0, 2.0], [2.0, 1.0, 2.0, 0.0]],
        (np.arange(12)[:, None] // 3 != np.arange(12)[None, :] // 3) + 1.0 - np.eye(12),
    ],
    ids=["one_atom", "three_atoms", "two_ties_a_row", "four_tied_blocks"],
)
def test_group_table_matches_each_row_sorted_on_its_own(matrix):
    fm = FiniteMetric(np.array(matrix, dtype=float))
    for q, row in enumerate(fm.matrix):
        assert fm.order[q].tolist() == np.argsort(row, kind="stable").tolist()
        assert fm.sorted_rows[q].tolist() == np.sort(row).tolist()
        assert fm.group[q].tolist() == np.unique(row, return_inverse=True)[1].tolist()
    for table in (fm.matrix, fm.order, fm.sorted_rows, fm.group):
        assert not table.flags.writeable


def test_finite_metric_reads_a_negative_zero_self_distance_as_zero():
    # -0.0 passes the zero-diagonal check; the radius queries hand the
    # diagonal back, so a radius 0 would print as -0.0.  The caller's
    # array is copied, not frozen
    given = np.array([[-0.0, 1.0], [1.0, -0.0]])
    fm = FiniteMetric(given)
    assert not np.signbit(fm.matrix).any() and not np.signbit(fm.sorted_rows).any()
    assert given.flags.writeable


def test_finite_metric_point_checks():
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fm.check_point(0)
    fm.check_point(1)
    with pytest.raises(DomainError):
        fm.check_point(2)
    with pytest.raises(DomainError):
        fm.check_point(0.5)


def test_interval_and_box_metrics():
    im = IntervalMetric(0.0, 1.0)
    assert im.contains(0.0) and im.contains(1.0) and not im.contains(1.1)
    assert im.distance(0.2, 0.9) == pytest.approx(0.7)
    with pytest.raises(DomainError):
        im.check_point(-0.5)

    bm = BoxMetric([0.0, 0.0], [1.0, 2.0])
    assert bm.distance((0.0, 0.0), (1.0, 2.0)) == pytest.approx(np.sqrt(5.0))
    assert bm.contains((0.5, 1.9)) and not bm.contains((0.5, 2.1))


def test_distances_to_matches_scalar():
    im = IntervalMetric(0.0, 1.0)
    pts = np.array([0.1, 0.5, 0.9])
    out = im.distances_to(0.4, pts)
    assert np.allclose(out, [0.3, 0.1, 0.5])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),  # coarse grid forces distance ties
            st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_neighbor_order_matches_sorted_oracle(pts, query):
    im = IntervalMetric(0.0, 1.0)
    training = [AugmentedPoint(x, z, i) for i, (x, z) in enumerate(pts)]
    got = neighbor_order(im, query, training)
    want = sorted(range(len(pts)), key=lambda i: (abs(pts[i][0] - query), pts[i][1], i))
    assert list(got) == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
            st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
        ),
        min_size=2,
        max_size=10,
        unique_by=lambda t: t[1],  # distinct tie-break draws, the almost-sure case
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.data(),
)
def test_augmented_ball_is_dual_to_prefix(pts, query, data):
    # The first k neighbors are exactly the augmented ball cut at the
    # k-th neighbor's (distance, draw) pair, plus that k-th point itself.
    im = IntervalMetric(0.0, 1.0)
    training = [AugmentedPoint(x, z, i) for i, (x, z) in enumerate(pts)]
    k = data.draw(st.integers(min_value=1, max_value=len(pts)))
    order = neighbor_order(im, query, training)
    kth = training[order[k - 1]]
    ball = AugmentedBall(query, abs(kth.location - query), kth.z)
    inside = {p.source_index for p in training if augmented_ball_contains(ball, p, im)}
    assert inside == set(order[: k - 1])


def test_load_finite_metric(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("2\n0.0 1.25\n1.25 0.0\n")
    fm = load_finite_metric(path)
    assert fm.size == 2
    assert fm.distance(0, 1) == 1.25


def test_loading_300_atoms_holds_about_its_text(tmp_path, monkeypatch):
    # the parse, FiniteMetric's own checks and tables aside, peaks near twice
    # the file's 1.7 MB of text (tracemalloc): a list of the 90,000 token
    # strings and one of their floats peaked at 10.5 MB
    rng = np.random.default_rng(7)
    pts = rng.random((300, 2))
    matrix = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    text = "300\n" + "\n".join(" ".join(map(repr, row)) for row in matrix.tolist()) + "\n"
    path = tmp_path / "space.txt"
    path.write_text(text)
    monkeypatch.setattr(metric_module, "FiniteMetric", lambda values: values)
    tracemalloc.start()
    try:
        values = load_finite_metric(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tobytes() == matrix.tobytes()
    assert peak < 3 * len(text), (peak, len(text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty metric file"),
        (" \n\n", "empty metric file"),
        ("two\n0 1\n1 0\n", "first token must be the atom count"),
        ("2\n0 1\n1\n", r"expected 2x2 matrix entries after the count, got 3"),
        ("2\n0 x\n1 0 7\n", r"expected 2x2 matrix entries after the count, got 5"),  # the count first
        ("2\n0 x\n1 y\n", "could not convert string to float: 'x'"),  # the first bad token
        ("2 0 1\n1 0", None),  # tokens may break across lines anywhere
        ("0\n", "^{path}: atom count must be at least 1, got 0$"),  # before FiniteMetric's refusal
        ("-1\n0\n", "^{path}: atom count must be at least 1, got -1$"),  # (-1)**2 entries fit
    ],
)
def test_load_finite_metric_refuses_in_order(tmp_path, text, message):
    path = tmp_path / "space.txt"
    path.write_text(text)
    if message is None:
        assert load_finite_metric(path).matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        return
    with pytest.raises(ValueError, match=message.format(path=re.escape(str(path)))):
        load_finite_metric(path)


def test_load_finite_metric_reports_undecodable_text_at_its_file_offset(tmp_path):
    # before the count or a bad head, as a whole-file read did, and at its
    # offset in the file, past the first chunk a line-by-line read decodes
    for head in (b"300\n", b"x\n"):
        data = head + b"0.5 " * 30_000 + b"\xff" + b" 1" * 59_999
        path = tmp_path / "space.txt"
        path.write_bytes(data)
        at = data.index(b"\xff")
        with pytest.raises(UnicodeDecodeError, match=f"position {at}:"):
            load_finite_metric(path)
