import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrates._rng import generator
from nnrates.classifier import fit, fit_arrays, predict
from nnrates.distributions import AugmentedSample
from nnrates.harness import _packed_sort, _Trials1D
from nnrates.metric import FiniteMetric, IntervalMetric
from references import reference_window


def brute_predict(space, xs, zs, ys, k, query):
    """Reference rule: sort by (distance, z, index), majority with ties to 1."""
    keys = sorted(range(len(xs)), key=lambda i: (space.distance(query, xs[i]), zs[i], i))
    vote = sum(ys[i] for i in keys[:k])
    return 1 if 2 * vote >= k else 0


def test_fit_validation():
    im = IntervalMetric(0.0, 1.0)
    good = [AugmentedSample(0.1, 0.5, 0, 0), AugmentedSample(0.9, 0.2, 1, 1)]
    model = fit(im, good, k=1)
    assert model.n == 2
    with pytest.raises(ValueError):
        fit(im, [AugmentedSample(0.1, 0.5, 0, 0), AugmentedSample(0.9, 0.2, 2, 1)], k=1)
    with pytest.raises(ValueError):
        fit(im, [AugmentedSample(0.1, 1.5, 0, 0)], k=1)  # z outside [0, 1)
    with pytest.raises(ValueError):
        fit(im, good, k=3)  # k > n
    with pytest.raises(ValueError):
        fit(im, good, k=0)
    with pytest.raises(ValueError, match="^cannot fit on an empty sample$"):
        fit(im, [], k=1)


def test_fit_on_a_finite_metric_keeps_atom_indices():
    fm = FiniteMetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    model = fit(fm, [AugmentedSample(1, 0.5, 1, 0), AugmentedSample(0, 0.2, 0, 1)], k=1)
    assert model.xs.dtype == np.intp and model.xs.tolist() == [1, 0]
    assert [predict(model, q) for q in (0, 1)] == [0, 1]


def test_even_vote_tie_goes_to_one():
    im = IntervalMetric(0.0, 1.0)
    xs = np.array([0.4, 0.6, 0.1, 0.9])
    zs = np.array([0.1, 0.2, 0.3, 0.4])
    ys = np.array([1, 0, 0, 1])
    model = fit_arrays(im, xs, zs, ys, k=2)
    # nearest two of 0.5 carry one vote each way; the tie resolves to 1
    assert predict(model, 0.5) == 1


def test_distance_tie_uses_z_then_index():
    im = IntervalMetric(0.0, 1.0)
    xs = np.array([0.4, 0.6])  # equidistant from 0.5
    ys = np.array([1, 0])
    m_low_first = fit_arrays(im, xs, np.array([0.1, 0.9]), ys, k=1)
    m_high_first = fit_arrays(im, xs, np.array([0.9, 0.1]), ys, k=1)
    assert predict(m_low_first, 0.5) == 1
    assert predict(m_high_first, 0.5) == 0
    # exact (distance, z) tie falls back to the source index
    m_same = fit_arrays(im, xs, np.array([0.5, 0.5]), ys, k=1)
    assert predict(m_same, 0.5) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_predict_matches_brute_force_with_ties(n, seed):
    rng = np.random.default_rng(seed)
    im = IntervalMetric(0.0, 1.0)
    xs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # heavy location ties
    zs = rng.random(n)
    ys = rng.integers(0, 2, size=n)
    k = int(rng.integers(1, n + 1))
    model = fit_arrays(im, xs, zs, ys, k)
    for query in rng.random(4):
        assert predict(model, query) == brute_predict(im, xs, zs, ys, k, query)


class FixedRow:
    """A stand-in 1-D family whose every draw is the one training row given."""

    def __init__(self, xs, zs, ys):
        self.xs, self.zs, self.ys = xs, zs, ys

    def _draw(self, rng, xs, zs, ys, scratch):
        xs[:] = self.xs
        if zs is not None:
            zs[:] = self.zs
        ys[:] = self.ys


def window_table(xs, zs, ys, k):
    """The switches and int8 preds that the 1-D trial kernel builds from one training row."""
    trials = _Trials1D(FixedRow(xs, zs, ys), xs.size, k)
    edges, preds = trials._train(generator(0).bit_generator.state)
    return edges[1:-1].copy(), preds.view(np.int8).copy()


def test_window_table_orders_repeated_locations_by_tie_break():
    xs = np.array([0.5, 0.25, 0.5, 0.75, 0.5])
    zs = np.array([0.9, 0.1, 0.3, 0.5, 0.6])
    ys = np.array([1, 0, 0, 1, 1])
    switches, preds = window_table(xs, zs, ys, k=1)
    # sorted by (x, z): 0.25, then 0.5 at z = 0.3, 0.6, 0.9, then 0.75.  The
    # windows that start inside the run at 0.5 hold its least tie-break, z = 0.3
    assert switches.tolist() == [0.375, 0.5, 0.5, 0.625]
    assert preds.tolist() == [0, 0, 0, 0, 1]


def test_window_table_packed_sort_matches_lexsort():
    # the packed-key sort of locations in [0, 1.5) gives lexsort's order, with
    # a -0.0 location packed as +0.0; repeated locations (-0.0 beside 0.0
    # among them) are refused, and the table falls back to the tie-break
    # order, with `predict`'s label where a window splits a repeat.  A window
    # with an empty range between equal switches is read by no query.  The
    # keys sort as doubles: at the ends, 0.0 or -0.0 with label 1 packs as
    # the bits of 5e-324, next to 5e-324 with label 0
    rng = np.random.default_rng(8)
    alone = rng.random(50)
    alone[3] = -0.0
    beside_zero = alone.copy()
    beside_zero[7] = 0.0
    ends = alone.copy()
    ends[[10, 11, 12]] = 5e-324, 1.0, np.nextafter(1.0, 0.0)
    plus_zero = ends.copy()
    plus_zero[3] = 0.0
    rows = [(alone, True, {}), (beside_zero, False, {}), (np.round(rng.random(50), 1), False, {})]
    rows += [(row, True, {3: 1, 10: 0, 11: 1, 12: 0}) for row in (ends, plus_zero)]
    for xs, packed, labels in rows:
        zs = rng.random(xs.size)
        ys = rng.integers(0, 2, size=xs.size)
        ys[list(labels)] = list(labels.values())
        order = np.lexsort((zs, xs))
        t, labels = np.empty(xs.size), np.empty(xs.size, dtype=np.int64)
        assert _packed_sort(xs, ys, t, labels, np.empty(xs.size, dtype=bool)) == packed
        if packed:
            assert t.tobytes() == (xs[order] + 0.0).tobytes()
            assert labels.tolist() == ys[order].tolist()
        for k in (1, 4, 49, 50):
            switches, preds = window_table(xs, zs, ys, k)
            want_switches, want_preds = reference_window(xs, zs, ys, k)
            assert switches.tobytes() == want_switches.tobytes(), k
            live = np.diff([-np.inf, *want_switches, np.inf]) > 0.0
            assert preds[live].tolist() == want_preds[live].tolist(), k


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 3, 5, 9]),
)
def test_window_table_matches_scalar_predict(n, seed, grid):
    # read at a query as an excess trial reads it, the table labels the
    # query as `predict` does: on rows of distinct locations (grid 0) and
    # on rows whose locations repeat on a grid of 3, 5 or 9 points
    rng = np.random.default_rng(seed)
    im = IntervalMetric(0.0, 1.0)
    xs = rng.choice(np.linspace(0.0, 1.0, grid), size=n) if grid else rng.random(n)
    zs = rng.random(n)
    ys = rng.integers(0, 2, size=n)
    k = int(rng.integers(1, n + 1))
    switches, preds = window_table(xs, zs, ys, k)
    model = fit_arrays(im, xs, zs, ys, k)
    for q in rng.random(16):
        assert preds[np.searchsorted(switches, q, side="left")] == predict(model, q)
