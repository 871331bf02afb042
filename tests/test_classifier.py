import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrates.classifier import (
    _window_structure,
    fit,
    fit_arrays,
    predict,
    predict_batch,
)
from nnrates.distributions import AugmentedSample
from nnrates.metric import FiniteMetric, IntervalMetric


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


def test_window_table_orders_repeated_locations_by_tie_break():
    im = IntervalMetric(0.0, 1.0)
    xs = np.array([0.5, 0.25, 0.5, 0.75, 0.5])
    zs = np.array([0.9, 0.1, 0.3, 0.5, 0.6])
    ys = np.array([1, 0, 0, 1, 1])
    switches, preds = _window_structure(fit_arrays(im, xs, zs, ys, k=1))
    # sorted by (x, z): 0.25, then 0.5 at z = 0.3, 0.6, 0.9, then 0.75
    assert switches.tolist() == [0.375, 0.5, 0.5, 0.625]
    assert preds.tolist() == [0, 0, 1, 1, 1]


def test_window_table_packed_sort_matches_lexsort():
    # the packed-key sort serves [0, 2); a -0.0 location packs as +0.0,
    # repeated locations (-0.0 beside 0.0 among them) fall back to the
    # tie-break order, and an interval reaching outside [0, 2) sorts by
    # lexsort alone
    rng = np.random.default_rng(8)
    alone = rng.random(50)
    alone[3] = -0.0
    beside_zero = alone.copy()
    beside_zero[7] = 0.0
    cases = [
        (IntervalMetric(0.0, 1.0), alone),
        (IntervalMetric(0.0, 1.0), beside_zero),
        (IntervalMetric(0.0, 1.0), np.round(rng.random(50), 1)),
        (IntervalMetric(-1.0, 3.0), rng.uniform(-1.0, 3.0, 50)),
    ]
    for space, xs in cases:
        zs = rng.random(xs.size)
        ys = rng.integers(0, 2, size=xs.size)
        for k in (1, 4, 49, 50):
            switches, preds = _window_structure(fit_arrays(space, xs, zs, ys, k))
            order = np.lexsort((zs, xs))
            t = xs[order]
            sums = np.concatenate([[0], np.cumsum(ys[order])])
            want = (t[: xs.size - k] + t[k:]) / 2.0
            assert switches.tobytes() == want.tobytes(), (space, k)
            assert preds.tolist() == (2 * (sums[k:] - sums[: xs.size + 1 - k]) >= k).tolist()
            assert preds.dtype == np.int8


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_predict_matches_scalar_interval(n, seed):
    rng = np.random.default_rng(seed)
    im = IntervalMetric(0.0, 1.0)
    xs = rng.random(n)
    zs = rng.random(n)
    ys = rng.integers(0, 2, size=n)
    k = int(rng.integers(1, n + 1))
    model = fit_arrays(im, xs, zs, ys, k)
    queries = rng.random(16)
    got = predict_batch(model, queries)
    want = np.array([predict(model, q) for q in queries])
    assert np.array_equal(got, want)


def test_batch_predict_matches_scalar_atomic():
    matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    fm = FiniteMetric(matrix)
    rng = np.random.default_rng(5)
    n = 25
    xs = rng.integers(0, 3, size=n)
    zs = rng.random(n)
    ys = rng.integers(0, 2, size=n)
    for k in (1, 2, 5):
        model = fit_arrays(fm, xs, zs, ys, k)
        queries = np.array([0, 1, 2, 0, 1])
        got = predict_batch(model, queries)
        want = np.array([predict(model, int(q)) for q in queries])
        assert np.array_equal(got, want)
