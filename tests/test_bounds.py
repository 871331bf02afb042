"""Closed-form guarantees against independent high-precision recomputation.

Oracles: mpmath for normal quantities, exact rational arithmetic for
binomial tails.  Frozen decimals below were derived by hand or with
mpmath before the implementation existed.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from nnrates.bounds import (
    MarginSpec,
    SmoothnessSpec,
    binomial_tail,
    concentration_bounds,
    expected_risk_bound,
    exponential_regime,
    holder_translate,
    lower_bound_constants,
    margin_rate,
    misclassification_upper_bound,
    normal_cdf,
    pointwise_risk_bound,
    slud_bound,
    smooth_thresholds,
    upper_bound_params,
    zero_bayes_params,
)
from nnrates.distributions import PiecewiseUniform1D
from nnrates.errors import InapplicableError, InfeasibleParametersError


def exact_tail_ge(n, q, count):
    q = Fraction(q)
    return sum(
        Fraction(math.comb(n, j)) * q**j * (1 - q) ** (n - j) for j in range(count, n + 1)
    )


# -- high-probability schedule ---------------------------------------------------


def test_upper_bound_params_frozen():
    got = upper_bound_params(10**4, 100, 0.1)
    slack = math.sqrt((4.0 / 100) * math.log(20.0))
    assert got.chernoff_slack == pytest.approx(slack, rel=1e-15)
    assert got.mass_level == pytest.approx(0.01 / (1 - slack), rel=1e-15)
    assert got.mass_level == pytest.approx(0.0152943475927, abs=1e-12)
    assert got.band == pytest.approx(0.173081838260, abs=1e-12)

    got = upper_bound_params(100, 8, 0.5)
    assert got.mass_level == pytest.approx(0.47776771013588715, rel=1e-14)
    assert got.band == pytest.approx(math.sqrt(math.log(4.0) / 8.0), rel=1e-15)


def test_upper_bound_params_feasibility():
    with pytest.raises(InfeasibleParametersError):
        upper_bound_params(1000, 11, 0.1)  # k <= 4 ln(2/delta)
    upper_bound_params(1000, 12, 0.1)
    with pytest.raises(ValueError):
        upper_bound_params(100, 100, 0.1)  # k must stay below n
    with pytest.raises(ValueError):
        upper_bound_params(100, 10, 1.5)


def test_upper_bound_internal_consistency():
    # the two concentration losses together must stay within delta^2
    for n, k, delta in [(10**4, 100, 0.1), (10**5, 400, 0.05), (500, 60, 0.3)]:
        got = upper_bound_params(n, k, delta)
        loss = math.exp(-k * got.chernoff_slack**2 / 2.0) + 2.0 * math.exp(
            -2.0 * k * got.band**2
        )
        assert loss <= delta**2 + 1e-12
        assert got.mass_level > k / n


def test_misclassification_upper_bound_composition():
    dist = PiecewiseUniform1D(
        [0.5, 0.5], ([0.0, 0.5, 1.0], [2.0, 0.0]), ([0.0, 0.5, 1.0], [0.0, 2.0])
    )
    n, k, delta = 10**4, 100, 0.1
    params = upper_bound_params(n, k, delta)
    want = delta + 2.0 * params.band * params.mass_level
    got = misclassification_upper_bound(dist, n, k, delta)
    assert got == pytest.approx(want, abs=1e-9)
    # a huge delta drives the sum past 1; the reported bound clamps
    assert misclassification_upper_bound(dist, 10**4, 200, 0.9) <= 1.0


# -- lower bound constants -------------------------------------------------------


def test_lower_bound_constants_against_mpmath():
    c = lower_bound_constants(100)
    want_c1 = float(mpmath.mpf(1) / 2 - mpmath.ncdf(-1 / mpmath.sqrt(3)))
    want_c2 = float(1 - mpmath.ncdf(2 + 2 / mpmath.sqrt(100)))
    assert c.wrong_vote == pytest.approx(want_c1, rel=1e-13)
    assert c.count_tail == pytest.approx(want_c2, rel=1e-13)
    assert c.product == pytest.approx(want_c1 * want_c2, rel=1e-13)
    assert c.product == pytest.approx(0.0030330, abs=2e-7)


def test_count_tail_increases_to_limit():
    last = 0.0
    for k in (1, 4, 16, 64, 256, 4096):
        cur = lower_bound_constants(k).count_tail
        assert cur > last
        last = cur
    assert last < 1 - normal_cdf(2.0)
    assert lower_bound_constants(10**12).count_tail == pytest.approx(
        float(1 - mpmath.ncdf(2)), abs=2e-7
    )


# -- margin rates ----------------------------------------------------------------


def test_margin_rate_frozen_highprob():
    got = margin_rate(1000, SmoothnessSpec(1.0, 1.0), MarginSpec(1.0, 1.0), delta=0.1)
    assert got.mode == "highprob"
    assert got.k == round(100.0 * math.log(10.0) ** (1.0 / 3.0))
    assert got.k == 132
    assert got.bound == pytest.approx(0.1 + (math.log(10.0) / 1000.0) ** (1.0 / 3.0), rel=1e-15)
    assert got.bound == pytest.approx(0.23205, abs=1e-5)


def test_margin_rate_expected_mode():
    got = margin_rate(1000, SmoothnessSpec(1.0, 1.0), MarginSpec(1.0, 1.0))
    assert got.mode == "expected"
    assert got.k == 100
    assert got.bound == pytest.approx(1000.0 ** (-2.0 / 3.0), rel=1e-15)
    scaled = margin_rate(
        1000, SmoothnessSpec(1.0, 1.0), MarginSpec(1.0, 1.0), k_scale=2.0, c_scale=3.0
    )
    assert scaled.k == 200
    assert scaled.bound == pytest.approx(3.0 * 1000.0 ** (-2.0 / 3.0), rel=1e-15)


def test_schedules_past_the_float_range_refuse_as_value_errors():
    # each of these leaked an OverflowError (a traceback at the CLI)
    s, m = SmoothnessSpec(1.0, 1.0), MarginSpec(1.0, 1.0)
    for scale in ({"k_scale": math.inf}, {"c_scale": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            margin_rate(1000, s, m, **scale)
    with pytest.raises(InfeasibleParametersError, match="float range"):
        margin_rate(1000, s, m, delta=1e-320)  # 1/delta overflows to inf
    with pytest.raises(InfeasibleParametersError, match="float range"):
        exponential_regime(0.5, SmoothnessSpec(1e-300, 1e-300), 10_000)
    with pytest.raises(InfeasibleParametersError, match="float range"):
        exponential_regime(0.5, SmoothnessSpec(1.0 / 6000.0, 0.225), 10)  # (2L)**(1/a) underflows to 0
    big = 10**400  # an int no float holds
    with pytest.raises(InfeasibleParametersError, match="float range"):
        upper_bound_params(10 * big, big, 0.1)
    with pytest.raises(InfeasibleParametersError, match="float range"):
        zero_bayes_params(10 * big, big, 0.1)
    with pytest.raises(InfeasibleParametersError, match="float range"):
        lower_bound_constants(big)


def test_margin_rate_k_floor():
    got = margin_rate(2, SmoothnessSpec(1.0, 1.0), MarginSpec(1.0, 1.0), k_scale=1e-9)
    assert got.k == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        SmoothnessSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        SmoothnessSpec(1.0, -1.0)
    with pytest.raises(ValueError):
        MarginSpec(-0.5, 1.0)


# -- smoothness translation ------------------------------------------------------


def test_smooth_thresholds_frozen():
    upper, lower = smooth_thresholds(SmoothnessSpec(1.0, 0.5), 0.1, 0.05, 10**5, 100)
    assert upper == pytest.approx(0.05 + 0.5 * 0.1, rel=1e-15)
    assert lower == pytest.approx(0.1 - 0.5 * (111.0 / 10**5), rel=1e-12)
    assert lower == pytest.approx(0.099445, abs=1e-6)
    # the lower band never goes negative
    _, lo = smooth_thresholds(SmoothnessSpec(1.0, 10.0), 0.1, 0.05, 100, 4)
    assert lo == 0.0


def test_holder_translate():
    spec = holder_translate(1.0, 1, 1.0, 1.0)
    assert spec.exponent == pytest.approx(1.0)
    assert spec.constant == pytest.approx(0.5)  # interval volume factor is 2
    spec = holder_translate(1.0, 2, 3.0, 0.5)
    v2 = float(mpmath.pi)
    assert spec.exponent == pytest.approx(0.5)
    assert spec.constant == pytest.approx(3.0 / (0.5 * v2) ** 0.5, rel=1e-12)


def test_expected_risk_bound_formula():
    k, n = 64, 10**4
    s, m = SmoothnessSpec(1.0, 0.5), MarginSpec(1.0, 2.0)
    want = math.exp(-k / 8.0) + 6.0 * 2.0 * max(
        2.0 * 0.5 * (2.0 * k / n) ** 1.0, math.sqrt(8.0 * (1.0 + 2.0) / k)
    ) ** (1.0 + 1.0)
    assert expected_risk_bound(n, k, s, m) == pytest.approx(want, rel=1e-15)


def test_pointwise_risk_bound():
    want = math.exp(-1.0) + 2.0 * math.exp(-4.0)
    assert pointwise_risk_bound(8, 0.5, 0.0) == pytest.approx(want, rel=1e-15)
    assert pointwise_risk_bound(8, 0.5, 0.0) == pytest.approx(0.4045107, abs=1e-7)
    with pytest.raises(InapplicableError):
        pointwise_risk_bound(8, 0.1, 0.2)  # drift at least as large as the margin
    with pytest.raises(ValueError):
        pointwise_risk_bound(8, 0.7, 0.0)


def test_exponential_regime_frozen():
    got = exponential_regime(0.4, SmoothnessSpec(1.0, 0.5), 1000)
    assert got.k == 200
    assert got.rate_constant == pytest.approx(0.4**3 / 8.0, rel=1e-12)
    assert got.delta == pytest.approx(2.0 * math.exp(-200 * 0.16 / 4.0), rel=1e-12)
    assert got.delta == pytest.approx(6.70925e-4, abs=1e-9)
    assert got.bound == pytest.approx(2.0 * math.exp(-0.008 * 1000), rel=1e-12)
    with pytest.raises(InfeasibleParametersError):
        exponential_regime(0.01, SmoothnessSpec(1.0, 10.0), 4)  # k would be 0
    with pytest.raises(ValueError):
        exponential_regime(0.7, SmoothnessSpec(1.0, 0.5), 1000)


def test_zero_bayes_params_frozen():
    got = zero_bayes_params(100, 1, 0.1)
    lg = math.log(20.0)
    want = 0.01 + (2.0 * lg / 100.0) * (1.0 + math.sqrt(1.0 + 1.0 / lg))
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(0.139110, abs=1e-6)
    # strictly increasing in k
    last = 0.0
    for k in range(1, 51):
        cur = zero_bayes_params(200, k, 0.1)
        assert cur > last
        last = cur


# -- small-count tools -----------------------------------------------------------


def test_binomial_tail_exact_oracle():
    for n in (1, 2, 5, 17, 40):
        for q in (0.0, 0.05, 0.25, 0.5, 0.9, 1.0):
            for count in range(0, n + 1):
                want = float(exact_tail_ge(n, q, count))
                got = binomial_tail(n, q, count, direction="ge")
                assert got == pytest.approx(want, abs=1e-12)
                want_le = 1.0 - float(exact_tail_ge(n, q, count + 1))
                got_le = binomial_tail(n, q, count, direction="le")
                assert got_le == pytest.approx(want_le, abs=1e-12)


def test_binomial_tail_frozen_example():
    assert binomial_tail(4, 0.25, 1, direction="ge") == pytest.approx(0.68359375, abs=1e-12)
    with pytest.raises(ValueError):
        binomial_tail(4, 1.25, 1)
    with pytest.raises(ValueError):
        binomial_tail(4, 0.25, 1, direction="between")


def test_normal_cdf_against_mpmath():
    for a in (-6.0, -2.2, -0.5, 0.0, 0.3, 1.0, 4.5):
        assert normal_cdf(a) == pytest.approx(float(mpmath.ncdf(a)), rel=1e-13, abs=1e-16)


def test_slud_bound_frozen_example():
    got, clause = slud_bound(10, 0.3, 4)
    want = float(1 - mpmath.ncdf(1 / mpmath.sqrt(2.1)))
    assert clause == "b"
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(0.2450765, abs=1e-7)
    exact = float(exact_tail_ge(10, 0.3, 4))
    assert exact == pytest.approx(0.350389, abs=1e-6)
    assert got <= exact


def test_slud_soundness_small_grid():
    # acceptance runs the full grid; keep a fast slice here
    for n in range(1, 25):
        for q in (0.05, 0.2, 0.35, 0.5):
            for count in range(0, n + 1):
                got, clause = slud_bound(n, q, count)
                if clause == "inapplicable":
                    assert math.isnan(got)
                    continue
                exact = float(exact_tail_ge(n, q, count))
                assert got <= exact + 1e-12, (n, q, count, clause)


def test_slud_requires_q_below_half():
    with pytest.raises(ValueError):
        slud_bound(10, 0.7, 4)
    with pytest.raises(ValueError):
        slud_bound(10, 0.0, 4)


def test_binomial_median_fact_small():
    for n in range(2, 30):
        for k in range(1, n):
            assert binomial_tail(n, k / n, k + 1, direction="ge") <= 0.5 + 1e-12


def test_concentration_bounds():
    assert concentration_bounds("chernoff_ball", 100, 0.3) == pytest.approx(
        math.exp(-100 * 0.09 / 2.0), rel=1e-15
    )
    # the deviation tail is two-sided by construction
    assert concentration_bounds("hoeffding_dev", 50, 0.2) == pytest.approx(
        2.0 * math.exp(-2 * 50 * 0.04), rel=1e-15
    )
    with pytest.raises(ValueError):
        concentration_bounds("bernstein", 50, 0.2)
    with pytest.raises(ValueError):
        concentration_bounds("chernoff_ball", 50, 1.2)
