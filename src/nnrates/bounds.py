"""Closed-form finite-sample bounds for nearest-neighbor classification.

Every function here evaluates an explicit formula: parameter schedules for
the high-probability misclassification bound, smoothness and margin rate
recipes, exponential-regime schedules, exact binomial tails, the normal
CDF, and the Gaussian lower-bound constants.  Nothing is estimated; the
Monte Carlo side lives in the harness.

Numeric conventions:

* All logarithms are natural.
* ``binomial_tail`` is exact to relative error 1e-12 up to n = 10^4
  (stable pmf recurrence anchored next to the mode, exactly-rounded
  summation); past it, to 3.2e-11 at 2*10^4 and 2.3e-10 at 10^5.
* ``normal_cdf`` evaluates through the platform complementary error
  function, a documented rational/continued-fraction implementation
  accurate to under one ulp, well inside the 1e-12 contract.
* Raw bound values are returned unclamped unless a function documents a
  probability clamp; report writers record raw values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleParametersError

__all__ = [
    "ExponentialRegime",
    "LowerBoundConstants",
    "MarginRateResult",
    "MarginSpec",
    "SmoothnessSpec",
    "UpperBoundParams",
    "binomial_tail",
    "expected_risk_bound",
    "exponential_regime",
    "holder_translate",
    "lower_bound_constants",
    "margin_rate",
    "normal_cdf",
    "slud_bound",
    "smooth_thresholds",
    "upper_bound_params",
    "zero_bayes_params",
]


@dataclass(frozen=True)
class UpperBoundParams:
    """Parameter schedule of the high-probability misclassification bound.

    ``mass_level`` is the ball-mass level p defining which radii the
    effective boundary quantifies over; ``band`` is the distance from 1/2
    that the ball-averaged label frequency must keep; ``chernoff_slack``
    is 1 - k/(n * mass_level), the multiplicative slack spent on the
    sample-count concentration step.
    """

    n: int
    k: int
    delta: float
    mass_level: float
    band: float
    chernoff_slack: float


@dataclass(frozen=True)
class SmoothnessSpec:
    """Ball-average smoothness: |eta(ball) - eta(center)| <= constant * open_mass**exponent."""

    exponent: float
    constant: float

    def __post_init__(self):
        if not (self.exponent > 0.0 and self.constant > 0.0):
            raise ValueError("smoothness exponent and constant must be positive")


@dataclass(frozen=True)
class MarginSpec:
    """Margin condition: mass{|eta - 1/2| <= t} <= constant * t**exponent."""

    exponent: float
    constant: float

    def __post_init__(self):
        if not (self.exponent >= 0.0 and self.constant > 0.0):
            raise ValueError("margin exponent must be >= 0 and constant > 0")


@dataclass(frozen=True)
class LowerBoundConstants:
    """Constants of the expected-mistake lower bound.

    ``wrong_vote`` bounds below the chance that a near-fair neighbor vote
    lands on the wrong side; ``count_tail`` bounds below the chance that
    the ball at the smaller radius holds fewer than k points; ``product``
    is their product, the constant multiplying the high-error mass.
    """

    wrong_vote: float
    count_tail: float
    product: float


class MarginRateResult(NamedTuple):
    k: int
    bound: float
    mode: str


class ExponentialRegime(NamedTuple):
    k: int
    delta: float
    rate_constant: float
    bound: float


def _infeasible_on_overflow(schedule):
    """Refuse, as infeasible, parameters whose schedule arithmetic leaves the float range."""

    @functools.wraps(schedule)
    def checked(*args, **kwargs):
        try:
            return schedule(*args, **kwargs)
        except ArithmeticError as exc:  # overflow, or a power that underflows into a divisor
            raise InfeasibleParametersError(
                f"{schedule.__qualname__} leaves the float range: {exc}"
            ) from exc

    return checked


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _log_over(c: float, delta: float) -> float:
    """ln(c/delta), kept finite where c/delta overflows (a subnormal delta)."""
    ratio = c / delta
    if ratio < math.inf:
        return math.log(ratio)
    return math.log(c) - math.log(delta)


@_infeasible_on_overflow
def upper_bound_params(n: int, k: int, delta: float) -> UpperBoundParams:
    """Mass level and band for the delta-confidence misclassification bound.

    mass_level = (k/n) / (1 - sqrt((4/k) ln(2/delta))), band =
    min(1/2, sqrt((1/k) ln(2/delta))).  Requires k > 4 ln(2/delta), or the
    mass level is undefined and :class:`InfeasibleParametersError` raises.
    """
    _check_delta(delta)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    log_term = _log_over(2.0, delta)
    slack_sq = 4.0 * log_term / k
    if slack_sq >= 1.0:
        raise InfeasibleParametersError(
            f"k={k} is too small for delta={delta}: need k > {4.0 * log_term:.6g}"
        )
    slack = math.sqrt(slack_sq)
    mass_level = (k / n) / (1.0 - slack)
    band = min(0.5, math.sqrt(log_term / k))
    return UpperBoundParams(int(n), int(k), float(delta), mass_level, band, slack)


def smooth_thresholds(
    s: SmoothnessSpec, mass_level: float, band: float, n: int, k: int
) -> tuple[float, float]:
    """Pointwise-margin bands certified by ball-average smoothness.

    Returns (upper_band, lower_band): points flagged Boundary at
    (mass_level, band) must have |eta - 1/2| <= upper_band, and points
    with 0 < |eta - 1/2| <= lower_band must lie in the high-error set for
    (n, k).  lower_band floors at zero when smoothing swallows it.
    """
    upper = band + s.constant * mass_level**s.exponent
    reach = (k + math.sqrt(k) + 1.0) / n
    lower = max(0.0, 1.0 / math.sqrt(k) - s.constant * reach**s.exponent)
    return upper, lower


@_infeasible_on_overflow
def holder_translate(
    holder_exponent: float, dim: int, holder_constant: float, density_floor: float
) -> SmoothnessSpec:
    """Convert a Holder condition on a lower-bounded density to ball-average form.

    exponent = holder_exponent / dim; constant = holder_constant /
    (density_floor * v)**(holder_exponent/dim) with v the Euclidean unit-ball
    volume pi**(d/2) / Gamma(d/2 + 1).  v comes from the recurrence
    V_d = (2 pi/d) V_(d-2) with V_0 = 1 and V_1 = 2, which gives exactly 2
    at d = 1 and pi at d = 2.
    """
    if not (holder_exponent > 0.0 and holder_constant > 0.0 and density_floor > 0.0):
        raise ValueError("holder_exponent, holder_constant, density_floor must be positive")
    if not (isinstance(dim, (int,)) and dim >= 1):
        raise ValueError(f"dim must be a positive integer, got {dim}")
    unit_ball = 2.0 if dim % 2 else 1.0
    for d in range(2 + dim % 2, dim + 1, 2):
        unit_ball *= 2.0 * math.pi / d
    exponent = holder_exponent / dim
    constant = holder_constant / (density_floor * unit_ball) ** exponent
    return SmoothnessSpec(exponent, constant)


@_infeasible_on_overflow
def margin_rate(
    n: int,
    s: SmoothnessSpec,
    m: MarginSpec,
    delta: float | None = None,
    k_scale: float = 1.0,
    c_scale: float = 1.0,
) -> MarginRateResult:
    """Rate-optimal k and the matching excess-risk bound.

    With ``delta`` given (high-probability mode): k = k_scale *
    n**(2a/(2a+1)) * ln(1/delta)**(1/(2a+1)) rounded to the nearest
    integer >= 1, bound = delta + c_scale * (ln(1/delta)/n)**(ab/(2a+1)).
    Without ``delta`` (expected mode): k = k_scale * n**(2a/(2a+1)),
    bound = c_scale * n**(-a(b+1)/(2a+1)).  Here a, b are the smoothness
    and margin exponents; k_scale and c_scale are user-chosen constants
    recorded verbatim in reports.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 < k_scale < math.inf and 0.0 < c_scale < math.inf):
        raise ValueError("k_scale and c_scale must be positive and finite")
    a, b = s.exponent, m.exponent
    denom = 2.0 * a + 1.0
    if delta is not None:
        _check_delta(delta)
        log_term = _log_over(1.0, delta)
        k = max(1, round(k_scale * n ** (2.0 * a / denom) * log_term ** (1.0 / denom)))
        bound = delta + c_scale * (log_term / n) ** (a * b / denom)
        return MarginRateResult(int(k), float(bound), "highprob")
    k = max(1, round(k_scale * n ** (2.0 * a / denom)))
    bound = c_scale * n ** (-a * (b + 1.0) / denom)
    return MarginRateResult(int(k), float(bound), "expected")


def expected_risk_bound(n: int, k: int, s: SmoothnessSpec, m: MarginSpec) -> float:
    """exp(-k/8) + 6C max(2L(2k/n)**a, sqrt(8(b+2)/k))**(b+1), raw (may exceed 1)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    a, level = s.exponent, s.constant
    b, cmul = m.exponent, m.constant
    spread = max(2.0 * level * (2.0 * k / n) ** a, math.sqrt(8.0 * (b + 2.0) / k))
    return math.exp(-k / 8.0) + 6.0 * cmul * spread ** (b + 1.0)


@_infeasible_on_overflow
def exponential_regime(margin_floor: float, s: SmoothnessSpec, n: int) -> ExponentialRegime:
    """Schedule achieving an exponential excess-risk rate under a hard margin.

    With every point's margin at least ``margin_floor``: k = floor((n/2) *
    (margin_floor/(2L))**(1/a)), delta = 2 exp(-k margin_floor**2 / 4),
    rate_constant = margin_floor**(2 + 1/a) / (8 (2L)**(1/a)), and the
    expected excess bound 2 exp(-rate_constant * n).
    """
    if not 0.0 < margin_floor <= 0.5:
        raise ValueError(f"margin_floor must lie in (0, 1/2], got {margin_floor}")
    if n < 1:
        raise ValueError("n must be positive")
    a, level = s.exponent, s.constant
    k = math.floor((n / 2.0) * (margin_floor / (2.0 * level)) ** (1.0 / a))
    if k < 1:
        raise InfeasibleParametersError(
            f"n={n} is too small for margin_floor={margin_floor}: schedule gives k={k}"
        )
    delta = 2.0 * math.exp(-k * margin_floor * margin_floor / 4.0)
    rate_constant = margin_floor ** (2.0 + 1.0 / a) / (8.0 * (2.0 * level) ** (1.0 / a))
    bound = 2.0 * math.exp(-rate_constant * n)
    return ExponentialRegime(int(k), delta, rate_constant, bound)


@_infeasible_on_overflow
def zero_bayes_params(n: int, k: int, delta: float) -> float:
    """Mass level for the zero-noise boundary: k/n + (2 ln(2/d)/n)(1 + sqrt(1 + k/ln(2/d)))."""
    _check_delta(delta)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    log_term = _log_over(2.0, delta)
    return k / n + (2.0 * log_term / n) * (1.0 + math.sqrt(1.0 + k / log_term))


def _upper_schedule(n: int, k: int, delta: float, schedule: str) -> tuple[float, float]:
    """The (mass level, band) at which an upper-bound run measures the boundary.

    schedule 'confidence' takes both from `upper_bound_params`; 'zero_bayes'
    takes the zero-noise mass level and pins the band at 1/2.  A mass level
    above 1 quantifies over every radius, which coincides with the level-1
    boundary because balls past full support share their average.
    """
    if schedule == "confidence":
        params = upper_bound_params(n, k, delta)
        return min(1.0, params.mass_level), params.band
    if schedule == "zero_bayes":
        return min(1.0, zero_bayes_params(n, k, delta)), 0.5
    raise ValueError(f"unknown schedule {schedule!r}")


def _binom_log_pmf(n: int, q: float, j: int) -> float:
    """log P(X = j) for X ~ Bin(n, q), 0 < q < 1; log C(n, j) off the exact integer to n = 10^4."""
    if n <= 10_000:
        log_comb = math.log(math.comb(n, j))
    else:
        log_comb = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
    return log_comb + j * math.log(q) + (n - j) * math.log1p(-q)


def binomial_tail(n: int, q: float, count: int, direction: str = "ge") -> float:
    """Exact binomial tail P(X >= count) or P(X <= count), X ~ Bin(n, q).

    Anchored by the log-pmf at the summed index nearest the mode, where it
    cannot underflow, a multiplicative recurrence walks away from the mode
    both ways and stops after its first term of exactly 0.0.  Summed with
    exactly-rounded accumulation.  Against 40-digit mpmath (both tails, q
    in {0.01, 0.1, 0.5}, counts at the mean and 3 sd either side) the worst
    relative error was 4.9e-13 at n = 5,000 and 7.4e-13 at 10^4.  Past 10^4
    log C(n, j) is an lgamma difference (the exact integer's log took 0.14 s
    at 10^5): 2.9e-11 at 10,001, 3.2e-11 at 2*10^4 and 2.3e-10 at 10^5.
    """
    if direction not in ("ge", "le"):
        raise ValueError(f"direction must be 'ge' or 'le', got {direction!r}")
    if not 0 <= count <= n:
        raise ValueError(f"count must lie in [0, n={n}], got {count}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 0.0:
        return 1.0 if (direction == "le" or count == 0) else 0.0
    if q == 1.0:
        return 1.0 if (direction == "ge" or count == n) else 0.0

    lo, hi = (count, n) if direction == "ge" else (0, count)
    anchor = min(max(math.floor((n + 1) * q), lo), hi)
    up, down = q / (1.0 - q), (1.0 - q) / q
    terms = [math.exp(_binom_log_pmf(n, q, anchor))]
    for j, stop, step in ((anchor, hi, 1), (anchor, lo, -1)):
        term = terms[0]
        while j != stop and term > 0.0:
            term *= (n - j) / (j + 1.0) * up if step > 0 else j / (n - j + 1.0) * down
            terms.append(term)
            j += step
    return min(1.0, math.fsum(terms))


def normal_cdf(a: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-a / math.sqrt(2.0))


def slud_bound(n: int, q: float, count: int) -> tuple[float, str]:
    """Gaussian lower bound on the binomial upper tail P(X >= count).

    Clause 'a' applies when count <= nq and uses sqrt(nq) in the
    denominator; clause 'b' applies when nq <= count <= n(1-q) and uses
    sqrt(nq(1-q)).  Returns the larger applicable bound with its clause
    tag, or (nan, 'inapplicable') when neither range holds.
    """
    if not 0.0 < q <= 0.5:
        raise ValueError(f"q must lie in (0, 1/2], got {q}")
    if not 0 <= count <= n:
        raise ValueError(f"count must lie in [0, n={n}], got {count}")
    center = n * q
    candidates = []
    if count <= center:
        z = (count - center) / math.sqrt(center)
        candidates.append((1.0 - normal_cdf(z), "a"))
    if center <= count <= n * (1.0 - q):
        z = (count - center) / math.sqrt(center * (1.0 - q))
        candidates.append((1.0 - normal_cdf(z), "b"))
    if not candidates:
        return (math.nan, "inapplicable")
    return max(candidates, key=lambda c: c[0])


@_infeasible_on_overflow
def lower_bound_constants(k: int) -> LowerBoundConstants:
    """Constants multiplying the high-error mass in the expected-mistake lower bound.

    wrong_vote = 1/2 - normal_cdf(-1/sqrt(3)); count_tail =
    1 - normal_cdf(2 + 2/sqrt(k)); product = wrong_vote * count_tail.
    count_tail increases in k toward 1 - normal_cdf(2).
    """
    if k < 1:
        raise ValueError("k must be positive")
    wrong_vote = 0.5 - normal_cdf(-1.0 / math.sqrt(3.0))
    count_tail = 1.0 - normal_cdf(2.0 + 2.0 / math.sqrt(k))
    return LowerBoundConstants(wrong_vote, count_tail, wrong_vote * count_tail)
