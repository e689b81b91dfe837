"""Analytic routability of greedy DHT routing under random node failure.

Every geometry shares the same product form for the probability of
successfully routing h hops (or phases) from an alive root when each node
has failed independently with probability q:

    p(h, q) = prod_{m=1..h} (1 - Q(m))

where Q(m) is the probability that routing dies during the phase with m
bits (or one of m distance scales) still to resolve:

    tree       Q(m) = q                     (single usable neighbor)
    hypercube  Q(m) = q^m                   (m usable neighbors)
    xor        Q(m) = q^m * (1 + E(m)),     E(1) = 0,
               E(m) = (1 - q^(m-1)) * (1 + E(m-1))
               -- the exact finite sum q^m + sum_k q^m prod_{j=m-k..m-1}(1-q^j)
    ring       Q(m) = q^m * (1 - w^(2^(m-1))) / (1 - w),  w = q*(1 - q^(m-1))
    symphony   Q    = q^(k_n+k_s) * sum_{j=0..J} x^j, constant in m, with
               x = 1 - k_s/d - q^(k_n+k_s) and J = ceil(d / (1-q))

The expected reachable-set size from an alive root is

    E[S] = sum_{h=1..d} n(h) * p(h, q)

and routability divides E[S] by one of two survivor-count conventions
(see DenominatorMode).  For d > 20 all sums run on normalized weights
n(h)/2^d and products accumulate in the log domain, which keeps d = 100
evaluations stable.

hazard_series is the one definition of Q(m) for every geometry, and
cumulative_success the one place the product is formed; success_series
and the scalability classifier both go through them.  The closed-form
approximations of the xor and symphony hazards live in the tests that
compare them against these exact sums.

Long series (the classifier's 10,000 phases) are evaluated as a short
scalar head and a numpy tail that is bit-for-bit the same as running the
scalar recurrence to the end.  The tail only re-runs the loop's own
sequence of roundings: np.cumsum and np.cumprod accumulate left to right
like the loop, and elementwise +, * and / round like Python floats.
np.sum (pairwise), closed forms such as xor's P(m) * sum 1/P(k) - 1, and
np.power in place of a scalar ** or math.exp would each round
differently, so none of them is used on a term the loop computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .geometry import (
    EXACT_PROFILE_MAX_D,
    Geometry,
    GeometrySpec,
    distance_profile,
)

# Products switch to log-domain accumulation past this horizon or when
# any surviving factor drops below this threshold.
_DIRECT_PRODUCT_MAX_H = 64
_DIRECT_PRODUCT_MIN_FACTOR = 1e-12

# The xor and ring loops hand the rest of a series to numpy once it has
# become an exact running sum or product, if at least this many phases
# remain; a shorter tail costs less in the loop.
_MIN_VECTOR_TAIL = 64


class DenominatorMode(str, Enum):
    """Survivor-pair normalization used by routability.

    PN_MINUS_ONE divides E[S] by (1-q)*N - 1, the mean survivor count
    minus one.  At small N this undercounts the exact expected number of
    surviving targets and can push the ratio above 1 (clamped, flagged).
    EXACT_SURVIVORS divides by (N-1)*(1-q), the exact expected number of
    surviving non-root nodes.
    """

    PN_MINUS_ONE = "paper"
    EXACT_SURVIVORS = "exact"

    def __str__(self) -> str:
        return self.value


def _validate_q(q: float) -> None:
    if not 0.0 <= q < 1.0:
        raise ValueError(f"failure probability q must be in [0, 1), got {q}")


def suboptimal_hop_cap(d: int, q: float) -> int:
    """ceil(d / (1-q)), the cap on wasted hops per symphony phase.

    Evaluated in exact rational arithmetic on q's shortest decimal form,
    so grid values behave like hand arithmetic (12/(1-0.4) is exactly 20)
    instead of inheriting binary round-off from the float.
    """
    return math.ceil(Fraction(d) / (1 - Fraction(repr(float(q)))))


def _pow_of_power_of_two(base: float, log2_exponent: int) -> float:
    """base ** (2 ** log2_exponent) for 0 < base < 1, underflowing to 0."""
    if log2_exponent <= 60:
        return base ** (1 << log2_exponent)
    if log2_exponent <= 1023:
        return math.exp(math.ldexp(1.0, log2_exponent) * math.log(base))
    # 2^1024 * log(base) is below exp underflow for any float base < 1.
    return 0.0


def symphony_phase_failure(q: float, d: int, k_n: int, k_s: int) -> float:
    """Per-phase failure for symphony routing; constant across phases.

    q^(k_n+k_s) * sum_{j=0..J} x^j where x = 1 - k_s/d - q^(k_n+k_s) is
    the progress-free hop probability and J = ceil(d/(1-q)) caps how many
    such hops a phase may absorb.  Evaluated as the exact finite
    geometric sum.
    """
    if q == 0.0:
        return 0.0
    dead_all = q ** (k_n + k_s)
    advance = k_s / d
    wander = 1.0 - advance - dead_all
    cap = suboptimal_hop_cap(d, q)
    if wander == 1.0:
        series = float(cap + 1)
    else:
        series = (1.0 - wander ** (cap + 1)) / (1.0 - wander)
    return dead_all * series


def hazard_series(spec: GeometrySpec, q: float, m_max: int) -> np.ndarray:
    """Q(1..m_max) for the geometry, as a float array.

    xor runs the recurrence for q^m + sum_{k=1..m-1} q^m
    prod_{j=m-k..m-1}(1-q^j): each k-term is one more wasted lower-bit
    correction before all remaining useful neighbors are found dead.
    ring sums q^m * w^k over the up to 2^(m-1) progress-free hops a phase
    may waste, with the huge power w^(2^(m-1)) evaluated as
    exp(2^(m-1) * ln w) and underflow to zero accepted.

    m_max may exceed spec.d: the per-phase formulas extend naturally to
    arbitrary horizons, with symphony holding d fixed inside Q.

    Head and tail: once 1 - q^(m-1) rounds to 1 it stays 1, and from
    there xor's recurrence is extra = 1 + extra, a running sum (np.cumsum
    of ones), while ring's w equals q and its huge power is 0, so its Q
    is q^m / (1 - q).  q^m continues as np.cumprod seeded with the loop's
    own q^m.  The loop hands over there when at least _MIN_VECTOR_TAIL
    phases remain (~55 steps at q = 0.5, ~730 at q = 0.95).  hypercube's
    q^m is computed only while m * log2(1/q) <= 1076; past that it lies
    below half the smallest subnormal and is 0.
    """
    _validate_q(q)
    if m_max < 1:
        raise ValueError(f"horizon must be >= 1, got {m_max}")
    kind = spec.kind
    if kind is Geometry.TREE:
        return np.full(m_max, q, dtype=float)
    if kind is Geometry.HYPERCUBE:
        nonzero = 0 if q == 0.0 else min(m_max, math.floor(1076.0 / -math.log2(q)))
        with np.errstate(under="ignore"):
            head = q ** np.arange(1, nonzero + 1, dtype=float)
        return _extend(head, m_max, 0.0)
    if kind is Geometry.SYMPHONY:
        const = symphony_phase_failure(q, spec.d, spec.k_n, spec.k_s)
        return np.full(m_max, const, dtype=float)
    out = np.empty(m_max, dtype=float)
    out[0] = q
    last_handover = m_max - _MIN_VECTOR_TAIL
    if kind is Geometry.XOR:
        extra = 0.0
        q_prev = 1.0  # q^(m-1)
        q_m = q
        for m in range(2, m_max + 1):
            q_prev *= q
            q_m *= q
            keep = 1.0 - q_prev
            if keep == 1.0 and m <= last_handover:
                # From here on extra = 1 + extra exactly, a running sum.
                extras = np.ones(m_max - m + 1)
                extras[0] = 1.0 + extra
                np.cumsum(extras, out=extras)
                out[m - 1 :] = _geometric_tail(q_m, q, len(extras)) * (1.0 + extras)
                break
            extra = keep * (1.0 + extra)
            out[m - 1] = q_m * (1.0 + extra)
        return out
    if kind is Geometry.RING:
        q_prev = 1.0
        q_m = q
        for m in range(2, m_max + 1):
            q_prev *= q
            q_m *= q
            if q_m == 0.0:
                out[m - 1 :] = 0.0
                break
            w = q * (1.0 - q_prev)
            if w == 0.0:
                out[m - 1] = q_m
                continue
            tail = _pow_of_power_of_two(w, m - 1)
            if w == q and tail == 0.0 and m <= last_handover:
                # Both hold from here on, so Q(m) = q^m / (1 - q).
                out[m - 1 :] = _geometric_tail(q_m, q, m_max - m + 1) / (1.0 - q)
                break
            out[m - 1] = q_m * (1.0 - tail) / (1.0 - w)
        return out
    raise ValueError(f"unknown geometry kind: {kind}")


def _geometric_tail(first: float, ratio: float, count: int) -> np.ndarray:
    """first * ratio^k for k = 0..count-1, multiplied in sequence."""
    powers = np.full(count, ratio)
    powers[0] = first
    with np.errstate(under="ignore"):
        return np.cumprod(powers, out=powers)


def cumulative_success(hazards: np.ndarray) -> np.ndarray:
    """p(1..len(hazards)): cumulative products of (1 - Q(m)).

    Accumulates in the log domain past 64 phases or when any surviving
    factor drops below 1e-12.  There the sum stops at the last nonzero
    hazard: log1p(-0) adds nothing, so p stays flat after it.
    """
    if len(hazards) <= _DIRECT_PRODUCT_MAX_H:
        factors = 1.0 - hazards
        if factors.min() >= _DIRECT_PRODUCT_MIN_FACTOR:
            return np.cumprod(factors)
    stop = len(hazards)
    if hazards[-1] == 0.0:
        stop = int(np.max(np.flatnonzero(hazards), initial=0)) + 1
    with np.errstate(under="ignore"):
        p = np.exp(np.cumsum(np.log1p(-hazards[:stop])))
    return _extend(p, len(hazards), p[-1])


def _extend(head: np.ndarray, length: int, fill: float) -> np.ndarray:
    """head followed by copies of fill up to length entries."""
    if len(head) == length:
        return head
    return np.concatenate((head, np.full(length - len(head), fill)))


def success_series(spec: GeometrySpec, q: float, h_max: int) -> np.ndarray:
    """p(1..h_max) for the geometry; h_max may exceed spec.d."""
    return cumulative_success(hazard_series(spec, q, h_max))


def expected_reach(spec: GeometrySpec, q: float) -> float:
    """E[S] = sum_h n(h) * p(h, q), the mean reachable-set size.

    Returns the exact expectation for d <= 20 and the 2^d-normalized
    value for larger d (matching the profile's normalization).
    """
    _validate_q(q)
    profile = distance_profile(spec)
    p = success_series(spec, q, spec.d)
    return math.fsum(n * s for n, s in zip(profile.values, p))


@dataclass(frozen=True)
class RoutabilityResult:
    """Routability r(N, q) with its inputs and normalization convention.

    expected_reach is E[S], divided by 2^d when reach_normalized is set
    (d > 20).  clamped records that the raw ratio fell outside [0, 1].
    """

    spec: GeometrySpec
    q: float
    routability: float
    failed_fraction: float
    expected_reach: float
    denominator_mode: DenominatorMode
    clamped: bool
    reach_normalized: bool


def routability(
    spec: GeometrySpec,
    q: float,
    mode: DenominatorMode = DenominatorMode.PN_MINUS_ONE,
) -> RoutabilityResult:
    """Routability r = E[S] / survivor-pair denominator, clamped to [0, 1].

    PN_MINUS_ONE divides by (1-q)*2^d - 1 and raises when that quantity
    is not positive; EXACT_SURVIVORS divides by (2^d - 1)*(1-q).  For
    d > 20 the ratio is formed from normalized quantities.
    """
    _validate_q(q)
    mode = DenominatorMode(mode)
    reach = expected_reach(spec, q)
    normalized = spec.d > EXACT_PROFILE_MAX_D
    p_alive = 1.0 - q
    if normalized:
        inv_n = math.ldexp(1.0, -spec.d)
        pn_denominator = p_alive - inv_n
        exact_denominator = (1.0 - inv_n) * p_alive
    else:
        n = 1 << spec.d
        pn_denominator = p_alive * n - 1.0
        exact_denominator = (n - 1) * p_alive
    if mode is DenominatorMode.PN_MINUS_ONE and pn_denominator <= 0.0:
        raise ValueError(
            f"degenerate denominator: (1-q)*2^d <= 1 at d={spec.d}, q={q}; "
            "fewer than one expected survivor besides the root"
        )
    denominator = (
        pn_denominator if mode is DenominatorMode.PN_MINUS_ONE else exact_denominator
    )
    r = reach / denominator
    clamped = False
    if r > 1.0:
        r, clamped = 1.0, True
    elif r < 0.0:
        r, clamped = 0.0, True
    return RoutabilityResult(
        spec=spec,
        q=q,
        routability=r,
        failed_fraction=1.0 - r,
        expected_reach=reach,
        denominator_mode=mode,
        clamped=clamped,
        reach_normalized=normalized,
    )


def tree_closed_form(d: int, q: float) -> float:
    """Tree routability ((2-q)^d - 1) / ((1-q)*2^d - 1), clamped to <= 1.

    Binomial identity: sum_h C(d,h) (1-q)^h = (2-q)^d - 1.  Evaluated in
    log space for d > 64 so that d = 100 stays finite.
    """
    if d < 1:
        raise ValueError(f"identifier length d must be >= 1, got {d}")
    _validate_q(q)
    if d <= _DIRECT_PRODUCT_MAX_H:
        denominator = (1.0 - q) * (1 << d) - 1.0
        if denominator <= 0.0:
            raise ValueError(
                f"degenerate denominator: (1-q)*2^d <= 1 at d={d}, q={q}"
            )
        r = ((2.0 - q) ** d - 1.0) / denominator
    else:
        log_pn = d * math.log(2.0) + math.log1p(-q)
        if log_pn <= 0.0:
            raise ValueError(
                f"degenerate denominator: (1-q)*2^d <= 1 at d={d}, q={q}"
            )
        log_num_pow = d * math.log(2.0 - q)
        log_numerator = log_num_pow + math.log1p(-math.exp(-log_num_pow))
        log_denominator = log_pn + math.log1p(-math.exp(-log_pn))
        r = math.exp(log_numerator - log_denominator)
    return min(r, 1.0)
