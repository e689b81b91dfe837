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

hazard_table is the one definition of Q(m), a phases x q table whose
column j is the scalar recurrence run at qs[j], bit for bit, and
cumulative_success the one place the product is formed.  hazard_series
is one column, and routability and expected_reach are one point of
routability_sweep.  A d list shares one table per geometry but symphony,
whose Q holds d, and each d reads its first d rows: every step is causal.
Only the loop's own roundings are re-run: np.cumsum and np.cumprod
accumulate left to right, and elementwise +, * and / round like Python
floats; np.sum, closed forms such as xor's P(m) * sum 1/P(k) - 1, and
np.power for a scalar ** or math.exp would round differently.  exp and
log1p act per element, so a range they skip changes no other bit.  The closed-form approximations of the xor and
symphony hazards live in the tests that compare them with these sums.

Long series (the classifier's 10,000 phases) stop where the computed
values turn exactly constant, never at a bound: q^m at a fixed point of
x -> x * q (0 for q <= 0.5; for q > 0.5 the subnormal 5e-324, or a small
multiple of it near q = 1, which rounds back to itself); a log sum once
a hazard that repeats to the end leaves it unchanged; and a product once
its sum falls below exp underflow, sparing slow subnormals and exp.
Below 2^-54 the log sum takes log1p(-h) as -h, its correctly rounded value.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .geometry import (
    EXACT_PROFILE_MAX_D,
    Geometry,
    GeometrySpec,
    check_q,
    distance_profile,
)

# Products switch to log-domain accumulation past this horizon or when
# any surviving factor drops below this threshold.
_DIRECT_PRODUCT_MAX_H = 64
_DIRECT_PRODUCT_MIN_FACTOR = 1e-12


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
    """Q(1..m_max) for the geometry at one q: hazard_table's one column."""
    return hazard_table(spec, (q,), m_max)[:, 0]


def hazard_table(spec: GeometrySpec, qs, m_max: int) -> np.ndarray:
    """Q(1..m_max) at every q of qs, as a phases x q table.

    xor runs the recurrence for q^m + sum_{k=1..m-1} q^m
    prod_{j=m-k..m-1}(1-q^j): each k-term is one more wasted lower-bit
    correction before all remaining useful neighbors are found dead.
    ring sums q^m * w^k over the up to 2^(m-1) progress-free hops a phase
    may waste, with the huge power w^(2^(m-1)) evaluated as
    exp(2^(m-1) * ln w) and underflow to zero accepted.  m_max may exceed
    spec.d; symphony holds d fixed inside Q.

    xor's extra term runs as a scalar loop down each column until every
    1 - q^(m-1) has rounded to 1, then as extra = 1 + extra, a running
    sum.  ring calls the scalar _pow_of_power_of_two per element until its
    column's w equals q and the huge power is 0, both for good.
    hypercube's q^m is computed while m * log2(1/q) <= 1076; past that it
    lies below half the smallest subnormal and is 0.
    """
    qs = tuple(qs)
    for x in qs:
        check_q(x)
    if m_max < 1:
        raise ValueError(f"horizon must be >= 1, got {m_max}")
    kind = spec.kind
    q = np.array(qs, dtype=float)
    if kind is Geometry.TREE:
        return np.full((m_max, len(q)), q)
    if kind is Geometry.SYMPHONY:
        per_phase = [symphony_phase_failure(x, spec.d, spec.k_n, spec.k_s) for x in qs]
        return np.full((m_max, len(q)), per_phase)
    if kind is Geometry.HYPERCUBE:
        out = np.zeros((m_max, len(q)))
        for j, x in enumerate(q.tolist()):
            nonzero = 0 if x == 0.0 else min(m_max, math.floor(1076.0 / -math.log2(x)))
            with np.errstate(under="ignore"):
                out[:nonzero, j] = x ** np.arange(1, nonzero + 1, dtype=float)
        return out
    powers, fixed = _powers(q, m_max)
    # Row i is phase m = i + 1, whose factor 1 - q^(m-1) is keep[i].
    keep = np.concatenate((np.zeros((1, len(q))), 1.0 - powers[:-1]))
    if kind is Geometry.XOR:
        head = _first_row(keep == 1.0)
        extra = np.ones_like(powers)
        for j, factors in enumerate(keep[1:head].T):
            column = [0.0]
            for k in factors.tolist():
                column.append(k * (1.0 + column[-1]))
            extra[:head, j] = column
        # From row head on, keep is 1 and extra = 1 + extra: a running sum.
        np.cumsum(extra[head - 1 :], axis=0, out=extra[head - 1 :])
        return powers * np.add(1.0, extra, out=extra)
    # ring: what is left once tree, symphony, hypercube and xor returned.
    w = q * keep
    # w only grows towards q, so from row steady on it is q itself.
    steady = _first_row(w == q)
    tail = np.zeros_like(powers)
    calls = 1  # rows up to the last that called the power
    for j, (column, x) in enumerate(zip(w[:steady].T, q.tolist())):
        column, values = column.tolist(), []
        for i in range(1, m_max):
            w_i = column[i] if i < steady else x
            t = _pow_of_power_of_two(w_i, i)
            if t == 0.0 and w_i == x:
                break  # both hold for good: this column has handed over
            values.append(t)
        tail[1 : len(values) + 1, j] = values
        calls = max(calls, len(values) + 1)
    # From row live - 1 on, the powers, w and the tail repeat, so Q does.
    live = min(m_max, max(fixed + 2, calls + 1))
    out = np.empty_like(powers)
    out[:live] = powers[:live] * (1.0 - tail[:live]) / (1.0 - w[:live])
    out[live:] = out[live - 1]
    return out


def _first_row(mask: np.ndarray) -> int:
    """Index of the first row of mask that is all true, or its length."""
    rows = mask.all(axis=1)
    return int(np.argmax(rows)) if rows.any() else len(rows)


def _powers(q: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """q^1..q^count down each column, multiplied in sequence in doubling
    chunks, and the row from which all columns repeat (or count): each
    stops at a fixed point of x -> x * q (see the module docstring)."""
    out = np.full((count, len(q)), q)
    end, chunk = 1, 256
    with np.errstate(under="ignore"):
        while end < count:
            if (out[end - 1] * q == out[end - 1]).all():
                out[end:] = out[end - 1]
                return out, end - 1
            start, end = end - 1, min(count, end + chunk)
            np.cumprod(out[start:end], axis=0, out=out[start:end])
            chunk *= 2
    return out, count


def cumulative_success(hazards: np.ndarray) -> np.ndarray:
    """p(1..m): cumulative products of (1 - Q(m)) down each column.

    hazards is one series or a phases x q table.  A column multiplies its
    factors directly up to 64 phases while every factor is at least 1e-12,
    and otherwise takes exp of a log1p(-Q) sum, which stops where p turns
    exactly constant: at the first row of a repeating tail (zeros, or
    ring's subnormal) whose term left every sum unchanged, and at the
    first of every 64th row whose p are all 0 (the sums only fall).
    """
    table = hazards.reshape(len(hazards), -1)
    return next(_success_prefixes(table, (len(table),))).reshape(hazards.shape)


def _success_prefixes(table: np.ndarray, horizons):
    """cumulative_success(table[:h]) for each h of horizons, in order: a
    prefix of one direct and, if a horizon's column takes it, one
    log-domain product of the table, as both are causal."""
    short = max((h for h in horizons if h <= _DIRECT_PRODUCT_MAX_H), default=0)
    factors = 1.0 - table[:short]
    direct, tiny = np.cumprod(factors, axis=0), factors < _DIRECT_PRODUCT_MIN_FACTOR
    logged = _log_domain_success(table) if max(horizons) > short or tiny.any() else direct
    for h in horizons:
        yield logged[:h] if h > short else np.where(tiny[:h].any(axis=0), logged[:h], direct[:h])


def _log_domain_success(hazards: np.ndarray) -> np.ndarray:
    """exp(cumsum(log1p(-hazards))) down each column, stopped where it
    turns constant (see cumulative_success)."""
    count = len(hazards)
    # Rows from stop - 1 on equal the last (stop is count + 1 if none do).
    differs = (hazards != hazards[-1]).any(axis=1)
    stop = count + 1 - int(np.argmax(differs[::-1]))
    # A hazard of exactly 1 (q within an ulp of 1) gives log1p(-1) = -inf
    # and p = 0 from there on, as it should.
    with np.errstate(under="ignore", divide="ignore"):
        logs = np.negative(hazards[:stop])
        np.log1p(logs, out=logs, where=hazards[:stop] >= 2.0**-54)  # else -h: log1p(-h) rounded
        sums = np.cumsum(logs, axis=0)
        if stop < count and (sums[-1] != sums[-2]).any():  # the term still moves a sum
            sums = np.cumsum(np.pad(logs, ((0, count - stop), (0, 0)), "edge"), axis=0)
        end = min(len(sums), 64 * _first_row(np.exp(sums[::64]) == 0.0) + 1)
        p = np.empty_like(hazards)
        np.exp(sums[:end], out=p[:end])
    p[end:] = p[end - 1]
    return p


def success_series(spec: GeometrySpec, q: float, h_max: int) -> np.ndarray:
    """p(1..h_max) for the geometry; h_max may exceed spec.d."""
    return cumulative_success(hazard_series(spec, q, h_max))


def expected_reach(spec: GeometrySpec, q: float) -> float:
    """E[S] = sum_h n(h) * p(h, q), the mean reachable-set size.

    Returns the exact expectation for d <= 20 and the 2^d-normalized
    value for larger d (matching the profile's normalization).
    """
    return _expected_reaches((spec,), (q,))[0][0]


def _expected_reaches(specs, qs) -> list[list[float]]:
    """E[S] for each spec at every q of qs, one math.fsum per column, from
    one hazard table per geometry, or per symphony spec, at its largest d."""
    groups: dict = {}
    for spec in specs:  # each group a dict, to hold a repeated spec once
        groups.setdefault(spec if spec.kind is Geometry.SYMPHONY else spec.kind, {})[spec] = None
    reaches = {}
    for members in groups.values():
        widest = max(members, key=lambda spec: spec.d)
        prefixes = _success_prefixes(hazard_table(widest, qs, widest.d), [spec.d for spec in members])
        for spec, p in zip(members, prefixes):
            profile = np.array(distance_profile(spec).values, dtype=float)  # counts < 2^53: exact
            reaches[spec] = [math.fsum(column.tolist()) for column in (p * profile[:, None]).T]
    return [reaches[spec] for spec in specs]


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
    ((result,),) = routability_sweep((spec,), (q,), mode)
    if isinstance(result, ValueError):
        raise result
    return result


def routability_sweep(
    specs, qs, mode: DenominatorMode = DenominatorMode.PN_MINUS_ONE
) -> list[list[RoutabilityResult | ValueError]]:
    """routability for each spec at every q of qs, one list per spec.

    Each entry is that RoutabilityResult, or the ValueError routability
    raises there, so that one bad (spec, q) does not end the sweep.
    """
    specs, qs = tuple(specs), tuple(qs)
    mode = DenominatorMode(mode)
    pn = mode is DenominatorMode.PN_MINUS_ONE
    valid = []
    for q in qs:
        with contextlib.suppress(ValueError):
            check_q(q)
            valid.append(q)
    sweeps = []
    for spec, reaches in zip(specs, map(iter, _expected_reaches(specs, valid))):
        # N and one node, as counts or (d > 20) as fractions of 2^d.
        n, one = (1.0, math.ldexp(1.0, -spec.d)) if spec.d > EXACT_PROFILE_MAX_D else (1 << spec.d, 1.0)
        results: list = []
        for q in qs:
            try:
                check_q(q)
                reach = next(reaches)
                den = (1.0 - q) * n - one if pn else (n - one) * (1.0 - q)
                if den <= 0.0:  # only (1-q)*N - 1 can be
                    raise ValueError(f"degenerate denominator: (1-q)*2^d <= 1 at d={spec.d}, "
                                     f"q={q}; fewer than one expected survivor besides the root")
            except ValueError as exc:
                results.append(exc)
                continue
            raw = reach / den  # >= 0, as reach >= 0 and den > 0
            r = min(raw, 1.0)
            results.append(RoutabilityResult(
                spec=spec, q=q, routability=r, failed_fraction=1.0 - r, expected_reach=reach,
                denominator_mode=mode, clamped=raw > 1.0, reach_normalized=spec.d > EXACT_PROFILE_MAX_D))
        sweeps.append(results)
    return sweeps


def tree_closed_form(d: int, q: float) -> float:
    """Tree routability ((2-q)^d - 1) / ((1-q)*2^d - 1), clamped to <= 1.

    Binomial identity: sum_h C(d,h) (1-q)^h = (2-q)^d - 1.  Evaluated in
    log space for d > 64 so that d = 100 stays finite.
    """
    if d < 1:
        raise ValueError(f"identifier length d must be >= 1, got {d}")
    check_q(q)
    if d <= _DIRECT_PRODUCT_MAX_H:
        denominator = (1.0 - q) * (1 << d) - 1.0
        if denominator <= 0.0:
            raise ValueError(
                f"degenerate denominator: (1-q)*2^d <= 1 at d={d}, q={q}"
            )
        r = ((2.0 - q) ** d - 1.0) / denominator
    else:
        # Positive: d >= 65 and q <= 1 - 2^-53 give log_pn >= 12 ln 2.
        log_pn = d * math.log(2.0) + math.log1p(-q)
        log_num_pow = d * math.log(2.0 - q)
        log_numerator = log_num_pow + math.log1p(-math.exp(-log_num_pow))
        log_denominator = log_pn + math.log1p(-math.exp(-log_pn))
        r = math.exp(log_numerator - log_denominator)
    return min(r, 1.0)
