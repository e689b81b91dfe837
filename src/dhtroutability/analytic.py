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
(see DenominatorMode).  Every sum runs on the absolute counts n(h): at
d = 1000, the largest d accepted, N = 2^1000 ~ 1.1e301 is still a finite
double.  Every p(h, q) is a direct running product of at most d factors
(see cumulative_success); only the classifier's 10,000-phase series sums
logs (see scalability).

hazard_table is the one definition of Q(m), a phases x q table whose
column j is the scalar recurrence run at qs[j], bit for bit, and
cumulative_success the one place the direct product is formed.
hazard_series is one column.  routability_columns gives, per spec, the
routability, failed-fraction, E[S], clamp and error columns over a q
grid, with the denominator, ratio, clamp and 1 - r as numpy operations
on whole columns; the CLI reads its cells from them, and only
routability_sweep, with routability as its one point, builds
RoutabilityResult records.  A d list shares one table and one
product per geometry but symphony, whose Q holds d, and each d reads its
first d rows: every step is causal.
Only the loop's own roundings are re-run: np.cumsum and np.cumprod
accumulate left to right, and elementwise +, * and / round like Python
floats; np.sum, closed forms such as xor's P(m) * sum 1/P(k) - 1, and
np.power for a scalar ** or math.exp would round differently.  The
closed-form approximations of the xor and symphony hazards live in the
tests that compare them with these sums.

Every recurrence runs straight down the rows asked for: q^m is one
cumprod, hypercube's q^m one power per column, xor's extra term one
scalar loop per column.  Only ring's tail w^(2^(m-1)) stops, once
q^(2^(m-1)) is below 2^-54: w <= q, so 1 - w^(2^(m-1)) rounds to 1 from
there, and Python's pow of it would overflow further on.  No CLI path
asks hypercube, xor or ring for more than 1,000 rows, nor tree or
symphony for more than one (see scalability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

import numpy as np

from .geometry import MAX_D, Geometry, GeometrySpec, check_q, distance_profile

class DenominatorMode(str, Enum):
    """Survivor-pair normalization used by routability.

    PN_MINUS_ONE divides E[S] by (1-q)*N - 1, the mean survivor count
    minus one.  At small N this undercounts the exact expected number of
    surviving targets and can push the ratio above 1 (clamped to 1, as
    RoutabilityResult.clamped records).
    EXACT_SURVIVORS divides by (N-1)*(1-q), the exact expected number of
    surviving non-root nodes.
    """

    PN_MINUS_ONE = "paper"
    EXACT_SURVIVORS = "exact"

    def __str__(self) -> str:
        return self.value


def suboptimal_hop_cap(d: int, q: float) -> int:
    """ceil(d / (1-q)), the cap on wasted hops per symphony phase.

    Evaluated in integers from the exact ratio num/den of q's shortest
    decimal form, as ceil(d * den / (den - num)), so grid values behave
    like hand arithmetic (12/(1-0.4) is exactly 20) instead of inheriting
    binary round-off from the float.
    """
    num, den = Decimal(repr(float(q))).as_integer_ratio()
    return -(-d * den // (den - num))


def symphony_phase_failure(q: float, d: int, k_n: int, k_s: int) -> float:
    """Per-phase failure for symphony routing; constant across phases.

    q^(k_n+k_s) * sum_{j=0..J} x^j where x = 1 - k_s/d - q^(k_n+k_s) is
    the progress-free hop probability and J = ceil(d/(1-q)) caps how many
    such hops a phase may absorb.  Evaluated as the exact finite
    geometric sum; 1 - x >= k_s/d is never 0, and q = 0 gives 0.
    """
    dead_all = q ** (k_n + k_s)
    wander = 1.0 - k_s / d - dead_all
    cap = suboptimal_hop_cap(d, q)
    return dead_all * ((1.0 - wander ** (cap + 1)) / (1.0 - wander))


def hazard_series(spec: GeometrySpec, q: float, m_max: int) -> np.ndarray:
    """Q(1..m_max) for the geometry at one q: hazard_table's one column."""
    return hazard_table(spec, (q,), m_max)[:, 0]


def hazard_table(spec: GeometrySpec, qs, m_max: int) -> np.ndarray:
    """Q(1..m_max) at every q of qs, as a phases x q table.

    xor runs the recurrence for q^m + sum_{k=1..m-1} q^m
    prod_{j=m-k..m-1}(1-q^j): each k-term is one more wasted lower-bit
    correction before all remaining useful neighbors are found dead.
    ring sums q^m * w^k over the up to 2^(m-1) progress-free hops a phase
    may waste, with the huge power w^(2^(m-1)) taken by Python's pow
    while q^(2^(m-1)) is at least 2^-54.  m_max may exceed spec.d; symphony
    holds d fixed inside Q.

    Every one of the m_max rows is computed, subnormal q^m included, so
    a direct 10,000-row call costs up to ~1.5 ms a column.
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
        out = np.empty((m_max, len(q)))
        with np.errstate(under="ignore"):
            for j, x in enumerate(q.tolist()):
                out[:, j] = x ** np.arange(1, m_max + 1, dtype=float)
        return out
    with np.errstate(under="ignore"):
        powers = np.cumprod(np.full((m_max, len(q)), q), axis=0)
    # Row i is phase m = i + 1, whose factor 1 - q^(m-1) is keep[i].
    keep = np.concatenate((np.zeros((1, len(q))), 1.0 - powers[:-1]))
    if kind is Geometry.XOR:
        extra = np.empty_like(powers)
        for j, factors in enumerate(keep[1:].T.tolist()):
            e, column = 0.0, [0.0]
            for k in factors:
                e = k * (1.0 + e)
                column.append(e)
            extra[:, j] = column
        return powers * (1.0 + extra)
    # ring: what is left once tree, symphony, hypercube and xor returned.
    w = q * keep
    tail = np.zeros_like(powers)
    for j, x in enumerate(q.tolist()):
        # w <= q, so from the first i with q ** 2^i < 2^-54 on, 1 - w ** 2^i rounds to 1.
        rows = next((i for i in range(1, m_max) if x ** (1 << i) < 2.0**-54), m_max)
        tail[1:rows, j] = [w_i ** (1 << i) for i, w_i in enumerate(w[1:rows, j].tolist(), 1)]
    return powers * (1.0 - tail) / (1.0 - w)


def cumulative_success(hazards: np.ndarray) -> np.ndarray:
    """p(1..m): cumulative products of (1 - Q(m)) down each column.

    hazards is one series or a phases x q table.  Each p(h) takes h
    roundings of 1 - Q and h - 1 of the multiply, so it is good to about
    2h units of roundoff, as long as the running product never stalls: a
    subnormal product times a factor above 1/2 can round back to itself
    while the true product keeps falling.  No product meets such a factor
    at any d <= MAX_D and q <= 0.95; the classifier's 10,000-phase series
    can, so it sums logs instead (see scalability).
    """
    with np.errstate(under="ignore"):
        return np.cumprod(1.0 - hazards, axis=0)


def success_series(spec: GeometrySpec, q: float, h_max: int) -> np.ndarray:
    """p(1..h_max) for the geometry; h_max may exceed spec.d."""
    return cumulative_success(hazard_series(spec, q, h_max))


def expected_reach(spec: GeometrySpec, q: float) -> float:
    """E[S] = sum_h n(h) * p(h, q), the mean reachable-set size."""
    return _expected_reaches((spec,), (q,))[0][0]


def _expected_reaches(specs, qs) -> list[list[float]]:
    """E[S] for each spec at every q of qs, one math.fsum per column, from
    one product table per geometry, or per symphony spec, at its largest
    d, sliced at each spec's d."""
    groups: dict = {}
    for spec in specs:  # each group a dict, to hold a repeated spec once
        groups.setdefault(spec if spec.kind is Geometry.SYMPHONY else spec.kind, {})[spec] = None
    reaches = {}
    for members in groups.values():
        widest = max(members, key=lambda spec: spec.d)
        p = cumulative_success(hazard_table(widest, qs, widest.d))
        for spec in members:
            profile = np.array(distance_profile(spec).values, dtype=float)  # each count rounded once
            reaches[spec] = [math.fsum(column.tolist()) for column in (p[: spec.d] * profile[:, None]).T]
    return [reaches[spec] for spec in specs]


@dataclass(frozen=True)
class RoutabilityResult:
    """Routability r(N, q) with its inputs and normalization convention.

    expected_reach is E[S].  clamped records that the raw ratio fell
    outside [0, 1].
    """

    spec: GeometrySpec
    q: float
    routability: float
    failed_fraction: float
    expected_reach: float
    denominator_mode: DenominatorMode
    clamped: bool


def routability(
    spec: GeometrySpec,
    q: float,
    mode: DenominatorMode = DenominatorMode.PN_MINUS_ONE,
) -> RoutabilityResult:
    """Routability r = E[S] / survivor-pair denominator, clamped to [0, 1].

    PN_MINUS_ONE divides by (1-q)*2^d - 1 and raises when that quantity
    is not positive; EXACT_SURVIVORS divides by (2^d - 1)*(1-q).
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
    return [
        [RoutabilityResult(spec, q, r, failed, reach, mode, clamped) if error is None
         else ValueError(error) for q, r, failed, reach, clamped, error in zip(qs, *columns)]
        for spec, columns in zip(specs, routability_columns(specs, qs, mode))
    ]


def routability_columns(specs, qs, mode: DenominatorMode = DenominatorMode.PN_MINUS_ONE):
    """routability_sweep as columns: per spec, the lists routability,
    failed_fraction, expected_reach, clamped and error over qs.

    error holds the text of the ValueError routability raises at that q,
    or None; where it is set, the other columns carry no result.  The
    denominator, the ratio, min(ratio, 1) and 1 - r are numpy operations
    on each spec's column, which round like the scalar expressions.
    """
    specs, qs = tuple(specs), tuple(qs)
    pn = DenominatorMode(mode) is DenominatorMode.PN_MINUS_ONE
    rejected: list = [None] * len(qs)
    for i, q in enumerate(qs):
        try:
            check_q(q)
        except ValueError as exc:
            rejected[i] = str(exc)
    valid = [i for i, error in enumerate(rejected) if error is None]
    valid_qs = [qs[i] for i in valid]
    q = np.array(valid_qs, dtype=float)
    columns = []
    for spec, reach in zip(specs, _expected_reaches(specs, valid_qs)):
        n = float(1 << spec.d)
        den = (1.0 - q) * n - 1.0 if pn else (n - 1.0) * (1.0 - q)
        errors = rejected.copy()
        for i in np.flatnonzero(den <= 0.0).tolist():  # only (1-q)*N - 1 can be
            errors[valid[i]] = (f"degenerate denominator: (1-q)*2^d <= 1 at d={spec.d}, "
                                f"q={valid_qs[i]}; fewer than one expected survivor "
                                "besides the root")
        values = np.full((3, len(qs)), np.nan)  # raw >= 0 where den > 0, as reach >= 0
        raw = np.divide(reach, den, out=np.full_like(den, np.nan), where=den > 0.0)
        values[:, valid] = np.minimum(raw, 1.0), reach, raw
        r, reach, raw = values
        columns.append((r.tolist(), (1.0 - r).tolist(), reach.tolist(), (raw > 1.0).tolist(),
                        errors))
    return columns


def tree_closed_form(d: int, q: float) -> float:
    """Tree routability ((2-q)^d - 1) / ((1-q)*2^d - 1), clamped to <= 1.

    Binomial identity: sum_h C(d,h) (1-q)^h = (2-q)^d - 1.  Both powers
    are finite doubles for every d up to MAX_D = 1000.  From q = 0.5 on,
    where 1 - q is exact, (2-q)^d - 1 is expm1(d * log1p(1-q)), which
    does not cancel to 0 where 2 - q rounds to 1.
    """
    if d < 1:
        raise ValueError(f"identifier length d must be >= 1, got {d}")
    if d > MAX_D:
        raise ValueError(f"identifier length d must be <= {MAX_D}, got {d}")
    check_q(q)
    denominator = (1.0 - q) * (1 << d) - 1.0
    if denominator <= 0.0:
        raise ValueError(f"degenerate denominator: (1-q)*2^d <= 1 at d={d}, q={q}")
    numerator = math.expm1(d * math.log1p(1.0 - q)) if q >= 0.5 else (2.0 - q) ** d - 1.0
    return min(numerator / denominator, 1.0)
