"""Asymptotic scalability of the routing geometries under failure.

A geometry is scalable when its routability converges to a nonzero value
as N grows at a fixed failure probability q in (0, 1), which reduces to
the infinite product p(h, q) = prod (1 - Q(m)) having a positive limit.
A product prod (1 - a_m) with 0 <= a_m < 1 tends to a positive limit
exactly when sum a_m converges, so the verdict follows from the shape of
Q's dependence on the phase index m:

  tree       Q(m) = q          constant  -> divergent sum -> unscalable
  symphony   Q(m) = Q_sym      constant  -> divergent sum -> unscalable
  hypercube  Q(m) = q^m        geometric -> convergent    -> scalable
  xor        Q(m) <= ~m q^m    geometric -> convergent    -> scalable
  ring       Q_ring <= Q_xor   dominated -> convergent    -> scalable

Classification is structural (the table above), never a numerical
convergence heuristic; partial sums of Q and partial products p(h, q) at
decade horizons are attached as evidence only.  Symphony's Q contains
k_s/d, so the probe holds the configured d fixed while h grows.

The partial products are exp of a log1p(-Q) sum, the one place outside
analytic's direct products where p is formed: over 10,000 phases a
direct product can stall at a subnormal value (tree at q = 0.075 would
end at 2.96e-323 instead of 0).  exp is taken only at the horizons, and
below 2^-54 the sum takes log1p(-h) as -h, its correctly rounded value.
Every sum is the running sum np.cumsum would give, bit for bit.

classify_sweep takes a whole q grid, and classify is its one point.
Tree's and symphony's hazard is one constant per q, so both running
sums, of Q and of log1p(-Q) (np.log1p on the grid's column), come from
one pass over the grid that steps whole binades of each sum in integer
ulps (see _constant_sums): about 19 vectorised passes stand for 10,000
additions per q.  Their fixed cost makes a one-point tree or symphony
classify dearer than the 10,000-row column and two cumsums it replaced
(~0.42 against ~0.10 ms), and a grid far cheaper (the CLI's 190 q,
verdicts included: ~3 against ~19 ms a geometry; 2 vCPUs, Python 3.11,
numpy 2.4).

hypercube, xor and ring build each q's rows that can still move a sum:
both sums are at least Q(1) = q in magnitude, so a term below 2^-55 * q
is under a quarter of an ulp of either and rounds away.  Past a row K(q)
every computed hazard is that small, so each horizon past K reads row K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import hazard_series, hazard_table
from .geometry import Geometry, GeometrySpec

#: Decade horizons at which evidence is sampled.
EVIDENCE_HORIZONS = (10, 100, 1_000, 10_000)

#: Threshold defining the decay horizon of an unscalable geometry.
DECAY_THRESHOLD = 1e-6

_UNSCALABLE_KINDS = frozenset({Geometry.TREE, Geometry.SYMPHONY})


class Verdict(str, Enum):
    SCALABLE = "scalable"
    UNSCALABLE = "unscalable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ScalabilityVerdict:
    """Verdict plus numerical evidence at the decade horizons.

    limit_estimate is p(h, q) at the largest horizon for scalable
    geometries and reported as 0 for unscalable ones.  decay_horizon is
    the smallest h with p(h, q) < 1e-6 (unscalable geometries only).
    """

    spec: GeometrySpec
    q: float
    verdict: Verdict
    limit_estimate: float
    partial_sums: tuple[tuple[int, float], ...]
    partial_products: tuple[tuple[int, float], ...]
    decay_horizon: int | None


def classify(spec: GeometrySpec, q: float) -> ScalabilityVerdict:
    """Scalability verdict for the geometry at failure probability q:
    classify_sweep's one point.

    Rejects q = 0 (and q >= 1): the limit is only meaningful for a
    nonzero failure probability.
    """
    (verdict,) = classify_sweep(spec, (q,))
    if isinstance(verdict, ValueError):
        raise verdict
    return verdict


def classify_sweep(spec: GeometrySpec, qs) -> list[ScalabilityVerdict | ValueError]:
    """classify at every q of qs: each entry is that verdict, or the
    ValueError classify raises there, so that one bad q does not end the
    sweep.  Tree's and symphony's evidence comes from one pass over the
    whole grid (see _constant_sums); hypercube, xor and ring build each
    q's K(q)-row series."""
    qs = tuple(qs)
    valid = [q for q in qs if 0.0 < q < 1.0]
    if spec.kind in _UNSCALABLE_KINDS:
        verdicts = _constant_verdicts(spec, valid)
    else:
        verdicts = (_series_verdict(spec, q) for q in valid)
    return [
        next(verdicts) if 0.0 < q < 1.0 else ValueError(
            f"scalability is defined for 0 < q < 1, got q={q}: with no "
            "failures every geometry routes perfectly at any size")
        for q in qs
    ]


def _series_verdict(spec: GeometrySpec, q: float) -> ScalabilityVerdict:
    """A scalable geometry's verdict from its first K(q) phases."""
    rows = _evidence_rows(spec.kind, q)
    hazards = hazard_series(spec, q, rows)
    at = [min(h, rows) - 1 for h in EVIDENCE_HORIZONS]  # no later term moves a sum
    with np.errstate(under="ignore"):
        products = np.exp(_log_sums(hazards)[at]).tolist()
    partial_sums = tuple(zip(EVIDENCE_HORIZONS, np.cumsum(hazards)[at].tolist()))
    return ScalabilityVerdict(spec, q, Verdict.SCALABLE, products[-1], partial_sums,
                              tuple(zip(EVIDENCE_HORIZONS, products)), None)


def _constant_verdicts(spec: GeometrySpec, qs: list[float]):
    """Tree's or symphony's verdict at each q of qs (all in (0, 1)), or
    the ValueError of a decay horizon that is not finite."""
    hazards = hazard_table(spec, qs, 1)[0]
    sums = _constant_sums(np.concatenate((hazards, _log_terms(hazards))))
    with np.errstate(under="ignore"):
        products = np.exp(sums[:, len(qs) :]).T.tolist()
    for q, hazard, totals, product in zip(qs, hazards.tolist(), sums[:, : len(qs)].T.tolist(),
                                          products):
        # Constant hazard: p(h) = (1 - Q)^h, so the decay horizon has a
        # closed form and needs no cap; at some subnormal q it is infinite.
        log_survival = math.log1p(-hazard)
        decay = math.log(DECAY_THRESHOLD) / log_survival if log_survival else math.inf
        if not math.isfinite(decay):
            yield ValueError(f"decay horizon is not finite at q={q}")
            continue
        yield ScalabilityVerdict(spec, q, Verdict.UNSCALABLE, 0.0,
                                 tuple(zip(EVIDENCE_HORIZONS, totals)),
                                 tuple(zip(EVIDENCE_HORIZONS, product)), math.ceil(decay))


def _evidence_rows(kind: Geometry, q: float) -> int:
    """Rows of hypercube's, xor's or ring's series past which no term
    can move either sum.

    Every computed hazard past row K is at most U = slack * q^K:

      hypercube  Q = q^m does not increase                    slack 1
      xor        Q = q^m (1 + E(m)), E(m) <= m - 1 < 10,000    slack 2 * 10,001
      ring       Q <= q^m / (1 - w) <= q^m / (1 - q), w <= q   slack 2 / (1 - q)

    The factor 2 covers rounding and xor's subnormal running-sum tail past
    the fixed point of q^m.  K = 2 + ceil((55 + log2 slack) / log2(1/q))
    gives U <= 2^-55 * q^2, a row to spare for log2's rounding.
    """
    horizon = EVIDENCE_HORIZONS[-1]
    slack = {Geometry.HYPERCUBE: 1.0, Geometry.XOR: 2.0 * (horizon + 1),
             Geometry.RING: 2.0 / (1.0 - q)}[kind]
    return min(horizon, 2 + math.ceil((55.0 + math.log2(slack)) / -math.log2(q)))


def _log_terms(hazards: np.ndarray) -> np.ndarray:
    """log1p(-h) of each hazard, as -h (its correctly rounded value) below
    2^-54.  A hazard of exactly 1 (q within an ulp of 1) gives
    log1p(-1) = -inf, and p = 0 from there on."""
    with np.errstate(under="ignore", divide="ignore"):
        return np.where(hazards >= 2.0**-54, np.log1p(-hazards), -hazards)


def _log_sums(hazards: np.ndarray) -> np.ndarray:
    """cumsum(log1p(-hazards)) of one series."""
    return np.cumsum(_log_terms(hazards))


def _constant_sums(steps: np.ndarray) -> np.ndarray:
    """np.cumsum(np.full(10_000, c))[h - 1] at each evidence horizon h,
    for each constant c of steps, bit for bit: a horizons x steps table.

    Recursive summation of a constant takes one fixed step inside each
    binade of the running sum.  While s and s + |c| lie in [2^(e-1), 2^e),
    whose ulp is u = 2^(e-53), fl(s + |c|) is s + m u, with m = |c| / u
    rounded to the nearest integer.  At a tie, |c| / u = k + 1/2,
    ties-to-even picks the even one of s/u + k and s/u + k + 1, so once
    s/u is even every step adds the even one of k and k + 1, which is
    rint(|c| / u), and s/u stays even.  Each pass makes one real addition,
    which may cross into the next binade or make s/u even, then jumps in
    whole ulps to the last step that stays in the binade, or to the
    horizon.  s/u, m and the step counts are integers below 2^53, held
    in floats, so the jump, and the floor division that bounds it, are
    exact.  Subnormal sums share u = 2^-1074 with
    [2^-1022, 2^-1021).  m = 0 stalls the sum, as does a non-finite one:
    the jump reaches the horizon at once.  Negative steps run as |c|,
    since round-to-nearest is symmetric.  That is about one pass per
    binade and one per horizon: 19 for the CLI grid's 10,000 additions.
    """
    size = np.abs(steps)
    s, terms = size.copy(), np.ones_like(size)
    out = np.empty((len(EVIDENCE_HORIZONS), len(s)))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, horizon in enumerate(EVIDENCE_HORIZONS):
            while (live := terms < horizon).any():
                s = np.where(live, s + size, s)  # the real addition
                terms += live
                finite = np.isfinite(s)
                exponent = np.maximum(np.frexp(s)[1], -1021) - 53  # u = 2^exponent
                units = np.ldexp(s, -exponent)  # s / u
                ratio = np.ldexp(size, -exponent)  # |c| / u
                m = np.where(finite, np.rint(ratio), 0.0)
                odd_tie = (np.abs(m - ratio) == 0.5) & (np.fmod(units, 2.0) == 1.0)
                gap = horizon - terms
                room = np.where(m > 0.0, (2.0**53 - 1.0 - units) // np.maximum(m, 1.0), gap)
                jump = np.where(odd_tie, 0.0, np.minimum(room, gap))
                units += jump * m
                terms += jump
                s = np.where(finite, np.ldexp(units, exponent), s)
            out[row] = s
    return np.copysign(out, steps)
