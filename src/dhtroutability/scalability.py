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
end at 2.96e-323 instead of 0).  A hazard that repeats to the end (all
of tree's and symphony's) takes log1p once, and exp is taken only at the
horizons.  Below 2^-54 the sum takes log1p(-h) as -h, its correctly
rounded value.

hypercube, xor and ring build only the rows that can still move a sum:
both sums are at least Q(1) = q in magnitude, so a term below 2^-55 * q
is under a quarter of an ulp of either and rounds away.  Past a row K(q)
every computed hazard is that small, so each horizon past K reads row K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import hazard_series
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
    """Scalability verdict for the geometry at failure probability q.

    Rejects q = 0 (and q >= 1): the limit is only meaningful for a
    nonzero failure probability.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(
            f"scalability is defined for 0 < q < 1, got q={q}: with no "
            "failures every geometry routes perfectly at any size"
        )
    rows = _evidence_rows(spec.kind, q)
    hazards = hazard_series(spec, q, rows)
    at = [min(h, rows) - 1 for h in EVIDENCE_HORIZONS]  # no later term moves a sum
    with np.errstate(under="ignore"):
        products = np.exp(_log_sums(hazards)[at]).tolist()
    partial_sums = tuple(zip(EVIDENCE_HORIZONS, np.cumsum(hazards)[at].tolist()))
    partial_products = tuple(zip(EVIDENCE_HORIZONS, products))

    verdict, limit_estimate, decay_horizon = Verdict.SCALABLE, products[-1], None
    if spec.kind in _UNSCALABLE_KINDS:
        # Constant hazard: p(h) = (1 - Q)^h, so the decay horizon has a
        # closed form and needs no cap; at some subnormal q it is infinite.
        log_survival = math.log1p(-float(hazards[0]))
        decay = math.log(DECAY_THRESHOLD) / log_survival if log_survival else math.inf
        if not math.isfinite(decay):
            raise ValueError(f"decay horizon is not finite at q={q}")
        verdict, limit_estimate, decay_horizon = Verdict.UNSCALABLE, 0.0, math.ceil(decay)
    return ScalabilityVerdict(spec, q, verdict, limit_estimate, partial_sums, partial_products,
                              decay_horizon)


def _evidence_rows(kind: Geometry, q: float) -> int:
    """Rows of the series past which no term can move either sum.

    Every computed hazard past row K is at most U = slack * q^K:

      hypercube  Q = q^m does not increase                    slack 1
      xor        Q = q^m (1 + E(m)), E(m) <= m - 1 < 10,000    slack 2 * 10,001
      ring       Q <= q^m / (1 - w) <= q^m / (1 - q), w <= q   slack 2 / (1 - q)

    The factor 2 covers rounding and xor's subnormal running-sum tail past
    the fixed point of q^m.  K = 2 + ceil((55 + log2 slack) / log2(1/q))
    gives U <= 2^-55 * q^2, a row to spare for log2's rounding.  Tree's
    and symphony's constant hazard moves both sums at every phase.
    """
    horizon = EVIDENCE_HORIZONS[-1]
    slack = {Geometry.HYPERCUBE: 1.0, Geometry.XOR: 2.0 * (horizon + 1),
             Geometry.RING: 2.0 / (1.0 - q)}.get(kind)
    if slack is None:
        return horizon
    return min(horizon, 2 + math.ceil((55.0 + math.log2(slack)) / -math.log2(q)))


def _log_sums(hazards: np.ndarray) -> np.ndarray:
    """cumsum(log1p(-hazards)) of one series, with log1p taken once for
    the repeating tail.  A hazard of exactly 1 (q within an ulp of 1)
    gives log1p(-1) = -inf and p = 0 from there on."""
    count = len(hazards)
    differs = hazards != hazards[-1]
    tail = count - int(np.argmax(differs[::-1])) if differs.any() else 0  # rows from tail on equal the last
    sums, head = np.negative(hazards), slice(0, tail + 1)
    with np.errstate(under="ignore", divide="ignore"):
        np.log1p(sums[head], out=sums[head], where=hazards[head] >= 2.0**-54)  # else -h: log1p(-h) rounded
        sums[tail + 1 :] = sums[tail]  # the tail's one term, taken once
        return np.cumsum(sums, out=sums)
