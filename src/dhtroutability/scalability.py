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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import cumulative_success, hazard_series
from .geometry import Geometry, GeometrySpec

#: Decade horizons at which evidence is sampled.
EVIDENCE_HORIZONS = (10, 100, 1_000, 10_000)

#: Partial products that move less than this between the last two decades
#: count as converged.
CONVERGENCE_TOL = 1e-9

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
    horizon = EVIDENCE_HORIZONS[-1]
    hazards = hazard_series(spec, q, horizon)
    live = horizon - int(np.argmax(hazards[::-1] != 0.0))  # sums stop at the last nonzero
    sums = np.cumsum(hazards[:live])
    products = cumulative_success(hazards)
    partial_sums = tuple((m, float(sums[min(m, live) - 1])) for m in EVIDENCE_HORIZONS)
    partial_products = tuple((h, float(products[h - 1])) for h in EVIDENCE_HORIZONS)

    if spec.kind in _UNSCALABLE_KINDS:
        # Constant hazard: p(h) = (1 - Q)^h, so the decay horizon has a
        # closed form and needs no cap.
        per_phase = float(hazards[0])
        decay_horizon = math.ceil(
            math.log(DECAY_THRESHOLD) / math.log1p(-per_phase)
        )
        return ScalabilityVerdict(
            spec=spec,
            q=q,
            verdict=Verdict.UNSCALABLE,
            limit_estimate=0.0,
            partial_sums=partial_sums,
            partial_products=partial_products,
            decay_horizon=decay_horizon,
        )
    return ScalabilityVerdict(
        spec=spec,
        q=q,
        verdict=Verdict.SCALABLE,
        limit_estimate=float(products[-1]),
        partial_sums=partial_sums,
        partial_products=partial_products,
        decay_horizon=None,
    )

