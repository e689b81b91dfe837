"""Routability of DHT routing geometries under uniform random node failure.

An analytic engine computes the probability that greedy routing survives
a failure-thinned overlay for five routing geometries (tree, hypercube,
XOR, ring, symphony), a Monte Carlo simulator cross-validates it on
concrete overlays, and a classifier settles each geometry's asymptotic
scalability.
"""

__version__ = "0.1.0"

from .analytic import (
    DenominatorMode,
    RoutabilityResult,
    expected_reach,
    hazard_series,
    routability,
    routability_sweep,
    tree_closed_form,
)
from .geometry import (
    ALL_GEOMETRIES,
    DistanceProfile,
    Geometry,
    GeometrySpec,
    distance_profile,
)
from .scalability import ScalabilityVerdict, Verdict, classify, classify_sweep
from .simulator import (
    FailurePattern,
    Overlay,
    RouteResult,
    SimOutcome,
    SimSeeds,
    build_overlay,
    draw_failure_pattern,
    estimate_routability,
    estimate_sweep,
    route,
)

__all__ = [
    "__version__",
    "ALL_GEOMETRIES",
    "DenominatorMode",
    "DistanceProfile",
    "FailurePattern",
    "Geometry",
    "GeometrySpec",
    "Overlay",
    "RoutabilityResult",
    "RouteResult",
    "ScalabilityVerdict",
    "SimOutcome",
    "SimSeeds",
    "Verdict",
    "build_overlay",
    "classify",
    "classify_sweep",
    "distance_profile",
    "draw_failure_pattern",
    "estimate_routability",
    "estimate_sweep",
    "expected_reach",
    "hazard_series",
    "routability",
    "routability_sweep",
    "route",
    "tree_closed_form",
]
