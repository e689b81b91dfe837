"""Routing geometries and their distance profiles.

Five greedy-routing geometries over a fully populated d-bit identifier
space (N = 2^d nodes, binary identifiers, bits numbered 1..d from the
most significant):

  tree       prefix-correcting routing, one bucket neighbor per bit
  hypercube  bit-fixing routing over Hamming-distance-1 neighbors
  xor        Kademlia-style greedy routing on the XOR metric
  ring       Chord-style fingers at clockwise offsets [2^(i-1), 2^i)
  symphony   small-world ring with near neighbors plus harmonic shortcuts

The distance profile n(h) counts nodes at routing distance h (hops or
phases) from any root node:

  tree / hypercube / xor : n(h) = C(d, h)      (Hamming distance h)
  ring / symphony        : n(h) = 2^(h-1)      (clockwise phase h)

Both families satisfy sum_h n(h) = 2^d - 1.  Counts are exact integers
at every d; even at d = MAX_D each is below 2^1000 ~ 1.1e301, a finite
double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

# Largest d accepted: big-integer math.comb profiles cost O(d^2) per call.
MAX_D = 1000


class Geometry(str, Enum):
    TREE = "tree"
    HYPERCUBE = "hypercube"
    XOR = "xor"
    RING = "ring"
    SYMPHONY = "symphony"

    def __str__(self) -> str:
        return self.value


#: Geometries whose distance profile is binomial, n(h) = C(d, h).
BINOMIAL_GEOMETRIES = frozenset({Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR})

#: Canonical ordering used by reports and the CLI.
ALL_GEOMETRIES = (
    Geometry.TREE,
    Geometry.HYPERCUBE,
    Geometry.XOR,
    Geometry.RING,
    Geometry.SYMPHONY,
)


@dataclass(frozen=True)
class GeometrySpec:
    """A routing geometry plus its parameters.

    d is the identifier length in bits (N = 2^d).  k_n and k_s are the
    Symphony near-neighbor and shortcut counts, at least 1 each; they are
    ignored by the other geometries.
    """

    kind: Geometry
    d: int
    k_n: int = 1
    k_s: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Geometry):
            object.__setattr__(self, "kind", Geometry(self.kind))
        if not 1 <= self.d <= MAX_D:
            raise ValueError(f"identifier length d must be in [1, {MAX_D}], got {self.d}")
        if self.k_n < 1 or self.k_s < 1:
            raise ValueError(f"k_n and k_s must be >= 1, got k_n={self.k_n}, k_s={self.k_s}")
        if self.kind is Geometry.SYMPHONY and self.k_s > self.d:
            # The per-phase advance probability k_s/d must stay <= 1.
            raise ValueError("symphony requires k_s <= d")

    @property
    def n_nodes(self) -> int:
        return 1 << self.d


def check_q(q: float) -> None:
    """Reject a failure probability outside [0, 1)."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"failure probability q must be in [0, 1), got {q}")


@dataclass(frozen=True)
class DistanceProfile:
    """Node counts per routing distance h = 1..d from a root node:
    ``values[h-1]`` is n(h), an exact int."""

    d: int
    values: tuple


@functools.lru_cache(maxsize=256)
def distance_profile(spec: GeometrySpec) -> DistanceProfile:
    """Distance distribution n(h) for the given geometry, in exact counts.

    Memoised: both argument and result are frozen, and sweeps ask for the
    same few profiles at every q.
    """
    d = spec.d
    if spec.kind in BINOMIAL_GEOMETRIES:
        values = tuple(math.comb(d, h) for h in range(1, d + 1))
    else:
        values = tuple(1 << (h - 1) for h in range(1, d + 1))
    return DistanceProfile(d=d, values=values)
