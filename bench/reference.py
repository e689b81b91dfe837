"""Independent references the benchmark checks the program's outputs against.

Nothing here imports simulator or analytic internals: the router reads only
the public ``Overlay.targets``/``Overlay.offsets`` arrays and a boolean
aliveness mask, and the analytic references are written from the formulas
in the README, so a change to the program's random streams or evaluation
strategy needs no change here.
"""

from __future__ import annotations

import math

HOP_CAP_FACTOR = 4

GEOMETRIES = ("tree", "hypercube", "xor", "ring", "symphony")


def reference_route(kind: str, targets, offsets, alive, src: int, dst: int):
    """(delivered, hops) of one greedy no-back-tracking route.

    tree, hypercube and xor step to the alive link that strictly decreases
    the XOR distance to dst the most (tree may only use the link that
    corrects the leftmost differing bit).  ring and symphony step along the
    longest alive link that does not overshoot dst clockwise.
    """
    n = len(alive)
    cur, hops = src, 0
    while cur != dst:
        if hops >= HOP_CAP_FACTOR * n:
            return False, hops
        links = targets[cur].tolist()
        if offsets is not None:
            remaining = (dst - cur) % n
            usable = [
                (off, t)
                for off, t in zip(offsets[cur].tolist(), links)
                if off <= remaining and alive[t]
            ]
            if not usable:
                return False, hops
            cur = max(usable)[1]
        else:
            dist = cur ^ dst
            if kind == "tree":
                top = 1 << (dist.bit_length() - 1)
                links = [t for t in links if t ^ cur == top]
            usable = [(t ^ dst, t) for t in links if alive[t] and t ^ dst < dist]
            if not usable:
                return False, hops
            cur = min(usable)[1]
        hops += 1
    return True, hops


def _success(kind: str, q: float, h_max: int) -> list[float]:
    """p(1..h_max) for tree (Q = q) or hypercube (Q(m) = q^m)."""
    out, p = [], 1.0
    for m in range(1, h_max + 1):
        p *= 1.0 - (q if kind == "tree" else q**m)
        out.append(p)
    return out


def reference_routability(kind: str, d: int, q: float) -> float:
    """sum_h C(d, h) p(h, q) / ((1 - q) 2^d - 1), clamped to [0, 1]."""
    p = _success(kind, q, d)
    reach = math.fsum(math.comb(d, h) * p[h - 1] for h in range(1, d + 1))
    return min(max(reach / ((1.0 - q) * 2.0**d - 1.0), 0.0), 1.0)


def reference_partial_product(kind: str, q: float, h: int) -> float:
    """p(h, q) for tree or hypercube."""
    return _success(kind, q, h)[-1]
