"""Monte Carlo overlay simulator: concrete topologies, failures, routing.

Builds fully populated overlays (every d-bit identifier hosts a node),
kills nodes independently with probability q, and routes over the
survivors with one greedy no-back-tracking rule: step to the alive link
that minimizes a distance metric to the target, and only if that link
strictly decreases it.  The metric is XOR distance for tree, hypercube
and xor, and clockwise distance for ring and symphony.  Two geometries
narrow the rule through their links alone:

  tree       may use only the link correcting the leftmost differing bit,
             so a dead bucket neighbor drops the message
  hypercube  links flip one bit each, so the XOR-minimal step flips the
             highest alive differing bit

For ring and symphony, strictly decreasing clockwise distance is the same
as taking the longest alive link that does not overshoot the target.
Every hop strictly decreases the metric, so routes are loop-free; a
defensive hop cap of 4N aborts a route anyway and is counted separately.

Two routers apply the rule to whole pair arrays in lockstep and give
the same results.  The metric path (_route_batch) scores every link of
every active pair.  The mask path (_route_mask; tree, hypercube, xor and
ring) packs one integer per node whose bit b is set when the link that
flips bit b, or finger b + 1, is alive, and then takes a highest set bit
per hop.  Packing costs N x links per aliveness row, so the estimators
take the mask path only while N is at most MASK_NODES_PER_PAIR times
the pairs per trial (3 for tree, 8 for ring, 12 for hypercube and xor,
each below its measured break-even); route(), symphony and larger N
take the metric path.  Both routers take a stack of aliveness rows, one
per q point, and route each pair over its own row.

estimate_sweep traces routability over a whole q grid.  Per trial it
builds the overlay once and draws one uniform per node once; the pattern
at q keeps the nodes whose uniform is at least q, so it is the pattern a
draw at q alone gives.  All q points' pairs then go through one router
call, or a few when rows x pairs or rows x N would pass
MAX_PAIRS_PER_TRIAL.  estimate_routability is the one-point sweep.

Randomized construction choices (XOR bucket suffixes, ring finger
offsets, symphony shortcut lengths) derive deterministically from a
64-bit build seed, and failure patterns and pair sampling from their own
seeds, so identical seeds reproduce bit-identical outcomes.  Each
overlay is one row-major N x links int32 table of link targets, plus one
of link spans for ring and symphony, and only one trial's overlay is
alive at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .geometry import Geometry, GeometrySpec

#: Simulator scale cap; the analytic pipeline alone covers larger d.
SIM_MAX_D = 20

#: Defensive hop cap multiplier (cap = 4 * N).
HOP_CAP_FACTOR = 4

#: Routing allocates pairs x links arrays per trial, so pairs are bounded.
MAX_PAIRS_PER_TRIAL = 1_000_000

#: Trials run one after another and each keeps its delivered fraction.
MAX_TRIALS = 10_000

#: Routes one estimate may run, trials x pairs_per_trial.
MAX_ROUTES = 100_000_000

#: estimate_routability routes on _route_mask while N <= factor x pairs
#: per trial.  Measured break-even at d = 12..18, q = 0 and 0.3: N/pairs
#: ~4 (tree), ~12 (ring), above 16 (hypercube, xor); the factors sit below
#: it.  symphony has no mask rule.
MASK_NODES_PER_PAIR = {
    Geometry.TREE: 3,
    Geometry.HYPERCUBE: 12,
    Geometry.XOR: 12,
    Geometry.RING: 8,
}

FAILED_DEAD_END = "dead_end"
FAILED_HOP_CAP = "hop_cap"


class SimSeeds(NamedTuple):
    """Independent 64-bit seeds for overlay builds, failures and pairs."""

    build: int
    fail: int
    pair: int


@dataclass(eq=False)
class Overlay:
    """A built topology: per-node neighbor targets with role tags.

    targets[v, c] is the node id of v's c-th link; roles[c] names the
    link kind (bucket-i / finger-i / near-i / shortcut-i).  offsets holds
    the clockwise link spans for ring and symphony, None otherwise.
    """

    spec: GeometrySpec
    build_seed: int
    targets: np.ndarray
    offsets: np.ndarray | None
    roles: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes


def build_overlay(spec: GeometrySpec, build_seed: int) -> Overlay:
    """Construct the full adjacency for one overlay instance.

    Rejects d > 20 (simulator scale).  All randomized choices come from
    build_seed, drawn column by column in a fixed order.
    """
    d = spec.d
    if d > SIM_MAX_D:
        raise ValueError(f"simulator supports d <= {SIM_MAX_D}, got d={d}")
    if build_seed < 0:
        raise ValueError("build_seed must be a non-negative integer")
    n = 1 << d
    ids = np.arange(n, dtype=np.int32)
    rng = np.random.default_rng(np.random.SeedSequence(build_seed))
    kind = spec.kind

    if kind in (Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR):
        # Bucket-i neighbor (column i-1) flips bit i (bit 1 = most significant)
        # and keeps every other bit, so tree hops correct exactly one bit.
        bits = (1 << np.arange(d - 1, -1, -1)).astype(np.int32)
        targets = ids[:, None] ^ bits
        if kind is Geometry.XOR:
            # xor keeps bits 1..i-1, flips bit i, and draws the remaining
            # d-i bits uniformly at random (no draw for the last bucket).
            targets &= ~(bits - 1)
            suffixes = np.zeros((d, n), dtype=np.int32)
            for c, bit in enumerate(bits[:-1].tolist()):
                suffixes[c] = rng.integers(0, bit, size=n, dtype=np.int64)
            targets |= suffixes.T
        roles = tuple(f"bucket-{i}" for i in range(1, d + 1))
        return Overlay(spec, build_seed, targets, None, roles)

    if kind is Geometry.RING:
        # Finger i spans a clockwise offset drawn uniformly from
        # [2^(i-1), 2^i); finger 1 is always the immediate successor.
        spans = np.empty((d, n), dtype=np.int32)
        for i in range(1, d + 1):
            low = 1 << (i - 1)
            spans[i - 1] = rng.integers(low, 2 * low, size=n, dtype=np.int64)
        roles = tuple(f"finger-{i}" for i in range(1, d + 1))
    elif kind is Geometry.SYMPHONY:
        # k_n immediate clockwise successors plus k_s shortcuts whose
        # length floor(N^u), u ~ U[0,1), follows the harmonic law.
        spans = np.empty((spec.k_n + spec.k_s, n), dtype=np.int32)
        spans[: spec.k_n] = np.arange(1, spec.k_n + 1, dtype=np.int32)[:, None]
        for row in range(spec.k_n, spec.k_n + spec.k_s):
            u = rng.random(n)
            spans[row] = np.clip(np.floor(n**u).astype(np.int64), 1, n - 1)
        roles = tuple(f"near-{j}" for j in range(1, spec.k_n + 1)) + tuple(
            f"shortcut-{j}" for j in range(1, spec.k_s + 1)
        )
    else:
        raise ValueError(f"unknown geometry kind: {kind}")
    offsets = np.ascontiguousarray(spans.T)
    del spans
    # int32 cannot overflow: ids and spans are below 2^SIM_MAX_D, so every
    # sum is below 2^21 before the wrap-around mask.
    targets = ids[:, None] + offsets
    targets &= n - 1
    return Overlay(spec, build_seed, targets, offsets, roles)


@dataclass(eq=False)
class FailurePattern:
    """Aliveness mask: each node failed independently with probability q."""

    alive: np.ndarray
    q: float
    fail_seed: int

    @property
    def n_nodes(self) -> int:
        return int(self.alive.shape[0])

    @property
    def n_alive(self) -> int:
        return int(np.count_nonzero(self.alive))


def _check_q(q: float) -> None:
    if not 0.0 <= q < 1.0:
        raise ValueError(f"failure probability q must be in [0, 1), got {q}")


def _failure_uniforms(n_nodes: int, fail_seed: int) -> np.ndarray:
    """One uniform per node from fail_seed; a node fails at q when its
    uniform is below q, so one draw serves every q."""
    return np.random.default_rng(np.random.SeedSequence(fail_seed)).random(n_nodes)


def draw_failure_pattern(n_nodes: int, q: float, fail_seed: int) -> FailurePattern:
    """Reproducible aliveness mask over n_nodes from (q, fail_seed)."""
    _check_q(q)
    alive = _failure_uniforms(n_nodes, fail_seed) >= q
    return FailurePattern(alive=alive, q=q, fail_seed=fail_seed)


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one greedy route: delivered with a hop count, or failed
    with a reason (dead_end or hop_cap)."""

    delivered: bool
    hops: int
    reason: str | None

    def __bool__(self) -> bool:
        return self.delivered


def _row_offsets(table: np.ndarray, n: int, row, pairs: int):
    """table's rows of n entries as one flat array, and each pair's row
    start in it (int32: estimate_sweep keeps rows x N below 2^21)."""
    start = np.broadcast_to(np.asarray(row, dtype=np.int32) * n, (pairs,))
    return np.reshape(table, -1), start


def _route_batch(overlay: Overlay, alive: np.ndarray, src, dst, row=0):
    """Greedy routes for whole pair arrays, advanced in lockstep.

    Each step moves every active pair to its alive link with the smallest
    metric to the target, among links that strictly decrease it: XOR
    distance, or clockwise distance when the overlay has offsets.  A tree
    node may use only the link correcting the leftmost differing bit.
    Pairs with no usable link are dead ends; pairs still active after
    HOP_CAP_FACTOR * N steps hit the hop cap.  alive is one aliveness
    mask over the N nodes, or a rows x N stack of them (one per q point),
    and pair i routes over row[i].  Returns per-pair (delivered, hops,
    capped) arrays.
    """
    d, n = overlay.spec.d, overlay.n_nodes
    clockwise = overlay.offsets is not None
    tree = overlay.spec.kind is Geometry.TREE
    bit_values = 1 << np.arange(d)
    cur = np.array(src, dtype=np.int32)
    dst = np.asarray(dst, dtype=np.int32)
    alive, start = _row_offsets(alive, n, row, cur.size)
    hops = np.zeros(cur.shape, dtype=np.int32)
    active = np.flatnonzero(cur != dst)
    steps = 0
    while active.size and steps < HOP_CAP_FACTOR * n:
        steps += 1
        node, goal = cur[active], dst[active]
        here = (goal - node) & (n - 1) if clockwise else node ^ goal
        if tree:
            # Column c flips bit d-1-c; bit_length(here) by exact search.
            col = d - np.searchsorted(bit_values, here, side="right")
            links = overlay.targets[node, col][:, None]
        else:
            links = overlay.targets[node]
        metric = (goal[:, None] - links) & (n - 1) if clockwise else links ^ goal[:, None]
        # Metrics are below n = 2^d, so n on a dead link rules it out.
        metric = np.where(alive[start[active][:, None] + links], metric, n)
        rows = np.arange(active.size)
        best = metric.argmin(axis=1)
        moved = metric[rows, best] < here
        active = active[moved]
        cur[active] = links[rows[moved], best[moved]]
        hops[active] += 1
        active = active[cur[active] != dst[active]]
    capped = np.zeros(cur.shape, dtype=bool)
    capped[active] = True
    return cur == dst, hops, capped


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact int.bit_length per entry (0 for 0): frexp's exponent, since
    every value is below 2^53."""
    return np.frexp(x)[1]


def _route_mask(overlay: Overlay, alive: np.ndarray, src, dst, row=0):
    """_route_batch for tree, hypercube, xor and ring, one bit operation
    per hop instead of a pairs x links metric.

    First packs one integer per node: bit b is set when the link that
    flips bit b (tree, hypercube, xor) or finger b + 1 (ring) is alive.
    The greedy choice then reads off a highest set bit:
      tree, hypercube, xor  the highest alive bit of node ^ dst; tree only
                            looks at the leftmost one
      ring                  finger L when it is alive and does not
                            overshoot, L being the bit length of the
                            clockwise distance, else the highest alive
                            finger below L (those never overshoot)
    Packing costs N x links per aliveness row, so it pays only when N is
    small next to the pairs routed.  Same arguments and (delivered, hops,
    capped) as _route_batch.
    """
    d, n = overlay.spec.d, overlay.n_nodes
    ring = overlay.offsets is not None
    tree = overlay.spec.kind is Geometry.TREE
    # Column c is finger c + 1 on the ring, and flips bit d - 1 - c otherwise.
    column_bit = np.arange(d) if ring else np.arange(d - 1, -1, -1)
    weights = 1 << column_bit
    # Row by row, so the int64 copy the product makes stays N x links.
    packed = np.stack([np.take(a, overlay.targets) @ weights for a in np.reshape(alive, (-1, n))])
    cur = np.array(src, dtype=np.int32)
    dst = np.asarray(dst, dtype=np.int32)
    mask, start = _row_offsets(packed, n, row, cur.size)
    hops = np.zeros(cur.shape, dtype=np.int32)
    active = np.flatnonzero(cur != dst)
    steps = 0
    while active.size and steps < HOP_CAP_FACTOR * n:
        steps += 1
        node, goal = cur[active], dst[active]
        links = mask[start[active] + node]
        if ring:
            here = (goal - node) & (n - 1)
            top = _bit_length(here) - 1
            take_top = (links >> top) & 1 & (overlay.offsets[node, top] <= here)
            bit = np.where(take_top, top, _bit_length(links & ((1 << top) - 1)) - 1)
        else:
            here = node ^ goal
            if tree:
                here = 1 << (_bit_length(here) - 1)
            bit = _bit_length(links & here) - 1
        moved = bit >= 0
        active = active[moved]
        column = bit[moved] if ring else d - 1 - bit[moved]
        cur[active] = overlay.targets[node[moved], column]
        hops[active] += 1
        active = active[cur[active] != dst[active]]
    capped = np.zeros(cur.shape, dtype=bool)
    capped[active] = True
    return cur == dst, hops, capped


def route(overlay: Overlay, pattern: FailurePattern, src: int, dst: int) -> RouteResult:
    """Greedy no-back-tracking route from src to dst over alive neighbors.

    src and dst are not required to be alive here (a dead dst simply
    makes the route fail); the routability estimator samples both ends
    from the survivors.
    """
    n = overlay.n_nodes
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"node ids must be in [0, {n}), got src={src}, dst={dst}")
    if src == dst:
        raise ValueError("src and dst must differ")
    if pattern.n_nodes != n:
        raise ValueError("failure pattern size does not match the overlay")
    delivered, hops, capped = _route_batch(overlay, pattern.alive, [src], [dst])
    if delivered[0]:
        reason = None
    else:
        reason = FAILED_HOP_CAP if capped[0] else FAILED_DEAD_END
    return RouteResult(delivered=bool(delivered[0]), hops=int(hops[0]), reason=reason)


@dataclass(frozen=True)
class SimOutcome:
    """Monte Carlo routability estimate with its sampling pedigree."""

    spec: GeometrySpec
    q: float
    trials: int
    pairs_per_trial: int
    routable_fraction: float
    std_error: float
    hop_cap_hits: int
    seeds: SimSeeds
    trial_fractions: tuple[float, ...]
    redrawn_patterns: int


def _child_seed(root: int, *key: int) -> int:
    return int(
        np.random.SeedSequence([root, *key]).generate_state(1, np.uint64)[0]
    )


def estimate_routability(
    spec: GeometrySpec,
    q: float,
    trials: int,
    pairs_per_trial: int,
    seeds: SimSeeds,
    builder: Callable[[GeometrySpec, int], Overlay] = build_overlay,
) -> SimOutcome:
    """Fraction of alive ordered pairs the geometry can still route.

    Each trial builds a fresh overlay from its own build-seed stream,
    draws a fresh failure pattern (redrawn, and counted, if fewer than
    two nodes survive), samples pairs_per_trial ordered (src, dst) pairs
    uniformly among survivors, and routes each pair.  The estimate is the
    mean of per-trial delivered fractions; std_error is their sample
    standard deviation divided by sqrt(trials).
    """
    return estimate_sweep(spec, (q,), trials, pairs_per_trial, seeds, builder)[0]


def estimate_sweep(
    spec: GeometrySpec,
    qs: Iterable[float],
    trials: int,
    pairs_per_trial: int,
    seeds: SimSeeds,
    builder: Callable[[GeometrySpec, int], Overlay] = build_overlay,
) -> tuple[SimOutcome, ...]:
    """estimate_routability at every q of qs, one trial at a time.

    A trial builds its overlay once and draws its failure uniforms once;
    each q's pattern keeps the nodes whose uniform is at least q, which is
    the pattern estimate_routability draws at that q.  Only a q that
    leaves fewer than two survivors redraws, for itself.  Each q samples
    its pairs from the same pair stream as estimate_routability, and the
    trial routes all q points' pairs in one lockstep call, or one per
    group of q points that keeps rows x pairs and rows x N within
    MAX_PAIRS_PER_TRIAL.  So every outcome equals estimate_routability's
    at its q.
    """
    if trials < 1 or pairs_per_trial < 1:
        raise ValueError("trials and pairs_per_trial must be >= 1")
    if pairs_per_trial > MAX_PAIRS_PER_TRIAL:
        raise ValueError(f"pairs_per_trial must be <= {MAX_PAIRS_PER_TRIAL}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= {MAX_TRIALS}")
    if trials * pairs_per_trial > MAX_ROUTES:
        raise ValueError(f"trials * pairs_per_trial must be <= {MAX_ROUTES}")
    qs = tuple(qs)
    for q in qs:
        _check_q(q)
    n = spec.n_nodes
    per_pair = MASK_NODES_PER_PAIR.get(spec.kind, 0)
    router = _route_mask if n <= per_pair * pairs_per_trial else _route_batch
    # q points per router call: its routes, aliveness flags and packed
    # masks (rows x pairs, rows x N) stay bounded, as for a single q.
    group = max(1, MAX_PAIRS_PER_TRIAL // max(pairs_per_trial, n))
    delivered = np.zeros((len(qs), trials), dtype=np.int64)
    hop_cap_hits = np.zeros(len(qs), dtype=np.int64)
    redrawn = np.zeros(len(qs), dtype=np.int64)
    for trial in range(trials):
        overlay = builder(spec, _child_seed(seeds.build, trial))
        uniforms = _failure_uniforms(n, _child_seed(seeds.fail, trial, 0))
        pair_seed = np.random.SeedSequence([seeds.pair, trial])
        for first in range(0, len(qs), group):
            chunk = qs[first : first + group]
            alive = np.empty((len(chunk), n), dtype=bool)
            src = np.empty((len(chunk), pairs_per_trial), dtype=np.int32)
            dst = np.empty_like(src)
            for row, q in enumerate(chunk):
                np.greater_equal(uniforms, q, out=alive[row])
                attempt = 0
                while np.count_nonzero(alive[row]) < 2:
                    attempt += 1
                    fail_seed = _child_seed(seeds.fail, trial, attempt)
                    np.greater_equal(_failure_uniforms(n, fail_seed), q, out=alive[row])
                redrawn[first + row] += attempt
                src[row], dst[row] = _sample_pairs(alive[row], pairs_per_trial, pair_seed)
            rows = np.repeat(np.arange(len(chunk)), pairs_per_trial)
            got, _, capped = router(overlay, alive, src.reshape(-1), dst.reshape(-1), rows)
            done = slice(first, first + len(chunk))
            delivered[done, trial] = np.count_nonzero(got.reshape(len(chunk), -1), axis=1)
            hop_cap_hits[done] += np.count_nonzero(capped.reshape(len(chunk), -1), axis=1)
        # Release this trial's tables so only one overlay is alive at a time.
        del overlay, uniforms
    return tuple(
        _outcome(spec, q, pairs_per_trial, seeds, delivered[i], hop_cap_hits[i], redrawn[i])
        for i, q in enumerate(qs)
    )


def _sample_pairs(alive: np.ndarray, pairs: int, pair_seed: np.random.SeedSequence):
    """pairs ordered (src, dst) pairs of distinct survivors, uniformly."""
    survivors = np.flatnonzero(alive)
    pair_rng = np.random.default_rng(pair_seed)
    n_alive = survivors.size
    src_idx = pair_rng.integers(0, n_alive, size=pairs)
    dst_idx = pair_rng.integers(0, n_alive, size=pairs)
    collision = src_idx == dst_idx
    while collision.any():
        dst_idx[collision] = pair_rng.integers(0, n_alive, size=int(collision.sum()))
        collision = src_idx == dst_idx
    return survivors[src_idx], survivors[dst_idx]


def _outcome(spec, q, pairs_per_trial, seeds, delivered, hop_cap_hits, redrawn) -> SimOutcome:
    """SimOutcome from one q's per-trial delivered counts."""
    trials = len(delivered)
    fractions = [count / pairs_per_trial for count in delivered.tolist()]
    mean = math.fsum(fractions) / trials
    if trials > 1:
        variance = math.fsum((f - mean) ** 2 for f in fractions) / (trials - 1)
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return SimOutcome(
        spec=spec,
        q=q,
        trials=trials,
        pairs_per_trial=pairs_per_trial,
        routable_fraction=mean,
        std_error=std_error,
        hop_cap_hits=int(hop_cap_hits),
        seeds=seeds,
        trial_fractions=tuple(fractions),
        redrawn_patterns=int(redrawn),
    )
