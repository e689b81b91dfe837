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

One lockstep driver (_lockstep) advances whole pair arrays one hop at a
time under one router, _route_batch.  symphony walks its links for the
longest alive span that does not overshoot; tree, hypercube, xor and ring
share one word rule, which reads a node's alive links from one integer,
bit b for link row b (below).  The router packs every node's word once
per aliveness row, at N x links, while N is at most MASK_NODES_PER_PAIR
times the pairs per row, and otherwise reads each active pair's links per
hop, from the highest usable one down.  It takes a stack of aliveness
rows, one per q point, and routes each pair over its own row.

estimate_sweep traces routability over a whole q grid: per trial it
builds the overlay and draws one failure uniform per node once, for
every q.  estimate_routability is the one-point sweep.

Randomized construction choices (XOR bucket suffixes, ring finger
offsets, symphony shortcut lengths) derive deterministically from a
64-bit build seed, and failure patterns and pair sampling from their own
seeds, so identical seeds reproduce bit-identical outcomes, on any CPU
count: from PARALLEL_MIN_NODES nodes on, tables and failure uniforms are
drawn by one thread per CPU, each from its stream jumped ahead to its
share's first draw, in place (_draw_below shifts raw draws into a table).
An overlay is its spec plus the one value its build draws per link, stored
link-major in word-bit order: row b holds the link that flips bit b, or
finger b + 1, and symphony's rows are its links.  The low 16 bits sit in a
links x N uint16 table, the bits above in a uint8 plane of its last rows,
whose values can reach 2^16 (none up to d = 16; at d = 20, three rows for
xor and ring, and k_s for symphony):

  tree, hypercube  nothing: link b of node v is v ^ (1 << b)
  xor              the drawn b-bit suffix below flipped bit b; the target
                   keeps v's bits above it
  ring             span - 2^b, also below 2^b; a target is (v + span) mod N
  symphony         the span

_link_entries reads a row's int32 table entries (xor's target, ring's and
symphony's span) from what is stored, and _link_targets its targets; the
router reads links only through them.  Overlay.table, .targets and
.offsets keep the column order of roles (bucket-1 first), derived from
the rows only when read.  Only one trial's overlay is alive at a time.
check_scale caps d at SIM_MAX_D, and symphony's k_n too, since each near
link is a table row.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .geometry import Geometry, GeometrySpec, check_q

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

#: The router packs alive-link words while N <= factor x pairs per row,
#: and gathers them per hop otherwise.  Measured break-even at d = 12..18:
#: N/pairs 8-16 (11 q rows, 0 to 0.5) or 16-32 (one row, q = 0.3) for
#: hypercube, xor and ring; tree's one-link gather wins from 2 at d >= 14.
MASK_NODES_PER_PAIR = 10

#: Tables of at least PARALLEL_MIN_NODES nodes are drawn on every CPU, DRAW_CHUNK
#: entries at a time (measured on 2 CPUs: break-even at d = 15; smaller chunks lose).
PARALLEL_MIN_NODES = DRAW_CHUNK = 1 << 16

FAILED_DEAD_END = "dead_end"
FAILED_HOP_CAP = "hop_cap"


class SimSeeds(NamedTuple):
    """Independent 64-bit seeds for overlay builds, failures and pairs."""

    build: int
    fail: int
    pair: int


class Overlay:
    """A built topology: its spec plus the one value its build draws per link.

    Overlay(spec, table) takes the links x N integer table in roles order:
    xor's link targets, ring's and symphony's clockwise spans, None for tree
    and hypercube.  It rejects a table whose presence, shape, dtype or
    entries do not fit spec: xor's link in row b must flip bit b and keep
    every bit above it, ring's (finger b + 1) must lie in [2^b, 2^(b+1)),
    symphony's near-j spans must be j and its shortcut spans lie in [1, N).
    It stores only each entry's value, in row _row(c) of link column c (see
    the module docstring): a links x N uint16 table and, on the last rows
    _high_rows, whose values can reach 2^16, a uint8 plane of the bits above.

    roles[c] names link column c's kind (bucket-i / finger-i / near-i /
    shortcut-i).  table, offsets[v, c], v's c-th clockwise span (table's
    N x links .T view; None off the ring), and targets[v, c], the node id of
    v's c-th link, are derived on first read and cached; routing never
    reads them.
    """

    _low = _high = None

    def __init__(self, spec: GeometrySpec, table: np.ndarray | None = None):
        self.spec = spec
        kind = spec.kind
        if (table is None) != (kind in (Geometry.TREE, Geometry.HYPERCUBE)):
            stored = "no" if table is not None else "a"
            raise ValueError(f"{kind} overlays store {stored} link table")
        if table is None:
            return
        links = len(self.roles)
        if np.shape(table) != (links, self.n_nodes):
            raise ValueError(f"{kind} link table must be {links} x {self.n_nodes}, "
                             f"got {np.shape(table)}")
        table = np.asarray(table)
        if not np.issubdtype(table.dtype, np.integer):
            raise ValueError(f"{kind} link table must hold integers, got {table.dtype}")
        self._allocate()
        ids = np.arange(self.n_nodes)
        for c, entries in enumerate(table):  # one row's int64 temporaries at a time
            entries, row = entries.astype(np.int64), self._row(c)
            base = _value_base(spec, row, ids)
            values = entries if base is None else entries ^ base
            lo, hi = _value_bounds(spec, row)
            bad = np.flatnonzero((values < lo) | (values >= hi))
            if bad.size:
                raise ValueError(f"{kind} link {self.roles[c]} of node {bad[0]} is out of range: "
                                 f"{entries[bad[0]]}")
            self._low[row] = values
            if row in self._high_rows:
                self._high[row - self._high_rows.start] = values >> 16

    def _allocate(self) -> None:
        """Allocate the unfilled uint16 table and the uint8 plane of its tall rows."""
        links = len(self.roles)
        tall = np.count_nonzero(_value_bounds(self.spec, np.arange(links))[1] > 1 << 16)
        self._high_rows = range(links - tall, links)
        self._low = np.empty((links, self.n_nodes), dtype=np.uint16)
        self._high = np.empty((tall, self.n_nodes), dtype=np.uint8)

    def _row(self, column):
        """Link column column's row: the bit it flips (bucket-i: d - i), or column."""
        return column if self.spec.kind in (Geometry.RING, Geometry.SYMPHONY) else self.spec.d - 1 - column

    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    @property
    def roles(self) -> tuple[str, ...]:
        spec = self.spec
        if spec.kind is Geometry.SYMPHONY:
            return tuple(f"near-{j}" for j in range(1, spec.k_n + 1)) + tuple(
                f"shortcut-{j}" for j in range(1, spec.k_s + 1)
            )
        link = "finger" if spec.kind is Geometry.RING else "bucket"
        return tuple(f"{link}-{i}" for i in range(1, spec.d + 1))

    def _derive(self, rule) -> np.ndarray:
        """rule(self, row, nodes) for each link column's row, as a links x N
        int32 table in roles order, 2^16 nodes at a time, so that the rule's
        temporaries stay in cache."""
        ids = np.arange(self.n_nodes, dtype=np.int32)
        table = np.empty((len(self.roles), self.n_nodes), dtype=np.int32)
        for c, out in enumerate(table):
            for first in range(0, self.n_nodes, 1 << 16):
                out[first : first + (1 << 16)] = rule(self, self._row(c), ids[first : first + (1 << 16)])
        return table

    @functools.cached_property
    def table(self) -> np.ndarray | None:
        return None if self._low is None else self._derive(_link_entries)

    @functools.cached_property
    def offsets(self) -> np.ndarray | None:
        return self.table.T if self.spec.kind in (Geometry.RING, Geometry.SYMPHONY) else None

    @functools.cached_property
    def targets(self) -> np.ndarray:
        return self.table.T if self.spec.kind is Geometry.XOR else self._derive(_link_targets).T


def _value_bounds(spec: GeometrySpec, row):
    """(lo, hi): the range [lo, hi) of the values stored in rows row."""
    if spec.kind is not Geometry.SYMPHONY:
        return 0, 1 << row
    near = row < spec.k_n
    return np.where(near, row + 1, 1), np.where(near, row + 2, spec.n_nodes)


def _value_base(spec: GeometrySpec, row, node):
    """What row row of the nodes node XORs onto its stored value to give its
    table entry: xor's target bits from the flipped one up, ring's 2^row,
    and None for symphony, which stores its entries."""
    if spec.kind is Geometry.XOR:
        return ((node >> row) ^ 1) << row
    return np.left_shift(1, row, dtype=np.int32) if spec.kind is Geometry.RING else None


def _link_entries(overlay: Overlay, row, node):
    """The table entries in row row of the nodes node, int32 arrays that
    broadcast: the stored value, its uint16 table bits and on _high_rows the
    plane's bits above them, XOR its _value_base.  A row outside the table
    gives some value; callers use it only where they discard it."""
    n = overlay.n_nodes
    value = overlay._low.take(row * n + node, mode="clip").astype(np.int32)
    tall = row - overlay._high_rows.start
    if np.max(tall) >= 0:
        high = overlay._high.take(tall * n + node, mode="clip")
        value |= np.left_shift(high, 16, dtype=np.int32) * (tall >= 0)
    base = _value_base(overlay.spec, row, node)
    return value if base is None else value ^ base


def _link_targets(overlay: Overlay, row, node):
    """The targets in row row of the nodes node, int32 arrays that
    broadcast, by the overlay's geometry: node ^ 2^row on tree and
    hypercube, xor's table entry, (node + span) mod N on ring and symphony.
    A row outside the table gives some node id; callers use it only where
    they discard it."""
    spec = overlay.spec
    if spec.kind in (Geometry.TREE, Geometry.HYPERCUBE):
        return node ^ np.left_shift(1, row, dtype=np.int32)
    entry = _link_entries(overlay, row, node)
    # int32 cannot overflow: ids and spans are below 2^SIM_MAX_D (near spans
    # are at most k_n <= SIM_MAX_D), so a sum is below 2^21.
    return entry if spec.kind is Geometry.XOR else (node + entry) & (overlay.n_nodes - 1)


def check_scale(spec: GeometrySpec) -> None:
    """Reject a spec too large to simulate: d > SIM_MAX_D, or symphony
    k_n > SIM_MAX_D (each near link is a table row)."""
    if spec.d > SIM_MAX_D:
        raise ValueError(f"simulator supports d <= {SIM_MAX_D}, got d={spec.d}")
    if spec.kind is Geometry.SYMPHONY and spec.k_n > SIM_MAX_D:
        raise ValueError(f"simulator supports k_n <= {SIM_MAX_D}, got k_n={spec.k_n}")


def check_budget(trials: int, pairs_per_trial: int) -> None:
    """Reject a sampling budget outside 1..MAX_TRIALS trials of
    1..MAX_PAIRS_PER_TRIAL pairs, or above MAX_ROUTES routes in all."""
    if trials < 1 or pairs_per_trial < 1:
        raise ValueError("trials and pairs must be >= 1")
    if pairs_per_trial > MAX_PAIRS_PER_TRIAL:
        raise ValueError(f"pairs must be <= {MAX_PAIRS_PER_TRIAL}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= {MAX_TRIALS}")
    if trials * pairs_per_trial > MAX_ROUTES:
        raise ValueError(f"trials x pairs must be <= {MAX_ROUTES}")


def _draw_in_shares(seed: int, table: np.ndarray, per_draw: int, fill) -> np.ndarray:
    """Fill and return a rows x N table as one PCG64(SeedSequence(seed)) stream
    drawn row by row, per_draw entries to a raw draw: fill(rng, part, row, node)
    draws part, table[row, node : node + part.size], from rng, whose next raw
    draw is that entry's.  From PARALLEL_MIN_NODES nodes on, one share of the
    parts per usable CPU is drawn on its own thread by a generator jumped ahead
    to the share's first draw; a share's exception is raised once all are joined.
    """
    n = table.shape[1]
    chunk = max(1, min(DRAW_CHUNK, n))
    affinity = getattr(os, "sched_getaffinity", None)
    shares = (len(affinity(0)) if affinity else os.cpu_count() or 1) if n >= PARALLEL_MIN_NODES else 1
    step = chunk * max(1, -(-table.size // (chunk * shares)))
    errors = []

    def share(first):
        try:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(first // per_draw))
            for at in range(first, min(first + step, table.size), chunk):
                row, node = divmod(at, n)
                fill(rng, table[row, node : node + chunk], row, node)
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=share, args=(first,)) for first in range(step, table.size, step)]
    for thread in threads:
        thread.start()
    share(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return table


def _draw_below(rng: np.random.Generator, bits: int, out: np.ndarray, high=None) -> None:
    """Fill out with rng.integers(0, 1 << bits, size=out.size), the same
    values and generator state, for bits below 32 and an even out.size,
    each value wrapped to out's dtype, and high, if given, with each
    value >> 16.

    On a power-of-two range Lemire's method never rejects, so each value
    is the top bits bits of one 32-bit output, two per raw 64-bit draw
    (low half first), shifted straight into out.  0 bits draw nothing, as
    in numpy; no 0-bit row has a high plane.
    """
    if bits == 0:
        out.fill(0)
        return
    raw = rng.bit_generator.random_raw(out.size // 2).astype("<u8", copy=False).view("<u4")
    np.right_shift(raw, 32 - bits, out=out)
    if high is not None:
        np.right_shift(raw, 48 - bits, out=high)


def build_overlay(spec: GeometrySpec, build_seed: int) -> Overlay:
    """Construct the full adjacency for one overlay instance.

    Rejects a spec check_scale rejects.  All randomized choices come from
    build_seed, drawn row by row in a fixed order straight into the stored
    planes.
    """
    check_scale(spec)
    if build_seed < 0:
        raise ValueError("build_seed must be a non-negative integer")
    n = spec.n_nodes
    kind = spec.kind

    if kind in (Geometry.TREE, Geometry.HYPERCUBE):
        # Link b flips bit b and keeps every other bit, so tree hops correct
        # exactly one bit.
        return Overlay(spec)
    overlay = Overlay.__new__(Overlay)
    overlay.spec = spec
    overlay._allocate()
    low, rows = overlay._low, overlay._high_rows

    def high(row, node, part):  # the uint8 plane's part beside part, or None
        return overlay._high[row - rows.start, node : node + part.size] if row in rows else None

    if kind is Geometry.XOR:
        # Bucket i keeps the bits above bit b = d - i, flips it, and draws
        # the b bits below uniformly at random (bucket d draws nothing).
        # Buckets are drawn in roles order, into the reversed rows.
        def buckets(rng, part, column, node):
            row = overlay._row(column)
            _draw_below(rng, row, part, high(row, node, part))

        _draw_in_shares(build_seed, low[::-1], 2, buckets)
    elif kind is Geometry.RING:
        # Finger i spans a clockwise offset drawn uniformly from
        # [2^(i-1), 2^i); finger 1 is always the immediate successor.
        low[0] = 0
        fingers = lambda rng, part, row, node: _draw_below(rng, row + 1, part, high(row + 1, node, part))
        _draw_in_shares(build_seed, low[1:], 2, fingers)
    else:
        # symphony: k_n immediate clockwise successors plus k_s shortcuts of
        # harmonic length floor(N^u), u ~ U[0,1), drawn in place in u.
        def shortcuts(rng, part, row, node):
            u = rng.random(part.size)
            np.clip(np.floor(np.power(n, u, out=u), out=u), 1, n - 1, out=u)
            top = high(spec.k_n + row, node, part)
            span = u if top is None else u.astype(np.uint32)
            part[...] = span
            if top is not None:
                np.right_shift(span, 16, out=top)

        low[: spec.k_n] = np.arange(1, spec.k_n + 1)[:, None]
        _draw_in_shares(build_seed, low[spec.k_n :], 1, shortcuts)
    return overlay


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


def _failure_uniforms(n_nodes: int, fail_seed: int) -> np.ndarray:
    """One uniform per node from fail_seed; a node fails at q when its
    uniform is below q, so one draw serves every q."""
    draw = lambda rng, part, row, node: rng.random(out=part)
    return _draw_in_shares(fail_seed, np.empty((1, n_nodes)), 1, draw)[0]


def draw_failure_pattern(n_nodes: int, q: float, fail_seed: int) -> FailurePattern:
    """Reproducible aliveness mask over n_nodes from (q, fail_seed)."""
    check_q(q)
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


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each element of a non-negative int32 array, as
    int32: frexp's exponent, exact since float64 holds every int32."""
    return np.frexp(x)[1]


def _lockstep(n: int, src, dst, row, step):
    """Greedy routes for whole pair arrays, every active pair one hop a step.

    step(node, goal, base) gives each active pair's next node and whether
    it dead-ends instead; base is row * n, the start of the pair's row in
    a flat rows x N table.  A pair leaving on step s has s hops when it
    reached goal, s - 1 when it dead-ended, and s when still active at the
    HOP_CAP_FACTOR * n cap.  Returns per-pair (delivered, hops, capped).
    """
    src = np.asarray(src, dtype=np.int32)
    dst = np.asarray(dst, dtype=np.int32)
    delivered = src == dst
    hops = np.zeros(src.shape, dtype=np.int32)
    capped = np.zeros(src.shape, dtype=bool)
    pair = np.flatnonzero(~delivered)
    node, goal = src.take(pair), dst.take(pair)
    # int32: estimate_sweep keeps rows x N below 2^21.
    base = np.broadcast_to(np.asarray(row, dtype=np.int32) * n, src.shape).take(pair)
    steps = 0
    while pair.size and steps < HOP_CAP_FACTOR * n:
        steps += 1
        node, dead = step(node, goal, base)
        stop = dead | (node == goal)
        left = np.flatnonzero(stop)
        dead = dead.take(left)
        out = pair.take(left)
        hops[out] = steps - dead
        delivered[out] = ~dead
        keep = np.flatnonzero(~stop)
        pair, node, goal, base = pair.take(keep), node.take(keep), goal.take(keep), base.take(keep)
    hops[pair] = steps
    capped[pair] = True
    return delivered, hops, capped


def _route_batch(overlay: Overlay, alive: np.ndarray, src, dst, row=0):
    """Greedy routes for whole pair arrays, for every geometry.

    symphony takes its longest alive span that does not overshoot.  tree,
    hypercube and xor take the highest alive bit of node ^ dst (tree:
    only the leftmost differing bit).  ring takes finger L when it is
    alive and does not overshoot, L being the bit length of the clockwise
    distance, else the highest alive finger below L, which never
    overshoots.  These four read each node's alive links from one word
    (_alive_link_words) and each link's target from _link_targets.  alive
    is one aliveness mask over the N nodes or a rows x N stack of them,
    and pair i routes over row[i].  Returns per-pair (delivered, hops,
    capped) arrays.
    """
    n = overlay.n_nodes
    alive = np.ravel(alive)
    if overlay.spec.kind is Geometry.SYMPHONY:
        links = range(len(overlay.roles))

        def step(node, goal, base):
            # The longest alive span that does not overshoot, one link
            # at a time; span 0 means no link is usable.
            here = (goal - node) & (n - 1)
            span = np.zeros_like(here)
            for link in links:
                o = _link_entries(overlay, link, node)
                usable = alive.take(base + ((node + o) & (n - 1)))
                usable &= o <= here
                np.maximum(span, o * usable, out=span)
            return (node + span) & (n - 1), span == 0

        return _lockstep(n, src, dst, row, step)

    ring = overlay.spec.kind is Geometry.RING
    tree = overlay.spec.kind is Geometry.TREE
    words = _alive_link_words(overlay, alive, np.size(src))

    def step(node, goal, base):
        # usable: the links the step may take; ring's top-phase finger only
        # when it does not overshoot, tree's leftmost differing bit only.
        if ring:
            here = (goal - node) & (n - 1)
            top = _bit_length(here) - 1
            overshoot = _link_entries(overlay, top, node) > here
            usable = (2 << top) - 1 - (overshoot << top)
        else:
            usable = node ^ goal
            if tree:
                usable = 1 << (_bit_length(usable) - 1)
        bit = _bit_length(words(node, base, usable) & usable) - 1
        # A dead end's bit is -1: its target is read and discarded.
        return _link_targets(overlay, bit, node), bit < 0

    return _lockstep(n, src, dst, row, step)


def _alive_link_words(overlay: Overlay, alive: np.ndarray, pairs: int):
    """words(node, base, usable): the alive-link words of nodes, each in
    the row that starts at base of the flat rows x N aliveness table
    alive, exact on the usable bits down to the highest alive one.

    Bit b of a word is set when the link in row b is alive.  While rows x N
    is at most MASK_NODES_PER_PAIR x pairs, every row is packed once up
    front.  Otherwise each call reads each node's highest usable link, and
    all its links (a cache miss each) only where it is dead.
    """
    if alive.size <= MASK_NODES_PER_PAIR * pairs:
        packed = np.ravel(_pack_alive_links(overlay, alive))
        return lambda node, base, usable: packed.take(base + node)
    bits = np.arange(len(overlay.roles), dtype=np.int32)

    def gathered(node, base, usable):
        top = _bit_length(usable) - 1
        # Where usable is 0, top is -1: the read is unused, shifts give 0.
        hit = alive.take(base + _link_targets(overlay, top, node))
        word = np.left_shift(hit, top, dtype=np.int32)
        miss = np.flatnonzero(~hit & (usable != 1 << top))
        if miss.size:
            links = _link_targets(overlay, bits[:, None], node.take(miss))
            word[miss] = np.left_shift(1, bits, dtype=np.int32) @ alive.take(base.take(miss) + links)
        return word

    return gathered


def _pack_alive_links(overlay: Overlay, alive: np.ndarray) -> np.ndarray:
    """One int32 per node and aliveness row (rows x N): bit b is set when
    the link in row b is alive in that row."""
    alive = np.reshape(alive, (-1, overlay.n_nodes))
    ids = np.arange(overlay.n_nodes, dtype=np.int32)
    packed = np.zeros(alive.shape, dtype=np.int32)
    for b in range(len(overlay.roles)):
        hit = alive.take(_link_targets(overlay, b, ids), axis=1)
        packed |= np.left_shift(hit, b, dtype=np.int32)
    return packed


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
    reason = None if delivered[0] else FAILED_HOP_CAP if capped[0] else FAILED_DEAD_END
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
    check_budget(trials, pairs_per_trial)
    qs = tuple(qs)
    for q in qs:
        check_q(q)
    n = spec.n_nodes
    # q points per router call: its routes, aliveness flags and packed
    # words (rows x pairs, rows x N) stay bounded, as for a single q.
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
            got, _, capped = _route_batch(overlay, alive, src.reshape(-1), dst.reshape(-1), rows)
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
    survivors = _survivor_ids(alive)
    pair_rng = np.random.default_rng(pair_seed)
    n_alive = survivors.size
    src_idx = pair_rng.integers(0, n_alive, size=pairs)
    dst_idx = pair_rng.integers(0, n_alive, size=pairs)
    collision = src_idx == dst_idx
    while collision.any():
        dst_idx[collision] = pair_rng.integers(0, n_alive, size=int(collision.sum()))
        collision = src_idx == dst_idx
    return survivors[src_idx], survivors[dst_idx]


def _survivor_ids(alive: np.ndarray) -> np.ndarray:
    """np.flatnonzero(alive) as int32, listed 2^16 nodes at a time, so the
    only int64 indices are one block's (512 KB), not one per survivor."""
    survivors = np.empty(np.count_nonzero(alive), dtype=np.int32)
    filled = 0
    for first in range(0, alive.size, 1 << 16):
        ids = np.flatnonzero(alive[first : first + (1 << 16)])
        part = survivors[filled : filled + ids.size]
        part[...] = ids
        part += first
        filled += ids.size
    return survivors


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
