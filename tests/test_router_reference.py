"""Differential test: the batched greedy router against a scalar reference.

reference_route follows the README's per-geometry rules one node at a
time and reads only an overlay's public targets/offsets arrays and an
aliveness mask.  route() and _route_batch must agree with it on
(delivered, hops, reason) for every pair tried.  tree, hypercube, xor and
ring step by one word rule whose alive-link words are either packed once
per aliveness row or gathered per hop; every case here runs on both word
sources, forced by monkeypatching MASK_NODES_PER_PAIR.
"""

import numpy as np
import pytest

from dhtroutability import simulator
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.simulator import (
    FailurePattern,
    Overlay,
    SimSeeds,
    _route_batch,
    build_overlay,
    draw_failure_pattern,
    estimate_routability,
    route,
)
from test_overlay_reference import reference_overlay

MASK_GEOMETRIES = (Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING)

# MASK_NODES_PER_PAIR values that force each word source: rows x N is
# never above 2^40 x pairs, and always above 0.
WORD_SOURCES = {"packed": 1 << 40, "gathered": 0}


def _each_word_source(monkeypatch):
    """Yield each word source's name with the router forced onto it, then
    put the real crossover back."""
    real = simulator.MASK_NODES_PER_PAIR
    for name, factor in WORD_SOURCES.items():
        monkeypatch.setattr(simulator, "MASK_NODES_PER_PAIR", factor)
        yield name
    monkeypatch.setattr(simulator, "MASK_NODES_PER_PAIR", real)


def reference_route(kind, targets, offsets, alive, src, dst, hop_cap):
    """README rules: tree corrects the leftmost differing bit, hypercube and
    xor step to the alive link nearest dst in XOR distance, ring and
    symphony take the longest alive link that does not overshoot dst."""
    n = len(alive)
    cur, hops = src, 0
    while cur != dst:
        if hops >= hop_cap:
            return False, hops, "hop_cap"
        links = targets[cur].tolist()
        if offsets is not None:
            remaining = (dst - cur) % n
            usable = [
                (-o, t) for o, t in zip(offsets[cur].tolist(), links) if o <= remaining and alive[t]
            ]
        else:
            diff = cur ^ dst
            if kind is Geometry.TREE:
                links = [t for t in links if (t ^ cur).bit_length() == diff.bit_length()]
            usable = [(t ^ dst, t) for t in links if alive[t] and t ^ dst < diff]
        if not usable:
            return False, hops, "dead_end"
        cur = min(usable)[1]
        hops += 1
    return True, hops, None


def _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks, links=None):
    """route() on the first route_checks pairs, and _route_batch on every
    pair and each word source, give reference_route's (delivered, hops,
    reason) over links, a (targets, offsets) pair, by default the overlay's."""
    hop_cap = simulator.HOP_CAP_FACTOR * len(alive)
    targets, offsets = links or (overlay.targets, overlay.offsets)
    want = [
        reference_route(overlay.spec.kind, targets, offsets, alive, s, t, hop_cap)
        for s, t in zip(src.tolist(), dst.tolist())
    ]
    pattern = FailurePattern(alive=alive, q=0.0, fail_seed=0)
    for s, t, w in zip(src[:route_checks].tolist(), dst[:route_checks].tolist(), want):
        got = route(overlay, pattern, s, t)
        assert (got.delivered, got.hops, got.reason) == w, (s, t)
    for source in _each_word_source(monkeypatch):
        delivered, hops, capped = (a.tolist() for a in _route_batch(overlay, alive, src, dst))
        reasons = [
            None if ok else "hop_cap" if cap else "dead_end" for ok, cap in zip(delivered, capped)
        ]
        assert list(zip(delivered, hops, reasons)) == want, source


def _pairs(n, rng, limit):
    if n * n > 1 << 24:
        # Too many ordered pairs to list: draw limit of them, dropping src == dst.
        src, dst = rng.integers(n, size=(2, limit))
        keep = np.flatnonzero(src != dst)
        return src[keep], dst[keep]
    src, dst = np.divmod(np.arange(n * n), n)
    keep = np.flatnonzero(src != dst)
    if keep.size > limit:
        keep = rng.choice(keep, size=limit, replace=False)
    return src[keep], dst[keep]


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize(
    "q, d",
    [(q, d) for d in (3, 6, 10) for q in (0.0, 0.1, 0.3, 0.6)] + [(0.1, 16), (0.3, 16)],
)
def test_batched_router_matches_reference(kind, d, q, monkeypatch):
    # d = 16 checks the link-major gathers on tables that outgrow the cache.
    # The reference routes over reference_overlay's links, not over
    # Overlay.targets, which the router's link rule derives.
    rng = np.random.default_rng([d, int(q * 10)])
    spec = GeometrySpec(kind, d)
    seed = int(rng.integers(2**32))
    overlay = build_overlay(spec, seed)
    alive = draw_failure_pattern(1 << d, q, int(rng.integers(2**32))).alive
    # Dead endpoints included: a dead dst can only dead-end.
    src, dst = _pairs(1 << d, rng, limit=1500)
    targets, offsets, _ = reference_overlay(spec, seed)
    _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=100, links=(targets, offsets))


@pytest.mark.parametrize("kind", [Geometry.XOR, Geometry.RING])
def test_high_plane_router_matches_reference_overlay(kind, monkeypatch):
    # At d = 18 the router's links include values read from the uint8
    # plane; the reference routes over reference_overlay's own targets, not
    # over Overlay.targets, which the router's link rule derives.
    spec = GeometrySpec(kind, 18)
    rng = np.random.default_rng(18)
    seed = int(rng.integers(2**32))
    overlay = build_overlay(spec, seed)
    targets, offsets, _ = reference_overlay(spec, seed)
    for q in (0.1, 0.3):
        alive = draw_failure_pattern(spec.n_nodes, q, int(rng.integers(2**32))).alive
        src, dst = _pairs(spec.n_nodes, rng, limit=150)
        _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=20, links=(targets, offsets))


@pytest.mark.parametrize("d", [3, 6, 10])
@pytest.mark.parametrize("k_n, k_s", [(3, 4), (20, None)])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.3, 0.6])
def test_symphony_span_step_matches_reference(d, k_n, k_s, q, monkeypatch):
    # Many near and shortcut columns; at d = 3 the 20 near spans wrap past
    # N, and k_s = 4 is capped at d there.  k_s None means k_s = d.
    spec = GeometrySpec(Geometry.SYMPHONY, d, k_n=k_n, k_s=min(k_s or d, d))
    rng = np.random.default_rng([d, k_n, int(q * 10)])
    overlay = build_overlay(spec, int(rng.integers(2**32)))
    alive = draw_failure_pattern(1 << d, q, int(rng.integers(2**32))).alive
    src, dst = _pairs(1 << d, rng, limit=600)
    _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=100)


@pytest.mark.parametrize("k_n, k_s", [(1, 1), (3, 4)])
def test_symphony_hop_cap_matches_reference(k_n, k_s, monkeypatch):
    # A cap of 3/64 * N = 3 hops at d = 6 binds on longer routes.
    monkeypatch.setattr(simulator, "HOP_CAP_FACTOR", 3 / 64)
    d = 6
    rng = np.random.default_rng(5)
    overlay = build_overlay(GeometrySpec(Geometry.SYMPHONY, d, k_n=k_n, k_s=k_s), 17)
    for q in (0.0, 0.2):
        alive = draw_failure_pattern(1 << d, q, 23).alive
        src, dst = _pairs(1 << d, rng, limit=1000)
        _, _, capped = _route_batch(overlay, alive, src, dst)
        assert capped.any()
        _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=100)


def test_symphony_duplicate_offsets_match_reference(monkeypatch):
    # k_n = 2 near links plus two shortcuts that often repeat each other
    # or a near link: equal offsets reach the same node, so ties between
    # columns must not change the path.
    d = 5
    n = 1 << d
    spec = GeometrySpec(Geometry.SYMPHONY, d, k_n=2, k_s=2)
    ids = np.arange(n)
    shortcut = (ids * 7) % 11 + 1
    spans = np.array([np.ones(n), np.full(n, 2), shortcut, shortcut], dtype=np.int32)
    spans[2, ::3] = 2
    overlay = Overlay(spec, spans)
    rng = np.random.default_rng(3)
    for q in (0.0, 0.2, 0.5):
        alive = rng.random(n) >= q
        src, dst = _pairs(n, rng, limit=n * n)
        _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=200)


def test_xor_detour_overlay_matches_reference(monkeypatch):
    # The hand-built overlay of test_xor_route_detours_around_failed_neighbor.
    spec = GeometrySpec(Geometry.XOR, 3)
    ids = np.arange(8)
    table = np.array([ids ^ 0b100, ids ^ 0b010, ids ^ 0b001], dtype=np.int32)
    table[:, 0b010] = [0b111, 0b000, 0b011]
    table[:, 0b000] = [0b110, 0b010, 0b001]
    table[:, 0b110] = [0b010, 0b100, 0b111]
    table[:, 0b100] = [0b011, 0b110, 0b101]
    overlay = Overlay(spec, table)
    alive = np.ones(8, dtype=bool)
    alive[0b111] = False
    src, dst = _pairs(8, np.random.default_rng(0), limit=64)
    want = reference_route(Geometry.XOR, overlay.targets, None, alive, 0b010, 0b101, 4 * 8)
    assert want == (True, 4, None)
    _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=64)


@pytest.mark.parametrize("kind", MASK_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("q", [0.0, 0.05, 0.2, 0.5, 0.8])
def test_mask_router_matches_reference(kind, d, q, monkeypatch):
    rng = np.random.default_rng([d, int(q * 100), 7])
    overlay = build_overlay(GeometrySpec(kind, d), int(rng.integers(2**32)))
    alive = draw_failure_pattern(1 << d, q, int(rng.integers(2**32))).alive
    # Dead endpoints included.
    src, dst = _pairs(1 << d, rng, limit=600)
    _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=0)


def test_mask_router_ring_top_finger_overshoots(monkeypatch):
    # Every finger sits at the top of its range, so the top-phase finger
    # overshoots whenever the distance is below it: 0 -> 5 must skip
    # finger 3 (offset 7) and finger 2 at node 3 (offset 3 > 2).
    d = 3
    n = 1 << d
    spans = np.repeat(np.array([[1], [3], [7]], dtype=np.int32), n, axis=1)
    overlay = Overlay(GeometrySpec(Geometry.RING, d), spans)
    alive = np.ones(n, dtype=bool)
    want = reference_route(Geometry.RING, overlay.targets, overlay.offsets, alive, 0, 5, 4 * n)
    assert want == (True, 3, None)
    rng = np.random.default_rng(11)
    for q in (0.0, 0.3, 0.6):
        alive = rng.random(n) >= q
        src, dst = _pairs(n, rng, limit=n * n)
        _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=0)


@pytest.mark.parametrize("kind", MASK_GEOMETRIES)
def test_mask_router_hop_cap_matches_reference(kind, monkeypatch):
    # A cap of 3/64 * N = 3 hops at d = 6 binds on longer routes.
    monkeypatch.setattr(simulator, "HOP_CAP_FACTOR", 3 / 64)
    d = 6
    rng = np.random.default_rng(5)
    overlay = build_overlay(GeometrySpec(kind, d), 17)
    for q in (0.0, 0.2):
        alive = draw_failure_pattern(1 << d, q, 23).alive
        src, dst = _pairs(1 << d, rng, limit=1000)
        _, _, capped = _route_batch(overlay, alive, src, dst)
        assert capped.any()
        _assert_agree(monkeypatch, overlay, alive, src, dst, route_checks=0)


@pytest.mark.parametrize("kind", MASK_GEOMETRIES)
def test_metric_path_hop_cap_matches_reference(kind, monkeypatch):
    # The path route() takes: one pair is never enough to pack N words, so
    # its words are gathered per hop.  Every pair the batch caps must be
    # capped by route() too, on reference_route's hop count.
    monkeypatch.setattr(simulator, "HOP_CAP_FACTOR", 3 / 64)
    d = 6
    assert 1 << d > simulator.MASK_NODES_PER_PAIR
    rng = np.random.default_rng(11)
    overlay = build_overlay(GeometrySpec(kind, d), 19)
    for q in (0.0, 0.2):
        alive = draw_failure_pattern(1 << d, q, 29).alive
        src, dst = _pairs(1 << d, rng, limit=1000)
        _, _, capped = _route_batch(overlay, alive, src, dst)
        pick = np.flatnonzero(capped)
        assert pick.size
        _assert_agree(monkeypatch, overlay, alive, src[pick], dst[pick], route_checks=pick.size)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [2, 7])
def test_stacked_rows_match_one_call_per_row(kind, d, monkeypatch):
    # One aliveness row per q point, pairs of all rows interleaved in one
    # call: each pair must route exactly as in its own row's call.
    n = 1 << d
    rng = np.random.default_rng([d, 31])
    overlay = build_overlay(GeometrySpec(kind, d), int(rng.integers(2**32)))
    uniforms = rng.random(n)
    alive = np.stack([uniforms >= q for q in (0.0, 0.1, 0.3, 0.6, 0.9)])
    pairs = [_pairs(n, rng, limit=300) for _ in alive]
    src = np.concatenate([s for s, _ in pairs])
    dst = np.concatenate([t for _, t in pairs])
    row = np.repeat(np.arange(len(alive)), [len(s) for s, _ in pairs])
    order = rng.permutation(len(src))
    for source in _each_word_source(monkeypatch):
        per_row = zip(*(_route_batch(overlay, a, s, t) for a, (s, t) in zip(alive, pairs)))
        want = [np.concatenate(parts)[order] for parts in per_row]
        got = _route_batch(overlay, alive, src[order], dst[order], row[order])
        for name, g, w in zip(("delivered", "hops", "capped"), got, want):
            assert g.tolist() == w.tolist(), (source, name)


@pytest.mark.parametrize("kind", [Geometry.TREE, Geometry.HYPERCUBE])
def test_bit_flip_routes_take_one_hop_per_differing_bit(kind, monkeypatch):
    # Each tree or hypercube hop flips one bit of node ^ dst, so a delivered
    # route takes popcount(src ^ dst) hops and a dead end fewer, at
    # d = 6..12 over the default q grid (0 to 0.5 by 0.05), on both word
    # sources.
    for d in range(6, 13):
        n = 1 << d
        rng = np.random.default_rng([d, 32])
        overlay = build_overlay(GeometrySpec(kind, d), d)
        uniforms = rng.random(n)
        alive = np.stack([uniforms >= i / 20 for i in range(11)])
        src, dst = rng.integers(n, size=(2, len(alive) * 200))
        row = np.repeat(np.arange(len(alive)), 200)
        bits = np.array([int(x).bit_count() for x in (src ^ dst).tolist()])
        for source in _each_word_source(monkeypatch):
            delivered, hops, capped = _route_batch(overlay, alive, src, dst, row)
            assert hops[delivered].tolist() == bits[delivered].tolist(), (d, source)
            assert (hops[~delivered] < bits[~delivered]).all(), (d, source)
            assert not capped.any() and (bits[delivered] > 1).sum() > 500, (d, source)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_estimate_picks_router_by_crossover(kind, monkeypatch):
    # The router packs its words while N <= factor x pairs per trial and
    # gathers them otherwise; symphony never packs.  A factor of 16 puts
    # N = 64 exactly on the boundary at 4 pairs.
    packs = []
    original = simulator._pack_alive_links
    monkeypatch.setattr(
        simulator, "_pack_alive_links", lambda *args: packs.append(args) or original(*args)
    )
    monkeypatch.setattr(simulator, "MASK_NODES_PER_PAIR", 16)
    spec = GeometrySpec(kind, 6)
    seeds = SimSeeds(build=1, fail=2, pair=3)
    fewest = spec.n_nodes // 16
    estimate_routability(spec, 0.1, 1, fewest, seeds)
    assert len(packs) == (kind in MASK_GEOMETRIES)
    estimate_routability(spec, 0.1, 1, fewest - 1, seeds)
    assert len(packs) == (kind in MASK_GEOMETRIES)


# Case ids keep the names of the routers each word source once belonged
# to: "_route_mask" cases pack the words, "_route_batch" cases gather them
# per hop (symphony has no words and walks its spans either way).
CAP_CASES = [("_route_batch", "gathered", kind) for kind in ALL_GEOMETRIES]
CAP_CASES += [("_route_mask", "packed", kind) for kind in MASK_GEOMETRIES]


@pytest.mark.parametrize(
    "source, kind",
    [(source, kind) for _, source, kind in CAP_CASES],
    ids=[f"{name}-{kind.value}" for name, _, kind in CAP_CASES],
)
def test_route_as_long_as_the_cap_is_delivered(source, kind, monkeypatch):
    # Hops are written when a pair leaves: a route of exactly cap hops is
    # delivered, and one hop more is capped with hops == cap.
    d, cap = 6, 3
    n = 1 << d
    overlay = build_overlay(GeometrySpec(kind, d), 17)
    alive = draw_failure_pattern(n, 0.1, 23).alive
    src, dst = _pairs(n, np.random.default_rng(5), limit=n * n)
    routes = [
        reference_route(kind, overlay.targets, overlay.offsets, alive, s, t, n)
        for s, t in zip(src.tolist(), dst.tolist())
    ]
    lengths = np.array([hops if delivered else -1 for delivered, hops, _ in routes])
    at_cap, past_cap = np.flatnonzero(lengths == cap), np.flatnonzero(lengths == cap + 1)
    assert at_cap.size and past_cap.size
    monkeypatch.setattr(simulator, "HOP_CAP_FACTOR", cap / n)
    pick = np.concatenate([at_cap, past_cap])
    monkeypatch.setattr(simulator, "MASK_NODES_PER_PAIR", WORD_SOURCES[source])
    delivered, hops, capped = _route_batch(overlay, alive, src[pick], dst[pick])
    assert delivered.tolist() == [True] * at_cap.size + [False] * past_cap.size
    assert capped.tolist() == [False] * at_cap.size + [True] * past_cap.size
    assert hops.tolist() == [cap] * pick.size


@pytest.mark.parametrize("kind", MASK_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 7, 12])
def test_packed_links_match_product(kind, d, monkeypatch):
    # Bit b of a node's integer is set when the link flipping bit b, or
    # finger b + 1, is alive: the row-by-row weighted product.  For every
    # row, node and usable set (all links, none, one, or a random set) the
    # gathered words agree with the packed words on the highest alive
    # usable bit, the one the step takes; where the highest usable link is
    # dead and a lower one is usable, they are the packed words bit for bit.
    n = 1 << d
    overlay = build_overlay(GeometrySpec(kind, d), d)
    uniforms = np.random.default_rng(d).random(n)
    alive = np.stack([uniforms >= q for q in (0.0, 0.2, 0.5, 0.9)])
    column_bit = np.arange(d) if kind is Geometry.RING else np.arange(d - 1, -1, -1)
    want = np.stack([np.take(row, overlay.targets) @ (1 << column_bit) for row in alive])
    packed = simulator._pack_alive_links(overlay, alive)
    assert packed.dtype == np.int32
    assert packed.tolist() == want.tolist()
    monkeypatch.setattr(simulator, "MASK_NODES_PER_PAIR", WORD_SOURCES["gathered"])
    words = simulator._alive_link_words(overlay, alive.reshape(-1), 1)
    node = np.tile(np.arange(n, dtype=np.int32), len(alive))
    base = np.repeat(np.arange(len(alive), dtype=np.int32) * n, n)
    packed = packed.reshape(-1)
    rng = np.random.default_rng(d)
    fallbacks = 0
    for usable in (
        (1 << d) - 1,
        0,
        np.left_shift(1, rng.integers(d, size=node.size), dtype=np.int32),
        rng.integers(1 << d, size=node.size, dtype=np.int32),
    ):
        usable = np.broadcast_to(np.int32(usable), node.shape)
        got = words(node, base, usable)
        top = np.where(usable > 0, 1 << np.maximum(simulator._bit_length(usable) - 1, 0), 0)
        fallback = np.flatnonzero((packed & top == 0) & (usable != top))
        assert got[fallback].tolist() == packed[fallback].tolist()
        fallbacks += fallback.size
        got_bit = simulator._bit_length(got & usable)
        assert got_bit.tolist() == simulator._bit_length(packed & usable).tolist()
    assert (fallbacks > 0) == (d > 1)


def test_bit_length_matches_int_bit_length():
    # Every value up to 2^12, and both sides of each power of two an int32 holds.
    edges = [v for k in range(31) for v in ((1 << k) - 1, 1 << k, (1 << k) + 1)]
    values = np.array(list(range(1 << 12)) + edges + [2**31 - 1], dtype=np.int32)
    got = simulator._bit_length(values)
    assert got.dtype == np.int32
    assert got.tolist() == [v.bit_length() for v in values.tolist()]
