"""Differential test: the batched greedy routers against a scalar reference.

reference_route follows the README's per-geometry rules one node at a
time and reads only an overlay's public targets/offsets arrays and an
aliveness mask.  route(), the metric path (_route_batch) and the mask
path (_route_mask, tree/hypercube/xor/ring) must agree with it on
(delivered, hops, reason) for every pair tried.
"""

import math

import numpy as np
import pytest

from dhtroutability import simulator
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.simulator import (
    MASK_NODES_PER_PAIR,
    FailurePattern,
    Overlay,
    SimSeeds,
    _route_batch,
    _route_mask,
    build_overlay,
    draw_failure_pattern,
    estimate_routability,
    route,
)

MASK_GEOMETRIES = (Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING)


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


def _assert_agree(overlay, alive, src, dst, route_checks, router=_route_batch):
    delivered, hops, capped = router(overlay, alive, src, dst)
    pattern = FailurePattern(alive=alive, q=0.0, fail_seed=0)
    hop_cap = simulator.HOP_CAP_FACTOR * len(alive)
    for i, (s, t) in enumerate(zip(src.tolist(), dst.tolist())):
        want = reference_route(
            overlay.spec.kind, overlay.targets, overlay.offsets, alive, s, t, hop_cap
        )
        reason = None if delivered[i] else ("hop_cap" if capped[i] else "dead_end")
        assert (bool(delivered[i]), int(hops[i]), reason) == want, (s, t)
        if i < route_checks:
            got = route(overlay, pattern, s, t)
            assert (got.delivered, got.hops, got.reason) == want, (s, t)


def _pairs(n, rng, limit):
    src, dst = np.divmod(np.arange(n * n), n)
    keep = np.flatnonzero(src != dst)
    if keep.size > limit:
        keep = rng.choice(keep, size=limit, replace=False)
    return src[keep], dst[keep]


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [3, 6, 10])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.3, 0.6])
def test_batched_router_matches_reference(kind, d, q):
    rng = np.random.default_rng([d, int(q * 10)])
    overlay = build_overlay(GeometrySpec(kind, d), int(rng.integers(2**32)))
    alive = draw_failure_pattern(1 << d, q, int(rng.integers(2**32))).alive
    # Dead endpoints included: a dead dst can only dead-end.
    src, dst = _pairs(1 << d, rng, limit=1500)
    _assert_agree(overlay, alive, src, dst, route_checks=100)


def test_symphony_duplicate_offsets_match_reference():
    # k_n = 2 near links plus two shortcuts that often repeat each other
    # or a near link: equal offsets reach the same node, so ties between
    # columns must not change the path.
    d = 5
    n = 1 << d
    spec = GeometrySpec(Geometry.SYMPHONY, d, k_n=2, k_s=2)
    ids = np.arange(n)
    shortcut = (ids * 7) % 11 + 1
    offsets = np.column_stack([np.ones(n), np.full(n, 2), shortcut, shortcut]).astype(np.int32)
    offsets[::3, 2] = 2
    targets = ((ids[:, None] + offsets) % n).astype(np.int32)
    roles = ("near-1", "near-2", "shortcut-1", "shortcut-2")
    overlay = Overlay(spec, 0, targets, offsets, roles)
    rng = np.random.default_rng(3)
    for q in (0.0, 0.2, 0.5):
        alive = rng.random(n) >= q
        src, dst = _pairs(n, rng, limit=n * n)
        _assert_agree(overlay, alive, src, dst, route_checks=200)


def test_xor_detour_overlay_matches_reference():
    # The hand-built overlay of test_xor_route_detours_around_failed_neighbor.
    spec = GeometrySpec(Geometry.XOR, 3)
    targets = np.array([[v ^ 0b100, v ^ 0b010, v ^ 0b001] for v in range(8)], dtype=np.int32)
    targets[0b010] = [0b111, 0b000, 0b011]
    targets[0b000] = [0b110, 0b010, 0b001]
    targets[0b110] = [0b010, 0b100, 0b111]
    targets[0b100] = [0b011, 0b110, 0b101]
    overlay = Overlay(spec, 0, targets, None, ("bucket-1", "bucket-2", "bucket-3"))
    alive = np.ones(8, dtype=bool)
    alive[0b111] = False
    src, dst = _pairs(8, np.random.default_rng(0), limit=64)
    _assert_agree(overlay, alive, src, dst, route_checks=64)
    want = reference_route(Geometry.XOR, targets, None, alive, 0b010, 0b101, 4 * 8)
    assert want == (True, 4, None)
    _assert_agree(overlay, alive, src, dst, route_checks=0, router=_route_mask)


@pytest.mark.parametrize("kind", MASK_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("q", [0.0, 0.05, 0.2, 0.5, 0.8])
def test_mask_router_matches_reference(kind, d, q):
    rng = np.random.default_rng([d, int(q * 100), 7])
    overlay = build_overlay(GeometrySpec(kind, d), int(rng.integers(2**32)))
    alive = draw_failure_pattern(1 << d, q, int(rng.integers(2**32))).alive
    # Dead endpoints included, as for the metric path.
    src, dst = _pairs(1 << d, rng, limit=600)
    _assert_agree(overlay, alive, src, dst, route_checks=0, router=_route_mask)


def test_mask_router_ring_top_finger_overshoots():
    # Every finger sits at the top of its range, so the top-phase finger
    # overshoots whenever the distance is below it: 0 -> 5 must skip
    # finger 3 (offset 7) and finger 2 at node 3 (offset 3 > 2).
    d = 3
    n = 1 << d
    offsets = np.tile(np.array([1, 3, 7], dtype=np.int32), (n, 1))
    targets = ((np.arange(n)[:, None] + offsets) % n).astype(np.int32)
    spec = GeometrySpec(Geometry.RING, d)
    overlay = Overlay(spec, 0, targets, offsets, ("finger-1", "finger-2", "finger-3"))
    alive = np.ones(n, dtype=bool)
    assert reference_route(Geometry.RING, targets, offsets, alive, 0, 5, 4 * n) == (True, 3, None)
    rng = np.random.default_rng(11)
    for q in (0.0, 0.3, 0.6):
        alive = rng.random(n) >= q
        src, dst = _pairs(n, rng, limit=n * n)
        _assert_agree(overlay, alive, src, dst, route_checks=0, router=_route_mask)


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
        _, _, capped = _route_mask(overlay, alive, src, dst)
        assert capped.any()
        _assert_agree(overlay, alive, src, dst, route_checks=0, router=_route_mask)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [2, 7])
def test_stacked_rows_match_one_call_per_row(kind, d):
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
    routers = (_route_batch, _route_mask) if kind in MASK_GEOMETRIES else (_route_batch,)
    for router in routers:
        per_row = zip(*(router(overlay, a, s, t) for a, (s, t) in zip(alive, pairs)))
        want = [np.concatenate(parts)[order] for parts in per_row]
        got = router(overlay, alive, src[order], dst[order], row[order])
        for name, g, w in zip(("delivered", "hops", "capped"), got, want):
            assert g.tolist() == w.tolist(), (router.__name__, name)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_estimate_picks_router_by_crossover(kind, monkeypatch):
    # The mask path runs while N <= factor x pairs per trial; symphony
    # always takes the metric path.
    calls = []
    for name in ("_route_mask", "_route_batch"):
        original = getattr(simulator, name)
        monkeypatch.setattr(
            simulator, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    spec = GeometrySpec(kind, 6)
    seeds = SimSeeds(build=1, fail=2, pair=3)
    factor = MASK_NODES_PER_PAIR.get(kind)
    if factor is None:
        estimate_routability(spec, 0.1, 1, spec.n_nodes, seeds)
        assert calls == ["_route_batch"]
        return
    fewest = math.ceil(spec.n_nodes / factor)
    estimate_routability(spec, 0.1, 1, fewest, seeds)
    estimate_routability(spec, 0.1, 1, fewest - 1, seeds)
    assert calls == ["_route_mask", "_route_batch"]
