import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtroutability.analytic import routability
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability import simulator
from dhtroutability.simulator import (
    FailurePattern,
    Overlay,
    RouteResult,
    SimSeeds,
    _route_batch,
    build_overlay,
    draw_failure_pattern,
    estimate_routability,
    estimate_sweep,
    route,
)

SEEDS = SimSeeds(build=11, fail=22, pair=33)


def _neighbors(overlay, node):
    """(role, target, offset) of each of node's links; offset None off the ring."""
    row = overlay.targets[node].tolist()
    offsets = overlay.offsets[node].tolist() if overlay.offsets is not None else [None] * len(row)
    return list(zip(overlay.roles, row, offsets))


def _msb_index(d, value):
    """Bit position 1..d (1 = most significant) of value's leading one."""
    return d - value.bit_length() + 1


# --- overlay structure ---------------------------------------------------------


def test_hypercube_d3_neighbors_of_011():
    overlay = build_overlay(GeometrySpec(Geometry.HYPERCUBE, 3), 0)
    targets = {target for _, target, _ in _neighbors(overlay, 0b011)}
    assert targets == {0b111, 0b001, 0b010}


def test_ring_first_finger_is_successor():
    for seed in (0, 7, 123456):
        overlay = build_overlay(GeometrySpec(Geometry.RING, 3), seed)
        assert _neighbors(overlay, 0)[0] == ("finger-1", 1, 1)


@pytest.mark.parametrize("kind", [Geometry.TREE, Geometry.XOR])
def test_prefix_bucket_structure(kind):
    d = 8
    overlay = build_overlay(GeometrySpec(kind, d), 99)
    for v in range(1 << d):
        for i in range(1, d + 1):
            t = int(overlay.targets[v, i - 1])
            diff = v ^ t
            assert _msb_index(d, diff) == i  # shares bits 1..i-1, differs at i
            if kind is Geometry.TREE:
                assert diff == 1 << (d - i)  # tree keeps the suffix too


def test_hypercube_structure_full_scan():
    d = 8
    overlay = build_overlay(GeometrySpec(Geometry.HYPERCUBE, d), 5)
    for v in range(1 << d):
        row = overlay.targets[v]
        assert len(set(int(t) for t in row)) == d
        for t in row:
            assert (v ^ int(t)).bit_count() == 1


def test_ring_finger_offsets_in_range():
    d = 8
    overlay = build_overlay(GeometrySpec(Geometry.RING, d), 17)
    n = 1 << d
    for v in range(n):
        for i in range(1, d + 1):
            off = int(overlay.offsets[v, i - 1])
            assert (1 << (i - 1)) <= off < (1 << i)
            assert int(overlay.targets[v, i - 1]) == (v + off) % n


def test_symphony_structure():
    d = 8
    spec = GeometrySpec(Geometry.SYMPHONY, d, k_n=2, k_s=3)
    overlay = build_overlay(spec, 21)
    n = 1 << d
    assert overlay.roles == ("near-1", "near-2", "shortcut-1", "shortcut-2", "shortcut-3")
    for v in range(n):
        offs = [int(o) for o in overlay.offsets[v]]
        assert offs[:2] == [1, 2]
        for off in offs[2:]:
            assert 1 <= off <= n - 1
        for c, off in enumerate(offs):
            assert int(overlay.targets[v, c]) == (v + off) % n


def test_symphony_shortcut_lengths_harmonic():
    # floor(N^u) lengths: log2 of the draws should be near-uniform over
    # [0, d); check coarse decade occupancy rather than a sharp fit.
    spec = GeometrySpec(Geometry.SYMPHONY, 12)
    overlay = build_overlay(spec, 3)
    lengths = overlay.offsets[:, 1].astype(np.int64)
    logs = np.log2(lengths)
    counts, _ = np.histogram(logs, bins=4, range=(0, 12))
    fractions = counts / lengths.size
    assert np.all(fractions > 0.15)
    assert np.all(fractions < 0.35)


def test_build_determinism_and_seed_sensitivity():
    spec = GeometrySpec(Geometry.XOR, 8)
    a = build_overlay(spec, 42)
    b = build_overlay(spec, 42)
    c = build_overlay(spec, 43)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)


def test_build_rejects_negative_seed():
    with pytest.raises(ValueError, match="build_seed must be a non-negative integer"):
        build_overlay(GeometrySpec(Geometry.TREE, 4), -1)


def test_build_rejects_large_d():
    with pytest.raises(ValueError, match="d <= 20"):
        build_overlay(GeometrySpec(Geometry.TREE, 21), 0)


@pytest.mark.parametrize("k_n", [21, 10**9])
def test_build_rejects_large_symphony_kn(k_n, monkeypatch):
    # Rejected before any table is allocated: each near link is a column.
    def no_table(*args, **kwargs):
        raise AssertionError("allocated a table")

    monkeypatch.setattr(simulator.np, "empty", no_table)
    with pytest.raises(ValueError, match="k_n <= 20"):
        build_overlay(GeometrySpec(Geometry.SYMPHONY, 4, k_n=k_n), 0)


@pytest.mark.parametrize(
    "kind, shape, match",
    [
        (Geometry.TREE, (4, 16), "tree overlays store no link table"),
        (Geometry.HYPERCUBE, (4, 16), "hypercube overlays store no link table"),
        (Geometry.XOR, None, "xor overlays store a link table"),
        (Geometry.RING, None, "ring overlays store a link table"),
        (Geometry.SYMPHONY, None, "symphony overlays store a link table"),
        (Geometry.XOR, (3, 16), r"xor link table must be 4 x 16, got \(3, 16\)"),
        (Geometry.RING, (3, 16), r"ring link table must be 4 x 16, got \(3, 16\)"),
        (Geometry.SYMPHONY, (3, 16), r"symphony link table must be 2 x 16, got \(3, 16\)"),
        (Geometry.XOR, (4, 8), r"must be 4 x 16, got \(4, 8\)"),
        (Geometry.RING, (16, 4), r"must be 4 x 16, got \(16, 4\)"),
        (Geometry.RING, 4.7, r"^ring link table must hold integers, got float64$"),
        (Geometry.RING, np.nan, r"^ring link table must hold integers, got float64$"),
        (Geometry.SYMPHONY, np.float32(1), r"^symphony link table must hold integers, got float32$"),
        (Geometry.XOR, True, r"^xor link table must hold integers, got bool$"),
    ],
)
def test_overlay_rejects_malformed_table(kind, shape, match):
    # A table whose presence, shape or dtype does not fit the spec: the
    # router would read the wrong rule, run off a row, or clip into another
    # link.  shape is no table, the shape of a table of ones, or one entry
    # of a built table cast to that entry's type.  A float table is rejected
    # before any cast, which would truncate ring's finger-3 span 4.7 to a
    # valid 4, or warn on NaN.
    spec = GeometrySpec(kind, 4)
    if shape is None or isinstance(shape, tuple):
        table = None if shape is None else np.ones(shape, dtype=np.int32)
    else:
        table = build_overlay(spec, 1).table.astype(type(shape))
        table[-2, 5] = shape
    with warnings.catch_warnings(), pytest.raises(ValueError, match=match):
        warnings.simplefilter("error")
        Overlay(spec, table)


@pytest.mark.parametrize(
    "kind, row, node, entry",
    [
        (Geometry.XOR, 0, 0, 12),  # past N = 8
        (Geometry.XOR, 1, 0b101, 0b011),  # changes a bit above the flipped one
        (Geometry.XOR, 2, 0b110, 0b110),  # does not flip its bit
        (Geometry.XOR, 0, 0b001, -7),
        (Geometry.RING, 1, 0, -3),
        (Geometry.RING, 2, 5, 8),  # finger-3 spans [4, 8)
        (Geometry.RING, 2, 5, 2**32 + 4),  # 4 once wrapped to 32 bits
        (Geometry.SYMPHONY, 0, 2, 2),  # near-1 spans 1
        (Geometry.SYMPHONY, 1, 2, 0),
        (Geometry.SYMPHONY, 1, 2, 8),  # shortcuts span [1, N)
    ],
)
def test_overlay_rejects_entries_outside_their_link(kind, row, node, entry):
    # A link the build could not draw: the router would read past the
    # table, or another aliveness row, or a wrong span, and narrowing the
    # table to 16 bits would hide it.
    spec = GeometrySpec(kind, 3)
    overlay = build_overlay(spec, 1)
    table = overlay.table.astype(np.int64)
    assert Overlay(spec, table).table.tolist() == table.tolist()
    table[row, node] = entry
    link = overlay.roles[row]
    with pytest.raises(ValueError, match=rf"^{kind.value} link {link} of node {node} is out of range: {entry}$"):
        Overlay(spec, table)


# --- failure patterns ----------------------------------------------------------


def test_failure_pattern_reproducible():
    a = draw_failure_pattern(1 << 10, 0.3, 77)
    b = draw_failure_pattern(1 << 10, 0.3, 77)
    assert np.array_equal(a.alive, b.alive)
    assert 0 < a.n_alive < 1 << 10


def test_failure_pattern_no_failures():
    pattern = draw_failure_pattern(256, 0.0, 1)
    assert pattern.n_alive == 256


# --- routing -------------------------------------------------------------------


def _all_ordered_pairs(n):
    src, dst = np.divmod(np.arange(n * n), n)
    off_diagonal = src != dst
    return src[off_diagonal], dst[off_diagonal]


def _all_alive(n):
    return FailurePattern(alive=np.ones(n, dtype=bool), q=0.0, fail_seed=0)


def test_route_validates_endpoints():
    overlay = build_overlay(GeometrySpec(Geometry.TREE, 4), 0)
    pattern = _all_alive(16)
    with pytest.raises(ValueError):
        route(overlay, pattern, 3, 3)
    with pytest.raises(ValueError):
        route(overlay, pattern, -1, 3)
    with pytest.raises(ValueError):
        route(overlay, pattern, 0, 16)
    with pytest.raises(ValueError, match="failure pattern size does not match"):
        route(overlay, _all_alive(32), 0, 3)


def test_xor_route_detours_around_failed_neighbor():
    # d=3 overlay with hand-built buckets: 010 -> 101 with 010's bucket-1
    # neighbor 111 dead must detour 010 -> 000 -> 110 -> 100 -> 101.
    spec = GeometrySpec(Geometry.XOR, 3)
    ids = np.arange(8)
    # Link-major: row c holds every node's bucket-(c+1) target, suffix-free
    # by default.
    table = np.array([ids ^ 0b100, ids ^ 0b010, ids ^ 0b001], dtype=np.int32)
    table[:, 0b010] = [0b111, 0b000, 0b011]
    table[:, 0b000] = [0b110, 0b010, 0b001]
    table[:, 0b110] = [0b010, 0b100, 0b111]
    table[:, 0b100] = [0b011, 0b110, 0b101]
    overlay = Overlay(spec, table)
    alive = np.ones(8, dtype=bool)
    alive[0b111] = False
    pattern = FailurePattern(alive=alive, q=0.125, fail_seed=0)
    result = route(overlay, pattern, 0b010, 0b101)
    assert result.delivered
    assert result.hops == 4


def test_tree_route_drops_on_dead_bucket():
    overlay = build_overlay(GeometrySpec(Geometry.TREE, 4), 0)
    alive = np.ones(16, dtype=bool)
    alive[0b1000] = False  # the unique first hop from 0000 toward 1111
    pattern = FailurePattern(alive=alive, q=0.0625, fail_seed=0)
    result = route(overlay, pattern, 0b0000, 0b1111)
    assert not result.delivered
    assert result.reason == "dead_end"
    assert result.hops == 0


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_no_failures_all_pairs_delivered_d8(kind):
    # Exhaustive all-ordered-pairs deliverability at q = 0.
    d = 8
    n = 1 << d
    overlay = build_overlay(GeometrySpec(kind, d), 9)
    src, dst = _all_ordered_pairs(n)
    delivered, hops, capped = _route_batch(overlay, np.ones(n, dtype=bool), src, dst)
    hop_bound = d if kind in (Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR) else n
    assert delivered.all(), (kind, src[~delivered][:5], dst[~delivered][:5])
    assert not capped.any()
    assert hops.max() <= hop_bound


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_no_failures_sampled_pairs_d20(kind):
    d = 20
    n = 1 << d
    overlay = build_overlay(GeometrySpec(kind, d), 13)
    pattern = _all_alive(n)
    rng = np.random.default_rng(4)
    for _ in range(150):
        src, dst = rng.integers(0, n, size=2)
        if src == dst:
            continue
        assert route(overlay, pattern, int(src), int(dst)).delivered


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_route_copies_no_overlay_table(kind):
    # The router reads build_overlay's link-major tables in place; a
    # flattened copy of their N x links views would cost a whole table.
    overlay = build_overlay(GeometrySpec(kind, 16), 5)
    pattern = draw_failure_pattern(overlay.n_nodes, 0.1, 6)
    survivors = np.flatnonzero(pattern.alive)
    tracemalloc.start()
    try:
        for src, dst in zip(survivors[:5].tolist(), survivors[-5:].tolist()):
            route(overlay, pattern, src, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < overlay.targets.nbytes


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_build_stores_only_its_draws(kind, monkeypatch):
    # tree and hypercube keep no table, xor its drawn suffixes, ring and
    # symphony their drawn span values: 2 bytes an entry of a links x N
    # table, plus 1 an entry of the rows whose values reach 2^16 (none at
    # d = 16; at d = 18 xor's bucket-1, ring's finger-18 and symphony's
    # shortcut), so a 4-byte table fails.  A chunk is 2^16 entries, and each
    # share holds one chunk's temporaries at a time (4 bytes an entry for
    # xor and ring, 8 for symphony's shortcut draw, plus the 8,192-entry
    # buffer of the cast into 16 bits), so one or two shares keep the peak
    # bound.
    for d in (16, 18):
        n = 1 << d
        assert n >= simulator.PARALLEL_MIN_NODES
        spec = GeometrySpec(kind, d)
        links = spec.k_n + spec.k_s if kind is Geometry.SYMPHONY else d
        high = {Geometry.XOR: max(0, d - 17), Geometry.RING: max(0, d - 17)}.get(kind, spec.k_s * (d > 16))
        stored = 0 if kind in (Geometry.TREE, Geometry.HYPERCUBE) else (2 * links + high) * n
        build_overlay(spec, 1)  # lazy imports and caches are not the build's
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            tracemalloc.start()
            try:
                overlay = build_overlay(spec, 5)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stored <= kept < stored + n, (d, cpus)
            assert peak < (4 * links * n if stored == 0 else stored + 10 * n), (d, cpus)
            del overlay


def _share_threads(monkeypatch, size, fail_on_helper=None):
    """The distinct threads _draw_in_shares fills a 1 x size table on, with
    2-entry chunks, from any node count on; fail_on_helper, if given, is
    raised by each fill a helper thread makes."""
    monkeypatch.setattr(simulator, "PARALLEL_MIN_NODES", 0)
    monkeypatch.setattr(simulator, "DRAW_CHUNK", 2)
    seen = []

    def fill(rng, part, row, node):
        seen.append(threading.current_thread())
        if fail_on_helper is not None and seen[-1] is not threading.main_thread():
            raise fail_on_helper
        rng.random(out=part)

    simulator._draw_in_shares(3, np.empty((1, size)), 1, fill)
    return set(seen)


def test_draw_shares_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert len(_share_threads(monkeypatch, 12)) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert len(_share_threads(monkeypatch, 12)) == 3
    # No more shares than chunks.
    assert len(_share_threads(monkeypatch, 4)) == 2


def test_draw_shares_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert len(_share_threads(monkeypatch, 12)) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert len(_share_threads(monkeypatch, 12)) == 1


def test_draw_share_error_is_raised_after_join(monkeypatch):
    # A helper's exception reaches the caller as itself, and no helper
    # thread outlives the call.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    before = threading.active_count()
    error = RuntimeError("helper failed")
    with pytest.raises(RuntimeError) as raised:
        _share_threads(monkeypatch, 12, fail_on_helper=error)
    assert raised.value is error
    assert threading.active_count() == before


def test_draw_shares_under_fast_thread_switching(monkeypatch):
    # More shares than cores, switching threads every microsecond: the
    # shares' writes to one table still give the one-generator draws.
    spec = GeometrySpec(Geometry.XOR, 10)
    want_targets = build_overlay(spec, 9).table
    want_uniforms = np.random.default_rng(np.random.SeedSequence(9)).random(4001)
    monkeypatch.setattr(simulator, "PARALLEL_MIN_NODES", 0)
    monkeypatch.setattr(simulator, "DRAW_CHUNK", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        targets = build_overlay(spec, 9).table
        uniforms = simulator._failure_uniforms(4001, 9)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(targets, want_targets)
    assert uniforms.tolist() == want_uniforms.tolist()


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("pairs", [100, 7000])
def test_sweep_never_derives_targets(kind, pairs):
    # The router reads only what the build stored, from either word
    # source (7,000 pairs pack at d = 16, 100 gather): Overlay.targets,
    # an N x links table, is derived only when someone reads it.
    overlays = []

    def builder(spec, build_seed):
        overlays.append(build_overlay(spec, build_seed))
        return overlays[-1]

    estimate_sweep(GeometrySpec(kind, 16), (0.0, 0.2), 1, pairs, SEEDS, builder=builder)
    assert len(overlays) == 1
    assert not {"table", "targets", "offsets"} & set(vars(overlays[0]))


@pytest.mark.parametrize("n", [2, 5, 1 << 16, (1 << 17) + 3])
def test_survivor_ids_match_flatnonzero(n):
    # Listed block by block as int32, the same ids in the same order.
    alive = np.random.default_rng(n).random(n) >= 0.3
    survivors = simulator._survivor_ids(alive)
    assert survivors.dtype == np.int32
    assert survivors.tolist() == np.flatnonzero(alive).tolist()


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_derived_targets_match_spans(kind, d):
    # Link c of v is (v + span) mod N on ring and symphony, and
    # v ^ (1 << (d - 1 - c)) on tree and hypercube; xor keeps the bits
    # above that one too.  The table is derived once: every read returns
    # the same N x links array.
    n = 1 << d
    overlay = build_overlay(GeometrySpec(kind, d), d)
    targets = overlay.targets
    assert targets is overlay.targets
    assert targets.dtype == np.int32 and targets.flags.f_contiguous
    ids = np.arange(n)[:, None]
    if overlay.offsets is not None:
        assert np.array_equal(targets, (ids + overlay.offsets) % n)
        return
    shift = np.arange(d - 1, -1, -1)
    assert np.array_equal((targets ^ ids) >> shift, np.ones((n, d)))
    if kind is not Geometry.XOR:
        assert np.array_equal(targets, ids ^ (1 << shift))


def test_tree_per_distance_delivery_matches_geometric_decay():
    # Delivered fraction over all pairs at bit distance h tracks (1-q)^h:
    # h-1 intermediate nodes plus the target must all be alive.  Within a
    # pattern the pair outcomes share nodes, so the error bar comes from
    # the spread across independent failure patterns.
    d, q = 8, 0.2
    n = 1 << d
    rounds = 8
    overlay = build_overlay(GeometrySpec(Geometry.TREE, d), 3)
    rates = np.zeros((rounds, d + 1))
    src, dst = _all_ordered_pairs(n)
    hamming = np.array([x.bit_count() for x in range(n)])[src ^ dst]
    for round_ in range(rounds):
        alive = draw_failure_pattern(n, q, 1000 + round_).alive
        live = alive[src]
        delivered, _, _ = _route_batch(overlay, alive, src[live], dst[live])
        attempted = np.bincount(hamming[live], minlength=d + 1)
        delivered = np.bincount(hamming[live], weights=delivered, minlength=d + 1)
        rates[round_] = delivered / np.maximum(attempted, 1)
    for h in range(1, d + 1):
        mean = rates[:, h].mean()
        sem = rates[:, h].std(ddof=1) / math.sqrt(rounds)
        expected = (1.0 - q) ** h
        assert abs(mean - expected) <= max(3 * sem, 0.005), (h, mean, expected, sem)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_GEOMETRIES),
    d=st.integers(min_value=1, max_value=8),
    q=st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]),
    build_seed=st.integers(min_value=0, max_value=2**32),
    fail_seed=st.integers(min_value=0, max_value=2**32),
    pair=st.integers(min_value=0, max_value=2**30),
)
def test_route_robustness_property(kind, d, q, build_seed, fail_seed, pair):
    # Any endpoints, any pattern: route terminates with a sound outcome
    # and never trips the defensive hop cap (strict progress).
    n = 1 << d
    overlay = build_overlay(GeometrySpec(kind, d), build_seed)
    pattern = draw_failure_pattern(n, q, fail_seed)
    src = pair % n
    dst = (src + 1 + (pair // n) % (n - 1)) % n if n > 1 else 1 - src
    if src == dst:
        return
    result = route(overlay, pattern, src, dst)
    assert result.reason != "hop_cap"
    assert result.hops <= 4 * n
    if result.delivered:
        assert result.reason is None
        assert result.hops >= 1
        assert bool(pattern.alive[dst])
    else:
        assert result.reason == "dead_end"


# --- estimator -----------------------------------------------------------------


def test_estimate_no_failures_is_exact():
    for kind in ALL_GEOMETRIES:
        outcome = estimate_routability(GeometrySpec(kind, 8), 0.0, 3, 200, SEEDS)
        assert outcome.routable_fraction == 1.0
        assert outcome.std_error == 0.0
        assert outcome.hop_cap_hits == 0


def test_estimate_determinism():
    spec = GeometrySpec(Geometry.RING, 10)
    a = estimate_routability(spec, 0.25, 4, 300, SEEDS)
    b = estimate_routability(spec, 0.25, 4, 300, SEEDS)
    assert a == b
    c = estimate_routability(spec, 0.25, 4, 300, SimSeeds(11, 22, 34))
    assert c.trial_fractions != a.trial_fractions


def test_estimate_records_metadata():
    outcome = estimate_routability(GeometrySpec(Geometry.TREE, 6), 0.1, 5, 50, SEEDS)
    assert outcome.trials == 5
    assert outcome.pairs_per_trial == 50
    assert outcome.seeds == SEEDS
    assert len(outcome.trial_fractions) == 5
    assert 0.0 <= outcome.routable_fraction <= 1.0


def test_estimate_redraws_tiny_patterns():
    # d=1, q=0.9: most masks kill one or both of the two nodes.
    outcome = estimate_routability(GeometrySpec(Geometry.RING, 1), 0.9, 8, 10, SEEDS)
    assert outcome.redrawn_patterns > 0
    assert 0.0 <= outcome.routable_fraction <= 1.0


def test_estimate_validates_budget():
    with pytest.raises(ValueError):
        estimate_routability(GeometrySpec(Geometry.TREE, 4), 0.1, 0, 10, SEEDS)
    with pytest.raises(ValueError):
        estimate_routability(GeometrySpec(Geometry.TREE, 4), 0.1, 1, 0, SEEDS)
    with pytest.raises(ValueError, match="1000000"):
        estimate_routability(GeometrySpec(Geometry.TREE, 4), 0.1, 1, 1_000_001, SEEDS)
    # Rejected before the first trial builds anything.
    def no_build(spec, seed):
        raise AssertionError("a trial ran")

    for trials in (10_001, 1_000_000_000):
        with pytest.raises(ValueError, match="trials must be <= 10000"):
            estimate_routability(
                GeometrySpec(Geometry.TREE, 4), 0.1, trials, 1, SEEDS, builder=no_build
            )
    with pytest.raises(ValueError, match="100000000"):
        estimate_routability(
            GeometrySpec(Geometry.TREE, 4), 0.1, 10_000, 10_001, SEEDS, builder=no_build
        )


def test_hop_cap_is_reported_and_counted(monkeypatch):
    # Strict progress keeps every route under N hops, so only a cap below
    # N binds: 3/64 * N = 3 hops at d = 6.
    monkeypatch.setattr(simulator, "HOP_CAP_FACTOR", 3 / 64)
    spec = GeometrySpec(Geometry.TREE, 6)
    overlay = build_overlay(spec, 0)
    pattern = _all_alive(64)
    assert route(overlay, pattern, 0, 0b000111) == RouteResult(True, 3, None)
    assert route(overlay, pattern, 0, 0b001111) == RouteResult(False, 3, "hop_cap")
    # With no failures a route can only be delivered or capped.
    trials, pairs = 4, 500
    outcome = estimate_routability(spec, 0.0, trials, pairs, SEEDS)
    delivered = sum(round(f * pairs) for f in outcome.trial_fractions)
    assert 0 < outcome.hop_cap_hits == trials * pairs - delivered
    assert outcome.hop_cap_hits < trials * pairs


def test_estimate_tracks_analytic_hypercube():
    # Cross-module agreement at a modest budget.
    spec = GeometrySpec(Geometry.HYPERCUBE, 10)
    outcome = estimate_routability(spec, 0.2, 6, 800, SEEDS)
    expected = routability(spec, 0.2).routability
    tolerance = max(0.02, 3 * outcome.std_error)
    assert abs(outcome.routable_fraction - expected) <= tolerance


def test_estimate_ring_not_below_analytic():
    # The ring model discards wasted-hop progress, so it lower-bounds the
    # simulated routability.
    spec = GeometrySpec(Geometry.RING, 10)
    outcome = estimate_routability(spec, 0.3, 6, 800, SEEDS)
    expected = routability(spec, 0.3).routability
    assert outcome.routable_fraction >= expected - max(0.02, 3 * outcome.std_error)
