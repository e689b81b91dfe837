"""Differential test: build_overlay against a column-by-column reference.

reference_overlay follows the README's link rules one link column at a
time, drawing from its own generator in the builder's draw order, and
uses no simulator internals.  build_overlay must agree with it on every
table entry, store each table link-major as an int32 array whose link
columns are each contiguous (an F-contiguous N x links view), and tag
the columns with the same roles.  The d = 20 hashes were captured from the
column-stacking builder that preceded the one-pass tables.
"""

import hashlib
import os
import weakref

import numpy as np
import pytest

from dhtroutability import simulator
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.simulator import SimSeeds, build_overlay, draw_failure_pattern, estimate_sweep


def reference_overlay(spec, seed):
    """(targets, offsets, roles) built one link column at a time."""
    d, n = spec.d, spec.n_nodes
    ids = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if spec.kind is Geometry.RING:
        # Finger i: a clockwise span drawn from [2^(i-1), 2^i).
        spans = [rng.integers(1 << (i - 1), 1 << i, size=n) for i in range(1, d + 1)]
        roles = [f"finger-{i}" for i in range(1, d + 1)]
    elif spec.kind is Geometry.SYMPHONY:
        # k_n successors, then k_s harmonic shortcuts floor(N^u) in [1, N-1].
        spans = [np.full(n, j) for j in range(1, spec.k_n + 1)]
        spans += [np.clip(np.floor(n ** rng.random(n)), 1, n - 1) for _ in range(spec.k_s)]
        roles = [f"near-{j}" for j in range(1, spec.k_n + 1)]
        roles += [f"shortcut-{j}" for j in range(1, spec.k_s + 1)]
    else:
        # Bucket i keeps bits 1..i-1 and flips bit i; the d-i bits below
        # are the node's own (tree, hypercube) or uniformly drawn (xor).
        columns = []
        for i in range(1, d + 1):
            bit = 1 << (d - i)
            prefix = (ids >> (d - i + 1)) << (d - i + 1)
            flipped = (ids & bit) ^ bit
            if spec.kind is not Geometry.XOR:
                suffix = ids & (bit - 1)
            else:
                suffix = rng.integers(0, bit, size=n) if bit > 1 else 0
            columns.append(prefix | flipped | suffix)
        roles = [f"bucket-{i}" for i in range(1, d + 1)]
        return np.array(columns).T, None, tuple(roles)
    spans = np.array(spans, dtype=np.int64)
    return ((ids + spans) % n).T, spans.T, tuple(roles)


def _assert_table(got, want):
    assert got.dtype == np.int32
    assert got.flags.f_contiguous
    assert np.array_equal(got, want)


def _assert_matches_reference(spec, seed):
    overlay = build_overlay(spec, seed)
    targets, offsets, roles = reference_overlay(spec, seed)
    _assert_table(overlay.targets, targets)
    if offsets is None:
        assert overlay.offsets is None
    else:
        _assert_table(overlay.offsets, offsets)
    assert overlay.roles == roles


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
def test_build_overlay_matches_reference(kind, d, seed):
    _assert_matches_reference(GeometrySpec(kind, d), seed)


@pytest.mark.parametrize("seed", [0, 7, 2**62 + 3])
def test_symphony_multi_link_overlay_matches_reference(seed):
    _assert_matches_reference(GeometrySpec(Geometry.SYMPHONY, 7, k_n=3, k_s=2), seed)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("chunk", [2, 1 << 16])
@pytest.mark.parametrize(
    "kind, k_s, d",
    [
        (kind, k_s, d)
        for kind, k_s in [(Geometry.XOR, 1), (Geometry.RING, 1), (Geometry.SYMPHONY, 1), (Geometry.SYMPHONY, 3)]
        for d in [1, 2, 3, 7, 12]
        if k_s <= d  # symphony needs k_s <= d
    ],
)
def test_split_build_matches_reference(kind, k_s, d, chunk, cpus, monkeypatch):
    # Any share count, with chunks of a row or of 2 nodes, draws the tables
    # one generator draws: each share's stream is jumped ahead exactly.
    monkeypatch.setattr(simulator, "PARALLEL_MIN_NODES", 0)
    monkeypatch.setattr(simulator, "DRAW_CHUNK", chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    _assert_matches_reference(GeometrySpec(kind, d, k_s=k_s), 2**62 + 3)


@pytest.mark.parametrize(
    "kind, k_s", [(Geometry.XOR, 1), (Geometry.RING, 1), (Geometry.SYMPHONY, 1), (Geometry.SYMPHONY, 3)]
)
def test_high_plane_build_matches_reference(kind, k_s, monkeypatch):
    # At d = 18 xor's bucket-1, ring's finger-18 and symphony's shortcuts
    # hold values from 2^16 on, whose top bits sit in the uint8 plane; the
    # build on one or three shares, and Overlay(spec, table), store them.
    spec = GeometrySpec(kind, 18, k_s=k_s)
    targets, offsets, roles = reference_overlay(spec, 2**62 + 3)
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        overlay = build_overlay(spec, 2**62 + 3)
        assert len(overlay._high_rows) == k_s
        _assert_table(overlay.targets, targets)
        assert offsets is None if kind is Geometry.XOR else np.array_equal(overlay.offsets, offsets)
    again = simulator.Overlay(spec, overlay.table)
    assert again._high_rows == overlay._high_rows
    assert np.array_equal(again.table, overlay.table)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("chunk", [2, 1 << 16])
@pytest.mark.parametrize("n_nodes", [0, 1, 2, 7, 12, 1001])
def test_split_failure_draw_matches_one_generator(n_nodes, chunk, cpus, monkeypatch):
    monkeypatch.setattr(simulator, "PARALLEL_MIN_NODES", 0)
    monkeypatch.setattr(simulator, "DRAW_CHUNK", chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    want = np.random.default_rng(np.random.SeedSequence(41)).random(n_nodes)
    assert simulator._failure_uniforms(n_nodes, 41).tolist() == want.tolist()
    assert draw_failure_pattern(n_nodes, 0.3, 41).alive.tolist() == (want >= 0.3).tolist()


@pytest.mark.parametrize("log_width", range(20))
def test_draw_below_matches_integers(log_width):
    # Same values as numpy's bounded draw from a twin generator, whole in an
    # int32 out or split into a uint16 out and a uint8 plane of the bits
    # above, and the same generator state after it: the next draws agree too.
    # A 0-bit draw never has a plane: no build row of width 0 is tall.
    width = 1 << log_width
    for n in (2, 256, 1000):
        for split in (False, True) if log_width else (False,):
            ours, theirs = np.random.default_rng(log_width), np.random.default_rng(log_width)
            out = np.empty(n, dtype=np.uint16 if split else np.int32)
            high = np.empty(n, dtype=np.uint8) if split else None
            simulator._draw_below(ours, log_width, out, high)
            want = theirs.integers(0, width, size=n, dtype=np.int64)
            got = out.astype(np.int64) | (high.astype(np.int64) << 16 if split else 0)
            assert got.tolist() == want.tolist()
            assert ours.integers(0, 1000, size=3).tolist() == theirs.integers(0, 1000, size=3).tolist()
            assert ours.random() == theirs.random()


D20_SEED13_SHA256 = {
    Geometry.TREE: ("6d65bcfdf0f105795c1ff5200b852ea7d4d884ccf983bb8bb0b850862958a168", None),
    Geometry.HYPERCUBE: ("6d65bcfdf0f105795c1ff5200b852ea7d4d884ccf983bb8bb0b850862958a168", None),
    Geometry.XOR: ("264f79b5ec287644b4205939cc342aa51ffc00f8766be12aa370cf6f02131ffc", None),
    Geometry.RING: (
        "d7c8776f3edbd8b5af2addc33413ba537a36ccc7a3a6e9c1be2c07c40c5c0e1f",
        "02f207866af0ac9f64188d8b9edd50cdd10a5f9baad4dc253d7312e7b7cd2c90",
    ),
    Geometry.SYMPHONY: (
        "67442a3c2725bfd1e0bbdff80e2fbde912bdfdc5f333c5f40f044fe0a3680cb4",
        "7bef467f725deac89e78da411734ed71919245947ba68d2d4a834433f04f780d",
    ),
}


def _sha256(table):
    return None if table is None else hashlib.sha256(table.tobytes()).hexdigest()


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_d20_tables_pinned(kind):
    overlay = build_overlay(GeometrySpec(kind, 20), 13)
    assert (_sha256(overlay.targets), _sha256(overlay.offsets)) == D20_SEED13_SHA256[kind]


def test_only_one_overlay_alive_at_a_time(monkeypatch):
    # A sweep draws each trial's failure uniforms once and shares them
    # with every q, so those are what must not outlive their trial.
    overlays, draws = [], []

    def tracked(refs, make):
        def wrapper(*args):
            if refs:
                assert refs[-1]() is None, "the previous trial's tables are still alive"
            made = make(*args)
            refs.append(weakref.ref(made))
            return made

        return wrapper

    monkeypatch.setattr(
        simulator, "_failure_uniforms", tracked(draws, simulator._failure_uniforms)
    )
    spec = GeometrySpec(Geometry.RING, 8)
    builder = tracked(overlays, build_overlay)
    estimate_sweep(spec, (0.0, 0.1, 0.2), 4, 50, SimSeeds(1, 2, 3), builder=builder)
    assert len(overlays) == len(draws) == 4
