"""Differential test: build_overlay against a column-by-column reference.

reference_overlay follows the README's link rules one link column at a
time, drawing from its own generator in the builder's draw order, and
uses no simulator internals.  build_overlay must agree with it on every
table entry, store each table as a C-contiguous int32 array, and tag the
columns with the same roles.  The d = 20 hashes were captured from the
column-stacking builder that preceded the one-pass tables.
"""

import hashlib
import weakref

import numpy as np
import pytest

from dhtroutability import simulator
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.simulator import SimSeeds, build_overlay, estimate_sweep


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
    assert got.flags.c_contiguous
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
