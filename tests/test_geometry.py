import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtroutability.geometry import (
    ALL_GEOMETRIES,
    EXACT_PROFILE_MAX_D,
    MAX_D,
    Geometry,
    GeometrySpec,
    distance_profile,
)


def _total(profile):
    """Sum of stored values: 2^d - 1 exact, or 1 - 2^-d normalized."""
    return math.fsum(profile.values) if profile.normalized else sum(profile.values)


def test_hypercube_d3_counts():
    profile = distance_profile(GeometrySpec(Geometry.HYPERCUBE, 3))
    assert profile.values == (3, 3, 1)
    assert not profile.normalized


def test_ring_d3_counts_geometric():
    profile = distance_profile(GeometrySpec(Geometry.RING, 3))
    assert profile.values == (1, 2, 4)
    assert _total(profile) == 7


def test_tree_d10_total():
    profile = distance_profile(GeometrySpec(Geometry.TREE, 10))
    assert _total(profile) == 1023


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 5, 12, 20])
def test_exact_normalization(kind, d):
    profile = distance_profile(GeometrySpec(kind, d))
    assert not profile.normalized
    assert _total(profile) == (1 << d) - 1
    assert all(v >= 0 for v in profile.values)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [21, 40, 100])
def test_normalized_weights_sum(kind, d):
    profile = distance_profile(GeometrySpec(kind, d))
    assert profile.normalized
    expected = 1.0 - math.ldexp(1.0, -d)
    assert _total(profile) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_GEOMETRIES),
    d=st.integers(min_value=1, max_value=EXACT_PROFILE_MAX_D),
)
def test_normalization_property(kind, d):
    profile = distance_profile(GeometrySpec(kind, d))
    assert _total(profile) == (1 << d) - 1


def test_spec_validation():
    with pytest.raises(ValueError):
        GeometrySpec(Geometry.TREE, 0)
    with pytest.raises(ValueError):
        GeometrySpec(Geometry.SYMPHONY, 8, k_n=0)
    with pytest.raises(ValueError):
        GeometrySpec(Geometry.SYMPHONY, 8, k_s=0)
    with pytest.raises(ValueError):
        GeometrySpec(Geometry.SYMPHONY, 4, k_s=5)
    # The k_n, k_s >= 1 rule holds for every kind, though only symphony reads them.
    for kind in (Geometry.TREE, Geometry.RING):
        with pytest.raises(ValueError, match=r"got k_n=0, k_s=1$"):
            GeometrySpec(kind, 8, k_n=0)
        with pytest.raises(ValueError, match=r"got k_n=1, k_s=0$"):
            GeometrySpec(kind, 8, k_s=0)
    spec = GeometrySpec("ring", 6)
    assert spec.kind is Geometry.RING
    assert spec.n_nodes == 64


def test_spec_bounds_d():
    assert MAX_D == 1000
    assert GeometrySpec(Geometry.XOR, MAX_D).d == MAX_D
    # A d whose profile would take hours is rejected before any math.comb.
    for d in (MAX_D + 1, 10**9):
        with pytest.raises(ValueError, match=r"must be in \[1, 1000\]"):
            GeometrySpec(Geometry.XOR, d)


def test_non_symphony_ignores_link_counts():
    spec = GeometrySpec(Geometry.TREE, 4, k_n=3, k_s=7)
    assert distance_profile(spec).values == (4, 6, 4, 1)
