import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtroutability.geometry import (
    ALL_GEOMETRIES,
    BINOMIAL_GEOMETRIES,
    MAX_D,
    Geometry,
    GeometrySpec,
    distance_profile,
)


def test_hypercube_d3_counts():
    profile = distance_profile(GeometrySpec(Geometry.HYPERCUBE, 3))
    assert profile.values == (3, 3, 1)


def test_ring_d3_counts_geometric():
    profile = distance_profile(GeometrySpec(Geometry.RING, 3))
    assert profile.values == (1, 2, 4)
    assert sum(profile.values) == 7


def test_tree_d10_total():
    profile = distance_profile(GeometrySpec(Geometry.TREE, 10))
    assert sum(profile.values) == 1023


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 2, 5, 12, 20])
def test_exact_normalization(kind, d):
    profile = distance_profile(GeometrySpec(kind, d))
    assert sum(profile.values) == (1 << d) - 1
    assert all(v >= 0 for v in profile.values)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 20, 21, 100, MAX_D])
def test_exact_counts_at_every_d(kind, d):
    # Exact ints on both sides of the old d = 20 cut, up to MAX_D, where
    # 2^d - 1 is still a finite double.
    profile = distance_profile(GeometrySpec(kind, d))
    assert all(type(v) is int for v in profile.values)
    assert sum(profile.values) == (1 << d) - 1
    if kind in BINOMIAL_GEOMETRIES:
        assert profile.values == tuple(math.comb(d, h) for h in range(1, d + 1))
    else:
        assert profile.values == tuple(1 << (h - 1) for h in range(1, d + 1))
    assert math.isfinite(math.fsum(map(float, profile.values)))


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [21, 40, 100])
def test_normalized_weights_sum(kind, d):
    # The weights n(h)/2^d, each rounded once, sum to 1 - 2^-d; each is
    # its float count divided by 2^d exactly, so either scale gives the
    # same ratios.
    values = distance_profile(GeometrySpec(kind, d)).values
    weights = [v / (1 << d) for v in values]
    assert math.fsum(weights) == pytest.approx(1.0 - math.ldexp(1.0, -d), rel=1e-12)
    assert weights == [math.ldexp(float(v), -d) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_GEOMETRIES),
    d=st.integers(min_value=1, max_value=MAX_D),
)
def test_normalization_property(kind, d):
    profile = distance_profile(GeometrySpec(kind, d))
    assert sum(profile.values) == (1 << d) - 1


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
