import contextlib
import dataclasses
import decimal
import itertools
import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtroutability import analytic, scalability
from dhtroutability.analytic import (
    DenominatorMode,
    cumulative_success,
    expected_reach,
    hazard_series,
    hazard_table,
    routability,
    routability_sweep,
    suboptimal_hop_cap,
    symphony_phase_failure,
    tree_closed_form,
)
from dhtroutability.cli import main, parse_experiment
from dhtroutability.geometry import (
    ALL_GEOMETRIES,
    MAX_D,
    Geometry,
    GeometrySpec,
    distance_profile,
)
from dhtroutability.scalability import (
    EVIDENCE_HORIZONS,
    ScalabilityVerdict,
    Verdict,
    classify,
)

Q_GRID = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)


def _hazard(kind, q, m, d=None):
    """Q(m) read from hazard_series over the spec's own d phases."""
    d = m if d is None else d
    return hazard_series(GeometrySpec(kind, d), q, d)[m - 1]


def _path_success(kind, d, q, h):
    """p(h, q) read from the cumulative product of hazard_series."""
    return float(cumulative_success(hazard_series(GeometrySpec(kind, d), q, h))[-1])


def xor_phase_failure_approx(q, m):
    """Closed-form approximation of the XOR per-phase failure.

    Uses 1 - x ~ exp(-x) on the inner products.
    """
    if q == 0.0:
        return 0.0
    return q**m * (
        m + q / (1.0 - q) * (q ** (m - 1) * (m - 1) - (1.0 - q ** (m + 1)) / (1.0 - q))
    )


def symphony_phase_failure_approx(q, d, k_n, k_s):
    """Geometric closed form of the symphony per-phase failure.

    Replaces the capped sum with exponent d/(1-q) + 1.
    """
    if q == 0.0:
        return 0.0
    dead_all = q ** (k_n + k_s)
    wander = 1.0 - k_s / d - dead_all
    exponent = d / (1.0 - q) + 1.0
    if wander <= 0.0:
        return dead_all / (1.0 - wander)
    return dead_all * (1.0 - wander**exponent) / (1.0 - wander)


# --- phase failure -----------------------------------------------------------


def test_xor_phase_failure_hand_value():
    # m=2 expands to q^2 + q^2*(1-q)
    assert _hazard(Geometry.XOR, 0.5, 2, d=4) == pytest.approx(0.375, abs=1e-15)


def test_ring_first_phase_is_q():
    for q in (0.1, 0.37, 0.9):
        assert _hazard(Geometry.RING, q, 1, d=6) == q


def test_symphony_zero_failure_probability():
    for m in (1, 3, 8):
        assert _hazard(Geometry.SYMPHONY, 0.0, m, d=8) == 0.0


def test_tree_and_hypercube_phase_failure():
    for m in range(1, 9):
        assert _hazard(Geometry.TREE, 0.3, m, d=8) == 0.3
        assert _hazard(Geometry.HYPERCUBE, 0.3, m, d=8) == pytest.approx(0.3**m, rel=1e-15)


def test_phase_index_out_of_range():
    spec = GeometrySpec(Geometry.RING, 5)
    with pytest.raises(ValueError, match="horizon"):
        hazard_series(spec, 0.2, 0)


def test_q_domain_rejected():
    with pytest.raises(ValueError):
        hazard_series(GeometrySpec(Geometry.TREE, 4), 1.0, 4)
    with pytest.raises(ValueError):
        hazard_series(GeometrySpec(Geometry.TREE, 4), -0.1, 4)


def test_xor_phase_failure_matches_direct_sum():
    # Recurrence versus the literal finite sum.
    for q in (0.1, 0.3, 0.6, 0.9):
        for m in range(1, 12):
            direct = q**m
            for k in range(1, m):
                term = q**m
                for j in range(m - k, m):
                    term *= 1.0 - q**j
                direct += term
            assert _hazard(Geometry.XOR, q, m) == pytest.approx(direct, rel=1e-12)


def test_ring_phase_failure_matches_direct_sum():
    # Closed form versus the literal truncated geometric sum.
    for q in (0.1, 0.3, 0.6, 0.9):
        for m in range(1, 8):
            w = q * (1.0 - q ** (m - 1))
            direct = sum(q**m * w**k for k in range(2 ** (m - 1)))
            assert _hazard(Geometry.RING, q, m) == pytest.approx(direct, rel=1e-12)


def test_symphony_phase_failure_matches_direct_sum():
    for q in (0.1, 0.4, 0.8):
        for d in (4, 12, 40):
            dead = q**2
            x = 1.0 - 1.0 / d - dead
            cap = suboptimal_hop_cap(d, q)
            direct = sum(dead * x**j for j in range(cap + 1))
            assert symphony_phase_failure(q, d, 1, 1) == pytest.approx(direct, rel=1e-12)


def _reference_symphony_phase_failure(q, d, k_n, k_s):
    """The per-phase failure with explicit q = 0 and x = 1 branches."""
    if q == 0.0:
        return 0.0
    dead_all = q ** (k_n + k_s)
    wander = 1.0 - k_s / d - dead_all
    cap = suboptimal_hop_cap(d, q)
    if wander == 1.0:
        return dead_all * float(cap + 1)
    return dead_all * ((1.0 - wander ** (cap + 1)) / (1.0 - wander))


def test_symphony_phase_failure_bitwise_equals_branching_reference():
    # q = 0 gives dead_all = 0 and a finite series, so 0; x = 1 - k_s/d - q^k
    # is at most 1 - 1/MAX_D, so no branch is needed for 1 - x = 0.
    rng = random.Random(20061)
    qs = (0.0, 5e-324, 1e-310, 1e-5, 0.05, 0.5, 0.95, 1.0 - 2.0**-53,
          *(rng.random() for _ in range(40)))
    for q in qs:
        for d in (1, 2, 3, 10, 100, 1000):
            for k_n, k_s in itertools.product((1, 3), sorted({1, min(2, d), d})):
                got = symphony_phase_failure(q, d, k_n, k_s)
                want = _reference_symphony_phase_failure(q, d, k_n, k_s)
                assert _bits([got]) == _bits([want]), (q, d, k_n, k_s)


def test_suboptimal_hop_cap_exact_ceiling():
    # 12 / (1 - 0.4) is exactly 20; float round-off must not bump the cap.
    assert suboptimal_hop_cap(12, 0.4) == 20
    assert suboptimal_hop_cap(12, 0.5) == 24
    assert suboptimal_hop_cap(12, 0.1) == 14
    # The integer ceiling against the rational one on q's shortest decimal
    # form, including 0.1 + 0.2 (0.30000000000000004) and a subnormal q.
    for q in (5e-324, 1e-5, 0.1, 0.1 + 0.2, 0.4, 0.5, 0.95):
        for d in range(1, 101):
            want = math.ceil(Fraction(d) / (1 - Fraction(repr(q))))
            assert suboptimal_hop_cap(d, q) == want, (d, q)


def test_approximations_track_exact_values():
    for q in (0.05, 0.1, 0.2):
        for m in (2, 4, 8):
            exact = _hazard(Geometry.XOR, q, m)
            approx = xor_phase_failure_approx(q, m)
            assert approx == pytest.approx(exact, rel=0.05, abs=1e-12)
    for q in (0.05, 0.1, 0.3):
        exact = symphony_phase_failure(q, 16, 1, 1)
        approx = symphony_phase_failure_approx(q, 16, 1, 1)
        assert approx == pytest.approx(exact, rel=0.15)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(ALL_GEOMETRIES),
    d=st.integers(min_value=1, max_value=24),
    q=st.floats(min_value=0.0, max_value=0.95, exclude_max=False),
    )
def test_hazards_are_probabilities(kind, d, q):
    spec = GeometrySpec(kind, d)
    hazards = hazard_series(spec, q, d)
    assert np.all(hazards >= 0.0)
    assert np.all(hazards <= 1.0)
    if q == 0.0:
        assert np.all(hazards == 0.0)


@pytest.mark.parametrize(
    "kind", [Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING]
)
def test_one_hop_success_within_target_survival(kind):
    # p(1, q) <= 1 - q: a one-hop route needs its target alive.  Symphony
    # is left out because its constant hazard breaks this (see README).
    # Q(1) = q for these four, and the direct product's first row is its
    # first factor, so p(1, q) is exactly 1 - q at every horizon.
    for d in (1, 2, 4, 8, 12, 16, 20, 40, 65, 100, 1000):
        spec = GeometrySpec(kind, d)
        for q in [round(0.05 * i, 2) for i in range(20)]:
            assert cumulative_success(hazard_series(spec, q, 1))[0] <= 1.0 - q, (d, q)
            assert cumulative_success(hazard_series(spec, q, d))[0] == 1.0 - q, (d, q)


def test_ring_hazard_below_xor_hazard():
    # Non-strict at m=1 (both equal q), strict dominance afterwards.
    for q in (0.05, 0.2, 0.5, 0.9):
        for m in range(1, 40):
            q_ring = _hazard(Geometry.RING, q, m)
            q_xor = _hazard(Geometry.XOR, q, m)
            assert q_ring <= q_xor + 1e-15
        assert _hazard(Geometry.RING, q, 1) == _hazard(Geometry.XOR, q, 1)


def test_ring_path_success_dominates_xor():
    # Consequence of the hazard ordering at the product level.
    for q in (0.05, 0.2, 0.5, 0.9):
        for h in (1, 4, 8, 16):
            p_ring = _path_success(Geometry.RING, 16, q, h)
            p_xor = _path_success(Geometry.XOR, 16, q, h)
            assert p_ring >= p_xor - 1e-15


# --- path success ------------------------------------------------------------


def test_hypercube_path_success_product_form():
    # p(3, q) = (1-q^3)(1-q^2)(1-q)
    for q in (0.1, 0.5, 0.8):
        expected = (1 - q**3) * (1 - q**2) * (1 - q)
        assert _path_success(Geometry.HYPERCUBE, 3, q, 3) == pytest.approx(expected, rel=1e-14)


def test_path_success_no_failures():
    for kind in ALL_GEOMETRIES:
        for h in (1, 5, 10):
            assert _path_success(kind, 10, 0.0, h) == 1.0


def test_tree_path_success_value():
    assert _path_success(Geometry.TREE, 8, 0.1, 5) == pytest.approx(0.59049, rel=1e-12)


def test_path_success_monotone_in_h():
    for kind in ALL_GEOMETRIES:
        values = [_path_success(kind, 16, 0.3, h) for h in range(1, 17)]
        assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_GEOMETRIES),
    h=st.integers(min_value=1, max_value=16),
    q_pair=st.tuples(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=0.9),
    ),
)
def test_path_success_monotone_in_q(kind, h, q_pair):
    q_low, q_high = sorted(q_pair)
    p_low = _path_success(kind, 16, q_low, h)
    p_high = _path_success(kind, 16, q_high, h)
    assert p_low >= p_high - 1e-12


def test_tree_is_worst_case_path_success():
    # (1-q)^h lower-bounds hypercube, xor and ring at equal h, q.
    for kind in (Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING):
        for q in (0.1, 0.3, 0.6, 0.9):
            for h in (1, 4, 10, 16):
                tree_p = (1.0 - q) ** h
                p = _path_success(kind, 16, q, h)
                assert p >= tree_p - 1e-12


# --- expected reach and routability ------------------------------------------


def test_expected_reach_tree_closed_numerator():
    for d in (4, 10, 16):
        for q in Q_GRID:
            reach = expected_reach(GeometrySpec(Geometry.TREE, d), q)
            assert reach == pytest.approx((2.0 - q) ** d - 1.0, rel=1e-12)


def test_expected_reach_no_failures():
    for kind in ALL_GEOMETRIES:
        assert expected_reach(GeometrySpec(kind, 10), 0.0) == (1 << 10) - 1


def test_expected_reach_hypercube_d3_hand_value():
    reach = expected_reach(GeometrySpec(Geometry.HYPERCUBE, 3), 0.5)
    assert reach == pytest.approx(2.953125, abs=1e-15)


def test_routability_no_failures_both_modes():
    for kind in ALL_GEOMETRIES:
        for mode in DenominatorMode:
            res = routability(GeometrySpec(kind, 10), 0.0, mode)
            assert res.routability == 1.0
            assert res.failed_fraction == 0.0
            assert not res.clamped


def test_routability_small_n_clamp():
    spec = GeometrySpec(Geometry.TREE, 2)
    paper = routability(spec, 0.5, DenominatorMode.PN_MINUS_ONE)
    assert paper.clamped
    assert paper.routability == 1.0
    exact = routability(spec, 0.5, DenominatorMode.EXACT_SURVIVORS)
    assert not exact.clamped
    assert exact.routability == pytest.approx(1.25 / 1.5, rel=1e-12)


def test_routability_sums_to_one_exactly():
    for kind in ALL_GEOMETRIES:
        for q in Q_GRID:
            res = routability(GeometrySpec(kind, 12), q)
            assert res.routability + res.failed_fraction == 1.0


def test_degenerate_denominator_raises():
    with pytest.raises(ValueError, match="degenerate"):
        routability(GeometrySpec(Geometry.TREE, 1), 0.5)
    with pytest.raises(ValueError, match="degenerate"):
        tree_closed_form(1, 0.6)
    # The exact-survivors denominator stays positive there.
    res = routability(GeometrySpec(Geometry.TREE, 1), 0.5, DenominatorMode.EXACT_SURVIVORS)
    assert 0.0 <= res.routability <= 1.0


def test_large_d_absolute_pipeline():
    # E[S] is in node counts at every d: up to d = 1000, 2^d is a finite double.
    for d in (100, 1000):
        for kind in ALL_GEOMETRIES:
            res = routability(GeometrySpec(kind, d), 0.1)
            assert 0.0 <= res.routability <= 1.0
            assert 0.0 < res.expected_reach <= 2.0**d - 1.0
        tree = expected_reach(GeometrySpec(Geometry.TREE, d), 0.1)
        assert tree == pytest.approx(1.9**d - 1.0, rel=1e-12)


def test_tree_routability_next_to_q_one_at_d_1000_matches_fraction():
    # At q = 1 - 2^-53 the scaled terms n(h)/2^d * p(h) of the old d > 20
    # convention went subnormal; in counts they stay normal.
    q, d = 1.0 - 2.0**-53, 1000
    exact_q = Fraction(q)
    exact_reach = (2 - exact_q) ** d - 1
    dens = {
        DenominatorMode.PN_MINUS_ONE: (1 - exact_q) * 2**d - 1,
        DenominatorMode.EXACT_SURVIVORS: (2**d - 1) * (1 - exact_q),
    }
    for mode, den in dens.items():
        exact = exact_reach / den
        got = routability(GeometrySpec(Geometry.TREE, d), q, mode).routability
        assert abs(Fraction(got) - exact) / exact < Fraction(1, 10**14), mode


# The convention the analytic layer used for d > 20 before it kept absolute
# counts at every d: weights n(h)/2^d, N = 1 and one node = 2^-d.  Each
# weight is its count times 2^-d exactly, and x, fsum and / round alike at
# every power-of-two scale while no term is subnormal.
NORMALIZED_DS = (21, 64, 65, 100, 500, 1000)
NORMALIZED_QS = tuple(round(i * 0.05, 10) for i in range(20))  # the CLI's 0..0.95 grid


def _normalized_routability(spec, weights, q, mode):
    """(routability, clamped, E[S]/2^d) in the normalized convention."""
    reach = math.fsum((cumulative_success(hazard_series(spec, q, spec.d)) * weights).tolist())
    one = math.ldexp(1.0, -spec.d)
    pn = mode is DenominatorMode.PN_MINUS_ONE
    raw = reach / ((1.0 - q) * 1.0 - one if pn else (1.0 - one) * (1.0 - q))
    return min(raw, 1.0), raw > 1.0, reach


@pytest.mark.parametrize("mode", list(DenominatorMode))
@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_routability_equals_normalized_convention_bit_for_bit(kind, mode):
    for d in NORMALIZED_DS:
        spec = GeometrySpec(kind, d, k_n=3, k_s=2)
        weights = np.array([v / (1 << d) for v in distance_profile(spec).values])
        for q in NORMALIZED_QS:
            got = routability(spec, q, mode)
            r, clamped, reach = _normalized_routability(spec, weights, q, mode)
            assert _bits([got.routability]) == _bits([r]), (d, q)
            assert got.clamped == clamped, (d, q)
            assert got.expected_reach == pytest.approx(math.ldexp(reach, d), rel=1e-12), (d, q)


# --- tree closed form ---------------------------------------------------------


def test_tree_closed_form_no_failures():
    for d in (1, 8, 30, 100):
        assert tree_closed_form(d, 0.0) == 1.0


def test_tree_closed_form_matches_pipeline():
    res = routability(GeometrySpec(Geometry.TREE, 16), 0.3)
    assert tree_closed_form(16, 0.3) == pytest.approx(res.routability, rel=1e-12)


def test_tree_closed_form_rejects_d_below_one():
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        tree_closed_form(0, 0.1)


def test_tree_closed_form_rejects_d_above_max_d():
    # As GeometrySpec does, and before float(1 << d) overflows from d = 1024.
    for d in (1001, 1024, 10**6):
        with pytest.raises(ValueError, match=f"d must be <= 1000, got {d}$"):
            tree_closed_form(d, 0.1)


def test_tree_closed_form_large_d():
    assert tree_closed_form(100, 0.15) < 0.01
    # One direct formula at every d: (2-q)^d and (1-q)*2^d stay finite to
    # d = 1000.  Both sides inherit the d-fold rounding of 2 - q.
    for d in (65, 100, 500, 1000):
        for q in (0.0, 0.05, 0.3, 0.5, 0.95):
            exact_q = Fraction(q)
            exact = ((2 - exact_q) ** d - 1) / ((1 - exact_q) * 2**d - 1)
            assert tree_closed_form(d, q) == pytest.approx(float(exact), rel=1e-11), (d, q)


def test_tree_closed_form_next_to_q_one_at_large_d():
    # 2 - q rounds to 1, which sent the old d > 64 log form to log1p(-1)
    # and (2-q)^d - 1 to 0; 1 - q is exact, and expm1(d * log1p(1-q))
    # keeps the numerator to a few roundings.
    q = 1.0 - 2.0**-53
    exact_q = Fraction(q)
    for d in (65, 100, 1000):
        got = tree_closed_form(d, q)
        assert 0.0 <= got <= 1.0
        exact = ((2 - exact_q) ** d - 1) / ((1 - exact_q) * 2**d - 1)
        assert abs(Fraction(got) - exact) / exact < Fraction(1, 10**13), d


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=20),
    q=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9]),
)
def test_tree_closed_form_equivalence_property(d, q):
    if (1.0 - q) * (1 << d) - 1.0 <= 0.0:
        return
    res = routability(GeometrySpec(Geometry.TREE, d), q)
    assert tree_closed_form(d, q) == pytest.approx(res.routability, rel=1e-12)


# --- small-instance hypercube oracle ------------------------------------------


def _greedy_hypercube_delivers(d, alive_bits, src, dst):
    """Greedy bit-fixing over an aliveness bitmask; root assumed alive."""
    cur = src
    while cur != dst:
        diff = cur ^ dst
        nxt = -1
        for b in range(d - 1, -1, -1):
            bit = 1 << b
            if diff & bit and (alive_bits >> (cur ^ bit)) & 1:
                nxt = cur ^ bit
                break
        if nxt < 0:
            return False
        cur = nxt
    return True


def test_hypercube_oracle_small_instance():
    # Exhaustive enumeration over all failure patterns of the non-root
    # nodes, weighted q^failed * (1-q)^alive, against the product form.
    d = 3
    n = 1 << d
    for h in range(1, d + 1):
        dst = (1 << h) - 1
        hist = [0] * n
        for pattern in range(1 << (n - 1)):
            alive_bits = (pattern << 1) | 1
            if _greedy_hypercube_delivers(d, alive_bits, 0, dst):
                hist[(n - 1) - pattern.bit_count()] += 1
        for q in (0.1, 0.3, 0.5):
            oracle = sum(
                count * q**failed * (1 - q) ** (n - 1 - failed)
                for failed, count in enumerate(hist)
            )
            assert _path_success(Geometry.HYPERCUBE, d, q, h) == pytest.approx(oracle, abs=1e-12)


# --- exact evaluation against scalar references -------------------------------
#
# hazard_table runs each recurrence straight down the rows asked for, and
# scalability._log_sums sums log1p(-Q) down one series.  The
# references below are the plain scalar loops (ring's huge power through
# exp and log past 2^60, 0 past 2^1023), the full-length power, the
# scalar product p *= 1 - Q that cumulative_success's direct product must
# equal, and the full log1p sum; the table must match them bit for bit.
#
# Points run: every q of EXACT_Q (0, the smallest subnormal, 1e-300, 1e-5,
# the 0.005 grid to 0.995, 0.999, 1 - 2^-20, 1 - 2^-53 and 20 seeded random
# q), plus per q the horizons around the rows where the values change
# character: where xor's 1 - q^(m-1) rounds to 1, so its extra term turns
# into a running sum, or ring's w settles at q with a tail of 0 (m and
# m + HANDOVER_MARGIN, each +-1); where q's own power q^(2^(m-1)) first
# is 0 and two rows past the first q^m that x -> x * q maps to itself,
# from which ring's Q repeats (+-1); where hypercube's q^m falls below half
# the smallest subnormal, at m = 1076 / log2(1/q), and its first 0 (+-2);
# and the long, off-decade CHUNK_ENDS (+-1).  The horizons are 1,
# 2, 3, 64, 65, 100 and 1,000 for every q, and 10,000 for every q off the
# 0.005 grid and every fifth q on it (the 0.025 grid): the scalar
# references cost ~3 ms per q at 10,000 phases.  Each reference series is
# computed once per (geometry, q) at its largest horizon; shorter horizons
# compare against its prefix, which the causal loops make exact.

EXACT_HORIZONS = (1, 2, 3, 64, 65, 100, 1_000)
EXACT_HORIZON_MAX = 10_000
HANDOVER_MARGIN = 64
# Row counts 1 + 256 * (2^k - 1): long horizons between the decades.
CHUNK_ENDS = (257, 769, 1793, 3841, 7937)
_EXACT_GRID = tuple(round(0.005 * i, 3) for i in range(1, 200))
_EXACT_RNG = random.Random(20061)
EXACT_Q = (
    0.0,
    5e-324,
    1e-300,
    1e-5,
    *_EXACT_GRID,
    0.999,
    1.0 - 2.0**-20,
    1.0 - 2.0**-53,
    *(_EXACT_RNG.random() for _ in range(20)),
)
EXACT_Q_LONG = frozenset(EXACT_Q) - frozenset(_EXACT_GRID) | frozenset(_EXACT_GRID[4::5])


def _reference_pow_of_power_of_two(base, log2_exponent):
    if log2_exponent <= 60:
        return base ** (1 << log2_exponent)
    if log2_exponent <= 1023:
        return math.exp(math.ldexp(1.0, log2_exponent) * math.log(base))
    return 0.0


def _reference_xor(q, m_max):
    out = np.empty(m_max, dtype=float)
    out[0] = q
    extra = 0.0
    q_prev = 1.0  # q^(m-1)
    q_m = q
    for m in range(2, m_max + 1):
        q_prev *= q
        q_m *= q
        extra = (1.0 - q_prev) * (1.0 + extra)
        out[m - 1] = q_m * (1.0 + extra)
    return out


def _reference_ring(q, m_max):
    out = np.empty(m_max, dtype=float)
    out[0] = q
    q_prev = 1.0
    q_m = q
    for m in range(2, m_max + 1):
        q_prev *= q
        q_m *= q
        if q_m == 0.0:
            out[m - 1 :] = 0.0
            break
        w = q * (1.0 - q_prev)
        if w == 0.0:
            out[m - 1] = q_m
            continue
        tail = _reference_pow_of_power_of_two(w, m - 1)
        out[m - 1] = q_m * (1.0 - tail) / (1.0 - w)
    return out


def _reference_hypercube(q, m_max):
    with np.errstate(under="ignore"):
        return q ** np.arange(1, m_max + 1, dtype=float)


def _reference_cumulative_success(hazards):
    out, p = [], 1.0
    for hazard in hazards.tolist():
        p *= 1.0 - hazard
        out.append(p)
    return np.array(out)


def _reference_log_sums(hazards):
    with np.errstate(divide="ignore"):  # a hazard of 1 near q = 1
        return np.cumsum(np.log1p(-hazards))


def _handover_m(kind, q):
    """First m at which xor's 1 - q^(m-1) rounds to 1, so its loop hands
    over to a running sum, or at which ring's w has settled at q with a
    tail of 0, so that its Q is q^m / (1 - q) from there on."""
    q_prev = 1.0
    for m in range(2, EXACT_HORIZON_MAX + 1):
        q_prev *= q
        if kind is Geometry.XOR and 1.0 - q_prev == 1.0:
            return m
        w = q * (1.0 - q_prev)
        if kind is Geometry.RING and w == q and _reference_pow_of_power_of_two(w, m - 1) == 0.0:
            return m
    return None


def _fixed_row(q, count):
    """Row (m - 1) of the first q^m that x -> x * q maps to itself, or
    count if none of the first count powers is."""
    x = q
    for row in range(count):
        if x * q == x:
            return row
        x *= q
    return count


def _boundary_horizons(kind, q, reference):
    if kind is Geometry.HYPERCUBE:
        if q == 0.0:
            return ()
        cut = math.floor(1076.0 / -math.log2(q))
        zeros = np.flatnonzero(reference == 0.0)
        first_zero = int(zeros[0]) + 1 if len(zeros) else len(reference)
        return tuple(m + k for m in (cut, first_zero) for k in range(-2, 3))
    m = _handover_m(kind, q)
    ends = tuple(b + k for b in CHUNK_ENDS for k in (-1, 0, 1))
    if kind is Geometry.RING:  # the tail's stop, and the row from which Q repeats
        stop = 1 + next(i for i in itertools.count() if q ** (1 << i) == 0.0)
        fixed = _fixed_row(q, len(reference))
        ends += tuple(b + k for b in (stop, fixed + 2) for k in (-1, 0, 1))
    if m is None:
        return ends
    return ends + tuple(b + k for b in (m, m + HANDOVER_MARGIN) for k in (-1, 0, 1))


@pytest.mark.parametrize("kind", [Geometry.XOR, Geometry.RING, Geometry.HYPERCUBE])
def test_hazard_series_bitwise_equals_scalar_reference(kind):
    spec = GeometrySpec(kind, 12)
    reference_of = {
        Geometry.XOR: _reference_xor,
        Geometry.RING: _reference_ring,
        Geometry.HYPERCUBE: _reference_hypercube,
    }[kind]
    for q in EXACT_Q:
        longest = EXACT_HORIZON_MAX if q in EXACT_Q_LONG else EXACT_HORIZONS[-1]
        full = reference_of(q, longest)
        products = _reference_cumulative_success(full)
        horizons = {*EXACT_HORIZONS, longest, *_boundary_horizons(kind, q, full)}
        for m_max in sorted(m for m in horizons if 1 <= m <= longest):
            want = _reference_hypercube(q, m_max) if kind is Geometry.HYPERCUBE else full[:m_max]
            got = hazard_series(spec, q, m_max)
            assert got.tobytes() == want.tobytes(), (q, m_max)
            assert cumulative_success(got).tobytes() == products[:m_max].tobytes(), (q, m_max)


def test_ring_table_equals_reference_at_dense_q():
    # The tail stops where q ** 2^(m-1) is 0, as w <= q leaves 1 - tail at
    # 1 from there: seeded q across (0, 1), 1 - 2^-k up to the largest
    # double below 1, and subnormal q.
    rng = random.Random(20065)
    qs = (
        *(rng.random() for _ in range(2000)),
        *(1.0 - 2.0**-k for k in range(1, 54)),
        5e-324, 1e-323, 2.0**-1074 * 12345, float(np.nextafter(2.0**-1022, 0.0)),
    )
    table = hazard_table(GeometrySpec(Geometry.RING, 12), qs, 100)
    for j, q in enumerate(qs):
        assert table[:, j].tobytes() == _reference_ring(q, 100).tobytes(), q


def test_cumulative_success_bitwise_equals_reference_with_trailing_zeros():
    # Synthetic hazards whose last nonzero entry sits anywhere, so that a
    # log sum stopped one entry early or late shows in the bits; the direct
    # product runs over the same series.
    rng = np.random.default_rng(20061)
    for length in (1, 2, 3, 64, 65, 100, 1000):
        for last in sorted({-1, 0, 1, length // 2, length - 2, length - 1}):
            if last >= length:
                continue
            hazards = rng.uniform(0.05, 0.9, length)
            hazards[rng.random(length) < 0.2] = 0.0
            hazards[last + 1 :] = 0.0
            if last >= 0:
                hazards[last] = rng.uniform(0.05, 0.9)
            want = _reference_log_sums(hazards)
            assert scalability._log_sums(hazards).tobytes() == want.tobytes(), (length, last)
            want = _reference_cumulative_success(hazards)
            assert cumulative_success(hazards).tobytes() == want.tobytes(), (length, last)


def test_cumulative_success_bitwise_equals_reference_with_repeating_tail():
    # A varying head, then one hazard repeated to the end: a normal one
    # keeps moving the log sum, a subnormal one stops it at once.  The
    # direct product runs over the same series.
    rng = np.random.default_rng(20062)
    for length in (65, 100, 1000, 10_000):
        for head in (1, 2, 3, 64, length // 2, length - 1):
            for repeated in (0.3, 1e-17, 5e-324, 0.0):
                hazards = rng.uniform(0.05, 0.9, length)
                hazards[head:] = repeated
                want = _reference_log_sums(hazards)
                got = scalability._log_sums(hazards)
                assert got.tobytes() == want.tobytes(), (length, head, repeated)
                want = _reference_cumulative_success(hazards)
                got = cumulative_success(hazards)
                assert got.tobytes() == want.tobytes(), (length, head, repeated)


def test_cumulative_success_hazard_of_one_on_a_probed_row():
    # p drops from 1 to exactly 0 at one row, on or next to a multiple of
    # 64, and the log sum stays at -inf over the zeros after it.
    for row in (63, 64, 65, 128, 192, 999):
        hazards = np.zeros(1000)
        hazards[row] = 1.0
        want = _reference_cumulative_success(hazards)
        assert cumulative_success(hazards).tobytes() == want.tobytes(), row
        assert want[row:].tolist() == [0.0] * (1000 - row), row
        sums = scalability._log_sums(hazards)
        assert sums.tobytes() == _reference_log_sums(hazards).tobytes(), row


def test_hazard_of_one_warns_nothing():
    # At q = 1 - 2^-53 half of xor's long hazards round to exactly 1.0, so
    # log1p(-1) = -inf by design: p must fall to 0 without a warning.
    q = 1.0 - 2.0**-53
    spec = GeometrySpec(Geometry.XOR, 16)
    assert (hazard_series(spec, q, 10_000) == 1.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = cumulative_success(hazard_series(spec, q, 10_000))
        verdict = classify(spec, q)
    assert p[-1] == 0.0
    assert [product for _, product in verdict.partial_products] == [0.0] * len(
        verdict.partial_products
    )


# --- q tables, sweeps and long-horizon stops ----------------------------------

TABLE_DS = (1, 2, 3, 12, 20, 21, 64, 65, 100)
TABLE_QS = (0.0, 5e-324, 1e-5, 0.05, 0.3, 0.5, 0.505, 0.525, 0.75, 0.9, 0.95)


def _reference_hazards(spec, q, m_max):
    """The scalar reference series of any geometry."""
    if spec.kind is Geometry.XOR:
        return _reference_xor(q, m_max)
    if spec.kind is Geometry.RING:
        return _reference_ring(q, m_max)
    if spec.kind is Geometry.HYPERCUBE:
        return _reference_hypercube(q, m_max)
    if spec.kind is Geometry.TREE:
        return np.full(m_max, q)
    return np.full(m_max, symphony_phase_failure(q, spec.d, spec.k_n, spec.k_s))


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_hazard_table_columns_bitwise_equal_single_q_and_reference(kind):
    # Each column of a many-q table is the one-q series and the scalar
    # reference, at the spec's own horizon and at 300 rows.
    for d in TABLE_DS:
        spec = GeometrySpec(kind, d)
        for m_max in (d, 300):
            table = hazard_table(spec, TABLE_QS, m_max)
            p = cumulative_success(table)
            assert table.shape == p.shape == (m_max, len(TABLE_QS))
            for j, q in enumerate(TABLE_QS):
                want = _reference_hazards(spec, q, m_max)
                assert table[:, j].tobytes() == want.tobytes(), (d, m_max, q)
                assert hazard_series(spec, q, m_max).tobytes() == want.tobytes(), (d, m_max, q)
                assert (
                    p[:, j].tobytes() == _reference_cumulative_success(want).tobytes()
                ), (d, m_max, q)


@pytest.mark.parametrize("mode", list(DenominatorMode))
def test_routability_sweep_matches_routability_per_q(mode):
    # Every q, including rejected ones and degenerate denominators, gets
    # the result or the error text that routability gives it alone.
    qs = (*TABLE_QS, 0.6, 0.8, 1.0, -0.1)
    for kind in ALL_GEOMETRIES:
        for d in TABLE_DS:
            spec = GeometrySpec(kind, d)
            (swept,) = routability_sweep((spec,), qs, mode)
            assert len(swept) == len(qs)
            for q, got in zip(qs, swept):
                try:
                    want = routability(spec, q, mode)
                except ValueError as exc:
                    assert isinstance(got, ValueError), (kind, d, q)
                    assert str(got) == str(exc), (kind, d, q)
                    continue
                assert got == want, (kind, d, q)
                assert got.expected_reach == expected_reach(spec, q), (kind, d, q)
    assert routability_sweep((GeometrySpec(Geometry.TREE, 4),), (), mode) == [[]]
    assert routability_sweep((), TABLE_QS, mode) == []
    assert isinstance(routability_sweep((GeometrySpec(Geometry.TREE, 1),), (0.5,))[0][0], ValueError)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_sweeps_take_a_generator_of_q(kind):
    # Both read their specs and q more than once, so one-pass iterables
    # must give what the same specs and q in tuples give.
    spec = GeometrySpec(kind, 12)
    qs = (0.0, 0.3, 0.6, -0.1)
    (swept,) = routability_sweep(iter((spec,)), iter(qs))
    assert swept[:3] == routability_sweep((spec,), qs)[0][:3]
    assert isinstance(swept[3], ValueError)
    table = hazard_table(spec, iter(qs[:3]), 50)
    assert table.shape == (50, 3)
    assert table.tobytes() == hazard_table(spec, qs[:3], 50).tobytes()


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _reference_verdict(spec, q):
    """classify's verdict from the full 10,000-phase scalar series, with
    np.cumsum and the plain log1p sum, or None where classify must raise
    (a decay horizon that is not finite)."""
    hazards = _reference_hazards(spec, q, EVIDENCE_HORIZONS[-1])
    sums = np.cumsum(hazards)
    with np.errstate(under="ignore"):
        products = np.exp(_reference_log_sums(hazards))
    partial_sums = tuple((m, float(sums[m - 1])) for m in EVIDENCE_HORIZONS)
    partial_products = tuple((m, float(products[m - 1])) for m in EVIDENCE_HORIZONS)
    if spec.kind not in (Geometry.TREE, Geometry.SYMPHONY):
        return ScalabilityVerdict(spec, q, Verdict.SCALABLE, partial_products[-1][1],
                                  partial_sums, partial_products, None)
    try:
        decay = math.ceil(math.log(scalability.DECAY_THRESHOLD) / math.log1p(-hazards[0]))
    except (ZeroDivisionError, OverflowError):
        return None
    return ScalabilityVerdict(spec, q, Verdict.UNSCALABLE, 0.0, partial_sums, partial_products,
                              decay)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_classify_long_horizon_matches_full_length_reference(kind):
    # hypercube, xor and ring build only the rows that can move a sum;
    # every q near 1 builds all 10,000.  Their whole verdict must be the
    # full-length reference's, bit for bit (repr prints each float
    # exactly), at every q that runs 10,000 phases in the exact head/tail
    # tests above, plus the q table: q^m reaching exactly 0 (q <= 0.5) or
    # a subnormal fixed point (from 0.505 on), p underflowing to 0 well
    # before 10,000 phases, xor's subnormal tail and, at 1 - 2^-53,
    # hazards of exactly 1.  Tree's and symphony's evidence is closed
    # form, so it meets the exact oracle's bounds instead, and the rest of
    # their verdict is the reference's.
    spec = GeometrySpec(kind, 16)
    constant = kind in (Geometry.TREE, Geometry.SYMPHONY)
    underflows = subnormal_tails = 0
    for q in sorted({*EXACT_Q_LONG, *TABLE_QS} - {0.0}):
        want = _reference_verdict(spec, q)
        if want is None:
            with pytest.raises(ValueError, match="decay horizon is not finite"):
                classify(spec, q)  # (1 - Q)^h does not fall below 1e-6 in floats
            continue
        got = classify(spec, q)
        if constant:  # the evidence against the oracle, the rest against the reference
            with mpmath.workdps(ORACLE_DPS):
                _check_constant_evidence(got)
            got = dataclasses.replace(got, partial_sums=want.partial_sums,
                                      partial_products=want.partial_products)
        assert repr(got) == repr(want), q
        products = dict(want.partial_products)
        underflows += bool(products[1_000] == 0.0 < products[10])
        subnormal_tails += bool(0.0 < hazard_series(spec, q, 10_000)[-1] < np.finfo(float).tiny)
    assert underflows > 0
    assert subnormal_tails > 0 or kind is not Geometry.XOR


def test_classify_builds_few_rows_for_geometric_hazards(monkeypatch, capsys):
    # On the CLI's grid hypercube, xor and ring need under 1,000 rows a q,
    # and tree and symphony one row for the whole grid: their evidence is
    # closed form in their constant hazard.  No q, not even next
    # to 1, asks for more than the 10,000-phase horizon.
    asked, tables = [], []
    series, table = scalability.hazard_series, scalability.hazard_table

    def counted(spec, q, m_max):
        asked.append((spec.kind, q, m_max))
        return series(spec, q, m_max)

    def counted_table(spec, qs, m_max):
        qs = tuple(qs)
        tables.append((spec.kind.value, len(qs), m_max))
        return table(spec, qs, m_max)

    monkeypatch.setattr(scalability, "hazard_series", counted)
    monkeypatch.setattr(scalability, "hazard_table", counted_table)
    argv = ["scalability", "--geometry", "all", "--q-start", "0.005", "--q-stop", "0.95",
            "--q-step", "0.005"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(asked) == 3 * 190
    assert sorted(tables) == [("symphony", 190, 1), ("tree", 190, 1)]
    for kind, q, rows in asked:
        assert kind not in (Geometry.TREE, Geometry.SYMPHONY), (kind, q)
        assert rows < 1_000, (kind, q)
    for kind in ALL_GEOMETRIES:
        for q in (5e-324, 0.999, 1.0 - 2.0**-53):
            with contextlib.suppress(ValueError):
                classify(GeometrySpec(kind, 16), q)
    assert max(rows for _, _, rows in asked) == EVIDENCE_HORIZONS[-1]
    assert max(rows for _, _, rows in tables) == 1


def test_log_sums_fill_the_full_column():
    # The running log1p sum over a full 10,000-row column, with -h taken
    # below 2^-54, bit for bit, also where a term no longer moves the sum.
    qs = (5e-324, 1e-5, 0.3, 0.5, 0.505, 0.9, 0.95, 1.0 - 2.0**-53)
    settled = 0
    for kind in ALL_GEOMETRIES:
        table = hazard_table(GeometrySpec(kind, 16), qs, EVIDENCE_HORIZONS[-1])
        for hazards in table.T:
            with np.errstate(divide="ignore"):
                terms = np.where(hazards >= 2.0**-54, np.log1p(-hazards), -hazards)
                sums = scalability._log_sums(hazards)
            assert sums.tobytes() == np.cumsum(terms).tobytes(), kind
            settled += bool(sums[-2] == sums[-1])
    assert settled > 0


# --- one hazard table per geometry for a d list -------------------------------
#
# routability_sweep builds one table and one product per N-free geometry,
# and per symphony spec, at the largest d, and each d reads their first d
# rows.  The d list crosses 64, comes out of order and repeats; the q hit
# degenerate denominators (d = 1 from q = 0.5, d = 2 from 0.75) and
# come within 1e-12 of 1.  One more list mixes every geometry in one call.

SHARED_DS = (100, 10, 65, 64, 10, 1, 2)
SHARED_QS = (0.0, 5e-324, 0.05, 0.3, 0.5, 0.6, 0.75, 0.8, 0.95, 0.999, 1.0 - 1e-13,
             1.0 - 2.0**-53, 1.0, -0.1)


def _same_entry(got, want):
    if isinstance(want, ValueError):
        return isinstance(got, ValueError) and str(got) == str(want)
    return got == want


SHARED_SPECS = {
    **{kind.value: [GeometrySpec(kind, d) for d in SHARED_DS] for kind in ALL_GEOMETRIES},
    "symphony-kn3-ks2": [GeometrySpec(Geometry.SYMPHONY, d, 3, min(2, d)) for d in SHARED_DS],
    "mixed": [GeometrySpec(kind, d) for d in (64, 3) for kind in ALL_GEOMETRIES],
}


@pytest.mark.parametrize("mode", list(DenominatorMode))
@pytest.mark.parametrize("name", list(SHARED_SPECS))
def test_routability_sweep_over_a_spec_list_equals_each_spec_alone(name, mode):
    specs = SHARED_SPECS[name]
    shared = routability_sweep(specs, SHARED_QS, mode)
    assert len(shared) == len(specs)
    for spec, entries in zip(specs, shared):
        (alone,) = routability_sweep((spec,), SHARED_QS, mode)
        assert len(entries) == len(SHARED_QS)
        for q, got, want in zip(SHARED_QS, entries, alone):
            assert _same_entry(got, want), (spec, q)
            try:
                point = routability(spec, q, mode)
            except ValueError as exc:
                point = exc
            assert _same_entry(got, point), (spec, q)
    if mode is DenominatorMode.PN_MINUS_ONE and specs[-1].d == 2:  # degenerate from q = 0.75
        assert sum(isinstance(entry, ValueError) for entry in shared[-1]) > 2


def test_asymptotic_builds_one_hazard_table_per_n_free_geometry(monkeypatch, capsys):
    # The analytic benchmark's sweep and the largest d, over the CLI's
    # q = 0..0.95 grid: no table runs past max(d) rows, so no CLI path
    # reaches the long horizons of direct callers.
    built = []
    table = analytic.hazard_table

    def counted(spec, qs, m_max):
        built.append((spec.kind, m_max))
        return table(spec, qs, m_max)

    monkeypatch.setattr(analytic, "hazard_table", counted)
    for ds in (tuple(range(10, 101, 10)), (MAX_D,)):
        built.clear()
        argv = ["asymptotic", "--geometry", "all", "--d", ",".join(map(str, ds)),
                "--q-start", "0", "--q-stop", "0.95", "--q-step", "0.005"]
        assert main(argv) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 5 * len(ds) * 191  # the column header, then one row per (spec, q)
        want = [(kind, max(ds)) for kind in ALL_GEOMETRIES if kind is not Geometry.SYMPHONY]
        want += [(Geometry.SYMPHONY, d) for d in ds]
        assert sorted(built) == sorted(want)


def test_asymptotic_constructs_no_routability_result(monkeypatch, capsys):
    # The CLI fills its cells from routability_columns; only API callers
    # of routability_sweep get RoutabilityResult records.
    built = []
    record = analytic.RoutabilityResult

    def counted(*args, **kwargs):
        built.append(args)
        return record(*args, **kwargs)

    monkeypatch.setattr(analytic, "RoutabilityResult", counted)
    argv = ["asymptotic", "--geometry", "all", "--d", "10,20,100", "--q-start", "0",
            "--q-stop", "0.95", "--q-step", "0.005"]
    assert main(argv) == 0
    capsys.readouterr()
    assert built == []
    routability_sweep([GeometrySpec(Geometry.TREE, 10)], (0.1, 0.2))
    assert len(built) == 2


# --- log1p(-h) is -h below 2^-54 ------------------------------------------------

def test_log1p_of_minus_a_tiny_hazard_is_minus_the_hazard():
    # The premise of taking -h for log1p(-h) below 2^-54, on this platform:
    # subnormals, the normal range and the last double below 2^-54.
    rng = np.random.default_rng(20064)
    h = np.concatenate((
        [5e-324, 1e-323, 2.0**-1074 * 12345, 2.0**-1022, np.nextafter(2.0**-54, 0.0)],
        np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(-1073, -53, 2000)),
    ))
    assert ((h >= 5e-324) & (h < 2.0**-54)).all()
    assert (h < 2.0**-1022).sum() > 10
    assert (np.log1p(-h) == -h).all()


@pytest.mark.parametrize("q", [0.55, 0.6, 0.7, 0.8, 0.9])
def test_log_sums_on_xor_subnormal_tails_equal_log1p_sum(q):
    hazards = hazard_series(GeometrySpec(Geometry.XOR, 16), q, EVIDENCE_HORIZONS[-1])
    assert (hazards < 2.0**-1022).sum() > 1000
    with np.errstate(under="ignore"):
        want = np.exp(np.cumsum(np.log1p(-hazards)))
        got = np.exp(scalability._log_sums(hazards))
    assert got.tobytes() == want.tobytes()


# --- the direct product: where it is valid, and how accurate ------------------

STALL_QS = tuple(round(0.0005 * i, 4) for i in range(1901))  # 0 to 0.95


def _stalls(hazards):
    """Per column, whether a subnormal product meets a factor above 1/2,
    the only way p * (1 - Q) can round back to p while the true product
    keeps falling."""
    p = cumulative_success(hazards)
    subnormal = (p[:-1] > 0.0) & (p[:-1] < np.finfo(float).tiny)
    return (subnormal & (1.0 - hazards[1:] > 0.5)).any(axis=0)


def test_direct_product_never_stalls_up_to_max_d():
    # hypercube's, xor's and ring's Q do not hold d, so MAX_D phases cover
    # every shorter d as a prefix.  Tree's and symphony's factor f is
    # constant: if f > 1/2, then f^1000 > 2^-1000 is still a normal number,
    # so neither can stall; both are checked anyway, symphony at several d
    # and (k_n, k_s), since its Q holds them.
    specs = [GeometrySpec(kind, MAX_D) for kind in ALL_GEOMETRIES if kind is not Geometry.SYMPHONY]
    specs += [
        GeometrySpec(Geometry.SYMPHONY, d, k_n, k_s)
        for d in (2, 10, 65, 100, 500, MAX_D)
        for k_n, k_s in ((1, 1), (1, 2), (3, 2), (4, 1))
    ]
    for spec in specs:
        stalls = _stalls(hazard_table(spec, STALL_QS, spec.d))
        assert not stalls.any(), (spec, [q for q, s in zip(STALL_QS, stalls) if s])
    # The classifier's 10,000-phase series does stall: a direct product
    # would end tree's at q = 0.075 on 2.96e-323, where the log sum gives 0.
    tree = GeometrySpec(Geometry.TREE, 16)
    hazards = hazard_series(tree, 0.075, EVIDENCE_HORIZONS[-1])
    assert _stalls(hazards[:, None]).all()
    assert cumulative_success(hazards)[-1] > 0.0
    assert classify(tree, 0.075).partial_products[-1] == (EVIDENCE_HORIZONS[-1], 0.0)


def _exact_routability(spec, q, mode):
    """routability from the same float hazards in 80-digit decimals: p(h),
    the counts n(h) and E[S] carry no error near 2^-53.  The denominator
    is the double the sweep divides by; this test measures E[S] and the
    division."""
    with decimal.localcontext(prec=80):
        p, reach = Decimal(1), Decimal(0)
        for hazard, count in zip(hazard_series(spec, q, spec.d).tolist(), distance_profile(spec).values):
            p *= 1 - Decimal(hazard)
            reach += count * p
        n = 1 << spec.d
        den = (1.0 - q) * n - 1.0 if mode is DenominatorMode.PN_MINUS_ONE else (n - 1.0) * (1.0 - q)
        return min(reach / Decimal(den), Decimal(1))


def test_routability_within_a_priori_bound_of_exact_value():
    # p(h) takes at most 2h - 1 roundings (each 1 - Q and each multiply),
    # then n(h) as a double, n(h) * p(h), fsum and the division one each:
    # the relative error is at most (2d + 3) * 2^-53 to first order.
    rng = random.Random(20066)
    kinds = (*((kind, 1, 1) for kind in ALL_GEOMETRIES), (Geometry.SYMPHONY, 3, 2))
    for _ in range(48):
        kind, k_n, k_s = rng.choice(kinds)
        spec = GeometrySpec(kind, rng.randint(65, MAX_D), k_n, k_s)
        q, mode = rng.uniform(0.0, 0.95), rng.choice(list(DenominatorMode))
        exact = _exact_routability(spec, q, mode)
        with decimal.localcontext(prec=80):
            error = abs(Decimal(routability(spec, q, mode).routability) - exact)
            assert error <= (2 * spec.d + 3) * Decimal(2) ** -53 * exact, (spec, q, mode)


# --- an exact oracle at 50 digits ---------------------------------------------
#
# Q(m) and p(h, q) of hypercube, xor and ring from the float q, to
# h = 1,000, and hypercube's limit against the q-Pochhammer symbol
# (q; q)_inf = prod_{m>=1} (1 - q^m).  Each bound is a first-order worst
# case, in units of u = 2^-53:
#
#   Q(m)  q^m takes m - 1 roundings in the cumprod; xor's extra term adds
#         3 per row and each 1 - q^(j-1) inherits (j - 2) q^(j-1) /
#         (1 - q^(j-1)) from the power, ring's 1 / (1 - w) at most q / (1 - q)
#         times w's: under 4,600 u at q = 0.95 and m = 1,000, so 2^-40
#         relative (8,192 u).  A subnormal power is good only to a few of
#         its 2^-1074 steps, and xor's 1 + E(m) scales that by up to 1,000,
#         so below 2^-1000 the bound is the absolute 2^-40 * 2^-1000.
#   p(h)  each factor takes 1 - Q and the multiply, and Q's 2^-40 moves
#         1 - Q by 2^-40 Q / (1 - Q): 2h u + 2^-40 sum_{m<=h} Q / (1 - Q),
#         relative, with the same floor.
#   limit classify sums fewer than 1,000 logs (pinned above on this grid),
#         each rounded within ~15 u of its own size (pow, log1p), so the sum
#         is off by at most 1,024 u |ln L| and exp adds a rounding: relative
#         (1,024 |ln L| + 4) u.

ORACLE_DPS = 50
ORACLE_HORIZON = 1_000
_ORACLE_RNG = random.Random(20270)
ORACLE_QS = (0.005, 0.5, 0.95, *(_ORACLE_RNG.uniform(0.0, 0.95) for _ in range(5)))
ORACLE_Q_BOUND = 2.0**-40
ORACLE_FLOOR = 2.0**-1000


def _oracle_hazards(kind, q, m_max):
    """Q(1..m_max) at the working precision, from the exact value of q."""
    q = mpmath.mpf(q)
    out, q_m, extra = [], mpmath.mpf(1), mpmath.mpf(0)
    for m in range(1, m_max + 1):
        q_prev, q_m = q_m, q_m * q  # q^(m-1), q^m
        if kind is Geometry.HYPERCUBE:
            out.append(q_m)
        elif kind is Geometry.XOR:
            extra = (1 - q_prev) * (1 + extra)  # 0 at m = 1
            out.append(q_m * (1 + extra))
        else:
            w = q * (1 - q_prev)
            tail = mpmath.exp(mpmath.ldexp(mpmath.log(w), m - 1)) if w else w
            out.append(q_m * (1 - tail) / (1 - w))
    return out


@pytest.mark.parametrize("kind", [Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING])
def test_hazards_and_products_within_a_priori_bound_of_exact_values(kind):
    spec = GeometrySpec(kind, 12)
    u = mpmath.mpf(2) ** -53
    with mpmath.workdps(ORACLE_DPS):
        for q in ORACLE_QS:
            hazards = hazard_series(spec, q, ORACLE_HORIZON)
            products = cumulative_success(hazards)
            p, drift = mpmath.mpf(1), mpmath.mpf(0)  # exact p(h), sum Q / (1 - Q)
            for h, (got_q, got_p, want_q) in enumerate(
                zip(hazards.tolist(), products.tolist(), _oracle_hazards(kind, q, ORACLE_HORIZON)), 1
            ):
                p *= 1 - want_q
                drift += want_q / (1 - want_q)
                assert abs(got_q - want_q) <= ORACLE_Q_BOUND * max(want_q, ORACLE_FLOOR), (q, h)
                bound = 2 * h * u + ORACLE_Q_BOUND * drift
                assert abs(got_p - p) <= bound * max(p, ORACLE_FLOOR), (q, h)


def test_hypercube_limit_within_a_priori_bound_of_q_pochhammer():
    spec = GeometrySpec(Geometry.HYPERCUBE, 16)
    u = mpmath.mpf(2) ** -53
    with mpmath.workdps(ORACLE_DPS):
        for q in CLI_QS:
            exact = mpmath.qp(mpmath.mpf(q), mpmath.mpf(q))
            got = classify(spec, q).limit_estimate
            assert abs(got - exact) <= (1024 * abs(mpmath.log(exact)) + 4) * u * exact, q


# E[S] and r from the float hazards of each point, against their values
# at 50 digits: p(h) the exact product of the 1 - Q, n(h) the exact
# counts, the denominator exact from the float q.  Each bound, in units
# of u = 2^-53, is a first-order worst case:
#
#   E[S]  p(h) takes 2h - 1 roundings, n(h) as a double and n(h) p(h) one
#         each, fsum one: (2d + 2) u relative.  A product that underflows
#         is off by at most h 2^-1074 more: d N 2^-1074 absolute.
#   r     the paper denominator (1 - q) N - 1 rounds 1 - q, whose error
#         (1 - q) N / den magnifies, and the subtraction; the exact one
#         rounds N - 1, 1 - q and the product; the division rounds once:
#         the raw ratio is within E[S]'s bound plus (3 + (1 - q) N / den) u,
#         and min(., 1) keeps it.
#   1 - r exact from r >= 1/2 (Sterbenz), one rounding below: r's bound,
#         absolute, plus 2^-54.
#
# The sample: seeded points over every geometry, d <= MAX_D and both
# modes, and symphony (3, 2) at d = 274-999, q = 0.04-0.075, where the
# direct product rounds 1 - Q the same way in every factor: r reads up to
# 479 u off there (d = 977, q = 0.045; and 472 u at d = 955, q = 0.04).

_REACH_RNG = random.Random(20300)
_REACH_KINDS = (*((kind, 1, 1) for kind in ALL_GEOMETRIES), (Geometry.SYMPHONY, 3, 2))
REACH_SAMPLE = (
    *((*_REACH_RNG.choice(_REACH_KINDS), _REACH_RNG.randint(1, MAX_D), _REACH_RNG.uniform(0.0, 0.95),
       _REACH_RNG.choice(list(DenominatorMode))) for _ in range(24)),
    *((Geometry.SYMPHONY, 3, 2, _REACH_RNG.randint(274, 999), _REACH_RNG.uniform(0.04, 0.075),
       _REACH_RNG.choice(list(DenominatorMode))) for _ in range(8)),
    *((Geometry.SYMPHONY, 3, 2, d, q, mode) for d, q in ((977, 0.045), (955, 0.04))
      for mode in DenominatorMode),
)


def test_expected_reach_and_routability_within_a_priori_bounds_of_exact_values():
    u = mpmath.mpf(2) ** -53
    checked = 0
    with mpmath.workdps(ORACLE_DPS):
        for kind, k_n, k_s, d, q, mode in REACH_SAMPLE:
            spec = GeometrySpec(kind, d, k_n, k_s)
            try:
                got = routability(spec, q, mode)
            except ValueError:
                continue  # a degenerate denominator
            p, reach = mpmath.mpf(1), mpmath.mpf(0)
            for hazard, count in zip(hazard_series(spec, q, d).tolist(), distance_profile(spec).values):
                p *= 1 - mpmath.mpf(hazard)
                reach += count * p
            n, alive = mpmath.mpf(2) ** d, 1 - mpmath.mpf(q)
            den = alive * n - 1 if mode is DenominatorMode.PN_MINUS_ONE else (n - 1) * alive
            ratio = reach / den
            reach_bound = (2 * d + 2) * u * reach + d * n * mpmath.mpf(2) ** -1074
            assert abs(got.expected_reach - reach) <= reach_bound, (spec, q, mode)
            bound = reach_bound / den + (3 + alive * n / den) * u * ratio
            assert abs(got.routability - min(ratio, 1)) <= bound, (spec, q, mode)
            failed_bound = bound + mpmath.mpf(2) ** -54
            assert abs(got.failed_fraction - (1 - min(ratio, 1))) <= failed_bound, (spec, q, mode)
            checked += 1
    assert checked >= 30


# classify's evidence against the exact values of the float hazards it
# reads, in units of u = 2^-53.  Below 2^-1022 each p bound is taken at
# 2^-1022, absolute: there the result's spacing is 2^-1074.
#
# Tree and symphony: one hazard Q per q, so the evidence is closed form.
#   sum_q_at_h  h * Q is one rounding: the exact product, correctly
#               rounded, bit for bit.
#   p_at_h      exp(h L), L = log1p(-Q): log1p is within ~1 u of L (below
#               2^-54, -Q is its correct rounding), h * L one more rounding,
#               exp ~1 u: relative (4 |h L| + 4) u against the 50-digit
#               exp(h log1p(-Q)).
# Hypercube, xor and ring: running sums of their first K(q) hazards.
#   sum_q_at_h  h - 1 roundings of a sum of positive terms; the rows past
#               K, each under a quarter ulp of the sum, drop (h - K) u / 4
#               of it at most: h u relative, against math.fsum (the exact
#               sum of all h hazards, correctly rounded).
#   p_at_h      each log term within ~1 u of its own size, the sum h - 1
#               roundings (the dropped rows inside that), exp ~1 u:
#               relative ((h + 2) |ln P| + 4) u against the 50-digit
#               P = exp(sum log1p(-Q)).  A hazard below 2^-60 enters the
#               oracle's log sum as -Q, off by Q^2 / 2 < 2^-61 Q, and the
#               fsum of those terms is within half an ulp of their sum:
#               together far below u |ln P|.
#
# The constant sample: the CLI's grid, 2,000 seeded q and the edges 5e-324,
# 1e-300, 2^-54 and its neighbours, 0.5, 0.95 and 1 - 2^-53, for tree and
# for symphony at (k_n, k_s) = (1, 1) and (3, 2).  The series sample is
# ORACLE_QS.

CLI_QS = parse_experiment(
    ["scalability", "--q-start", "0.005", "--q-stop", "0.95", "--q-step", "0.005"]
).q_grid()
_TINY = 2.0**-54
CONSTANT_QS = (
    *CLI_QS,
    *(random.Random(20301).random() for _ in range(2000)),
    5e-324, 1e-300, float(np.nextafter(_TINY, 0.0)), _TINY, float(np.nextafter(_TINY, 1.0)),
    0.5, 0.95, 1.0 - 2.0**-53,
)
SUBNORMAL_FLOOR = mpmath.mpf(2) ** -1022


def _check_constant_evidence(verdict):
    """Tree's or symphony's sum_q_at_h and p_at_h within their bounds, at
    the working precision."""
    (hazard,) = hazard_series(verdict.spec, verdict.q, 1).tolist()
    log_survival = mpmath.log1p(-mpmath.mpf(hazard))
    for (h, total), (_, product) in zip(verdict.partial_sums, verdict.partial_products):
        assert total == float(h * Fraction(hazard)), (verdict.spec, verdict.q, h)
        exact = mpmath.exp(h * log_survival)
        bound = (4 * abs(h * float(log_survival)) + 4) * 2.0**-53 * max(exact, SUBNORMAL_FLOOR)
        assert abs(product - exact) <= bound, (verdict.spec, verdict.q, h)


@pytest.mark.parametrize(
    "kind, k_n, k_s", [(Geometry.TREE, 1, 1), (Geometry.SYMPHONY, 1, 1), (Geometry.SYMPHONY, 3, 2)]
)
def test_constant_evidence_within_a_priori_bounds_of_exact_values(kind, k_n, k_s):
    verdicts = scalability.classify_sweep(GeometrySpec(kind, 16, k_n, k_s), CONSTANT_QS)
    with mpmath.workdps(ORACLE_DPS):
        for verdict in verdicts:
            if not isinstance(verdict, ValueError):
                _check_constant_evidence(verdict)
    # 5e-324, and for symphony 1e-300, whose hazard underflows to 0, have
    # no finite decay horizon.
    assert sum(isinstance(v, ValueError) for v in verdicts) == (1 if kind is Geometry.TREE else 2)


@pytest.mark.parametrize("kind", [Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING])
def test_series_evidence_within_a_priori_bounds_of_exact_values(kind):
    spec = GeometrySpec(kind, 16)
    u = mpmath.mpf(2) ** -53
    with mpmath.workdps(ORACLE_DPS):
        for q in ORACLE_QS:
            verdict = classify(spec, q)
            hazards = hazard_series(spec, q, EVIDENCE_HORIZONS[-1]).tolist()
            for (h, total), (_, product) in zip(verdict.partial_sums, verdict.partial_products):
                exact_sum = math.fsum(hazards[:h])
                assert abs(total - exact_sum) <= h * u * exact_sum, (q, h)
                tiny = [x for x in hazards[:h] if x < 2.0**-60]
                log_p = mpmath.fsum(mpmath.log1p(-mpmath.mpf(x)) for x in hazards[:h] if x >= 2.0**-60)
                log_p -= math.fsum(tiny)
                exact = mpmath.exp(log_p)
                bound = ((h + 2) * abs(log_p) + 4) * u * max(exact, SUBNORMAL_FLOOR)
                assert abs(product - exact) <= bound, (q, h)
            assert verdict.limit_estimate == product
