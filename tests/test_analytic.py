import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtroutability import analytic
from dhtroutability.analytic import (
    DenominatorMode,
    cumulative_success,
    expected_reach,
    hazard_series,
    hazard_table,
    routability,
    routability_sweep,
    suboptimal_hop_cap,
    success_series,
    symphony_phase_failure,
    tree_closed_form,
)
from dhtroutability.cli import main
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.scalability import EVIDENCE_HORIZONS, classify

Q_GRID = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)


def _hazard(kind, q, m, d=None):
    """Q(m) read from hazard_series over the spec's own d phases."""
    d = m if d is None else d
    return hazard_series(GeometrySpec(kind, d), q, d)[m - 1]


def _path_success(kind, d, q, h):
    """p(h, q) read from success_series."""
    return float(success_series(GeometrySpec(kind, d), q, h)[-1])


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


def test_suboptimal_hop_cap_exact_ceiling():
    # 12 / (1 - 0.4) is exactly 20; float round-off must not bump the cap.
    assert suboptimal_hop_cap(12, 0.4) == 20
    assert suboptimal_hop_cap(12, 0.5) == 24
    assert suboptimal_hop_cap(12, 0.1) == 14


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
    for d in (1, 2, 4, 8, 12, 16, 20, 40, 100):
        spec = GeometrySpec(kind, d)
        for q in [round(0.05 * i, 2) for i in range(20)]:
            assert success_series(spec, q, 1)[0] <= 1.0 - q, (d, q)
            # Past 64 phases the series accumulates in the log domain,
            # where exp(log1p(-q)) may round one ulp above 1 - q.
            p1 = success_series(spec, q, d)[0]
            assert p1 <= 1.0 - q + math.ulp(1.0 - q), (d, q, p1)


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


def test_large_d_normalized_pipeline():
    for kind in ALL_GEOMETRIES:
        res = routability(GeometrySpec(kind, 100), 0.1)
        assert res.reach_normalized
        assert 0.0 <= res.routability <= 1.0
        assert math.isfinite(res.expected_reach)


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


def test_tree_closed_form_large_d_log_space():
    assert tree_closed_form(100, 0.15) < 0.01


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


# --- exact head/tail evaluation ----------------------------------------------
#
# hazard_table turns xor's recurrence into a running sum once every
# 1 - q^(m-1) rounds to 1, stops ring's scalar powers once w = q and the
# power is 0, multiplies q^m in doubling chunks that stop at a fixed point
# of x -> x * q, and cuts hypercube's powers where they underflow;
# cumulative_success stops its log-domain sum where a repeating tail leaves
# it unchanged and its exp where p reaches 0.  The references below are
# the plain scalar loops, the full-length power and the full log-domain
# product; the fast paths must match them bit for bit.
#
# Points run: every q of EXACT_Q (0, the smallest subnormal, 1e-300, 1e-5,
# the 0.005 grid to 0.995, 0.999, 1 - 2^-20, 1 - 2^-53 and 20 seeded random
# q), plus per q the horizons around the m where the xor or ring loop may
# hand over (m and m + HANDOVER_MARGIN, each +-1), around the chunk ends
# of q^m (+-1) and around hypercube's zero cut (+-2).  The horizons are 1,
# 2, 3, 64, 65, 100 and 1,000 for every q, and 10,000 for every q off the
# 0.005 grid and every fifth q on it (the 0.025 grid): the scalar
# references cost ~3 ms per q at 10,000 phases.  Each reference series is
# computed once per (geometry, q) at its largest horizon; shorter horizons
# compare against its prefix, which the causal loops make exact.

EXACT_HORIZONS = (1, 2, 3, 64, 65, 100, 1_000)
EXACT_HORIZON_MAX = 10_000
HANDOVER_MARGIN = 64
# Row counts at which the doubling chunks of q^m (256, 512, ...) end.
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
    if len(hazards) <= 64:
        factors = 1.0 - hazards
        if factors.min() >= 1e-12:
            return np.cumprod(factors)
    with np.errstate(under="ignore"):
        return np.exp(np.cumsum(np.log1p(-hazards)))


def _handover_m(kind, q):
    """First m at which the xor or ring loop's tail condition holds."""
    q_prev = 1.0
    for m in range(2, EXACT_HORIZON_MAX + 1):
        q_prev *= q
        if kind is Geometry.XOR and 1.0 - q_prev == 1.0:
            return m
        w = q * (1.0 - q_prev)
        if kind is Geometry.RING and w == q and _reference_pow_of_power_of_two(w, m - 1) == 0.0:
            return m
    return None


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
        horizons = {*EXACT_HORIZONS, longest, *_boundary_horizons(kind, q, full)}
        for m_max in sorted(m for m in horizons if 1 <= m <= longest):
            want = _reference_hypercube(q, m_max) if kind is Geometry.HYPERCUBE else full[:m_max]
            got = hazard_series(spec, q, m_max)
            assert got.tobytes() == want.tobytes(), (q, m_max)
            with np.errstate(divide="ignore"):  # a hazard of 1 near q = 1
                assert (
                    cumulative_success(got).tobytes()
                    == _reference_cumulative_success(want).tobytes()
                ), (q, m_max)


def test_cumulative_success_bitwise_equals_reference_with_trailing_zeros():
    # Synthetic hazards whose last nonzero entry sits anywhere, so that a
    # sum stopped one entry early or late shows in the bits.
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
            want = _reference_cumulative_success(hazards)
            assert cumulative_success(hazards).tobytes() == want.tobytes(), (length, last)


def test_cumulative_success_bitwise_equals_reference_with_repeating_tail():
    # A varying head, then one hazard repeated to the end: a normal one
    # keeps moving the log sum, a subnormal one stops it at once.
    rng = np.random.default_rng(20062)
    for length in (65, 100, 1000, 10_000):
        for head in (1, 2, 3, 64, length // 2, length - 1):
            for repeated in (0.3, 1e-17, 5e-324, 0.0):
                hazards = rng.uniform(0.05, 0.9, length)
                hazards[head:] = repeated
                want = _reference_cumulative_success(hazards)
                got = cumulative_success(hazards)
                assert got.tobytes() == want.tobytes(), (length, head, repeated)


def test_cumulative_success_hazard_of_one_on_a_probed_row():
    # p drops from 1 to exactly 0 on a row exp checks (every 64th), and
    # on the rows next to it.
    for row in (63, 64, 65, 128, 192, 999):
        hazards = np.zeros(1000)
        hazards[row] = 1.0
        with np.errstate(divide="ignore"):
            want = _reference_cumulative_success(hazards)
            assert cumulative_success(hazards).tobytes() == want.tobytes(), row


def test_hazard_of_one_warns_nothing():
    # At q = 1 - 2^-53 half of xor's long hazards round to exactly 1.0, so
    # log1p(-1) = -inf by design: p must fall to 0 without a warning.
    q = 1.0 - 2.0**-53
    spec = GeometrySpec(Geometry.XOR, 16)
    assert (hazard_series(spec, q, 10_000) == 1.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = success_series(spec, q, 10_000)
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
    # reference, at the spec's own horizon and past the first chunk end.
    for d in TABLE_DS:
        spec = GeometrySpec(kind, d)
        for m_max in (d, 300):
            table = hazard_table(spec, TABLE_QS, m_max)
            with np.errstate(divide="ignore"):
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


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_classify_long_horizon_matches_full_length_reference(kind):
    # q = 0.3 and 0.5 drive q^m to exactly 0; from 0.505 on it sticks at a
    # subnormal fixed point instead, and at 0.95 it never gets there.  The
    # stopped series must give the full-length reference's evidence bits.
    spec = GeometrySpec(kind, 16)
    horizon = EVIDENCE_HORIZONS[-1]
    for q in (0.3, 0.5, 0.505, 0.525, 0.9, 0.95):
        hazards = _reference_hazards(spec, q, horizon)
        sums = np.cumsum(hazards)
        products = _reference_cumulative_success(hazards)
        verdict = classify(spec, q)
        assert verdict.partial_sums == tuple(
            (m, float(sums[m - 1])) for m in EVIDENCE_HORIZONS
        ), q
        assert verdict.partial_products == tuple(
            (h, float(products[h - 1])) for h in EVIDENCE_HORIZONS
        ), q
        if verdict.decay_horizon is None:
            assert verdict.limit_estimate == float(products[-1]), q


# --- one hazard table per geometry for a d list -------------------------------
#
# routability_sweep builds one table per N-free geometry, and per symphony
# spec, at the largest d, and each d reads its first d rows through the
# product cumulative_success would pick for them.  The d list straddles
# the 64-phase direct product, comes out of order and repeats; the q hit
# degenerate denominators (d = 1 from q = 0.5, d = 2 from 0.75) and,
# within 1e-12 of 1, send every column down the log-domain product even
# at d <= 64.  One more list mixes every geometry in one call.

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
    if specs[0].kind is not Geometry.SYMPHONY:  # whose factors stay above 0.01 here
        assert (1.0 - hazard_table(specs[0], (1.0 - 1e-13,), 1) < 1e-12).all()
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


def test_success_prefixes_switch_to_log_domain_per_prefix():
    # A tiny factor first at row k sends a column down the log-domain
    # product for every horizon from k on, and for no shorter one.
    rng = np.random.default_rng(20063)
    table = rng.uniform(0.05, 0.9, (100, 6))
    for j, row in enumerate((0, 9, 10, 63, 64, 99)):
        table[row, j] = 1.0 - 1e-13
    horizons = (100, 10, 65, 64, 10, 1, 2, 11, 63)
    for h, got in zip(horizons, analytic._success_prefixes(table, horizons), strict=True):
        assert got.tobytes() == cumulative_success(table[:h]).tobytes(), h
        for j in range(table.shape[1]):
            want = _reference_cumulative_success(table[:h, j])
            assert got[:, j].tobytes() == want.tobytes(), (h, j)


def test_asymptotic_builds_one_hazard_table_per_n_free_geometry(monkeypatch, capsys):
    built = []
    table = analytic.hazard_table

    def counted(spec, qs, m_max):
        built.append((spec.kind, m_max))
        return table(spec, qs, m_max)

    monkeypatch.setattr(analytic, "hazard_table", counted)
    ds = tuple(range(10, 101, 10))
    assert main(["asymptotic", "--geometry", "all", "--d", ",".join(map(str, ds))]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 5 * len(ds)  # the column header, then one row per spec
    want = [(kind, 100) for kind in ALL_GEOMETRIES if kind is not Geometry.SYMPHONY]
    want += [(Geometry.SYMPHONY, d) for d in ds]
    assert sorted(built) == sorted(want)


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
def test_cumulative_success_on_xor_subnormal_tails_equals_log1p_sum(q):
    hazards = hazard_series(GeometrySpec(Geometry.XOR, 16), q, EVIDENCE_HORIZONS[-1])
    assert (hazards < 2.0**-1022).sum() > 1000
    with np.errstate(under="ignore"):
        want = np.exp(np.cumsum(np.log1p(-hazards)))
    assert cumulative_success(hazards).tobytes() == want.tobytes()
