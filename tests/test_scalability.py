import math
import random

import numpy as np
import pytest

from dhtroutability import cli, scalability
from dhtroutability.analytic import DenominatorMode, routability, symphony_phase_failure
from dhtroutability.cli import parse_experiment
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.scalability import (
    EVIDENCE_HORIZONS,
    ScalabilityVerdict,
    Verdict,
    classify,
    classify_sweep,
)

EXPECTED_VERDICTS = {
    Geometry.TREE: Verdict.UNSCALABLE,
    Geometry.HYPERCUBE: Verdict.SCALABLE,
    Geometry.XOR: Verdict.SCALABLE,
    Geometry.RING: Verdict.SCALABLE,
    Geometry.SYMPHONY: Verdict.UNSCALABLE,
}


@pytest.mark.parametrize("q", [0.05, 0.1, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_verdicts_independent_of_q(kind, q):
    verdict = classify(GeometrySpec(kind, 16), q)
    assert verdict.verdict is EXPECTED_VERDICTS[kind]


def test_symphony_verdict_independent_of_link_counts():
    for k_n, k_s in ((1, 1), (2, 3), (5, 5)):
        verdict = classify(GeometrySpec(Geometry.SYMPHONY, 16, k_n=k_n, k_s=k_s), 0.1)
        assert verdict.verdict is Verdict.UNSCALABLE


def test_q_zero_and_one_rejected():
    spec = GeometrySpec(Geometry.TREE, 16)
    with pytest.raises(ValueError, match="0 < q < 1"):
        classify(spec, 0.0)
    with pytest.raises(ValueError):
        classify(spec, 1.0)


def test_limit_estimate_consistency():
    for kind in ALL_GEOMETRIES:
        verdict = classify(GeometrySpec(kind, 16), 0.1)
        if verdict.verdict is Verdict.SCALABLE:
            assert verdict.limit_estimate > 0.0
        else:
            assert verdict.limit_estimate == 0.0


def test_hypercube_limit_value():
    # prod_{m>=1} (1 - 0.1^m), stabilized far below 1e-9 by h = 1e4.
    verdict = classify(GeometrySpec(Geometry.HYPERCUBE, 16), 0.1)
    expected = math.exp(math.fsum(math.log1p(-(0.1**m)) for m in range(1, 200)))
    assert verdict.limit_estimate == pytest.approx(expected, rel=1e-12)


def test_scalable_partial_products_stabilize():
    for kind in (Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING):
        verdict = classify(GeometrySpec(kind, 16), 0.1)
        products = dict(verdict.partial_products)
        assert abs(products[1_000] - products[10_000]) < 1e-9


def test_unscalable_decay_horizon():
    tree = classify(GeometrySpec(Geometry.TREE, 16), 0.1)
    # (0.9)^h < 1e-6 first at h = 132.
    assert tree.decay_horizon == 132
    assert 0.9**tree.decay_horizon < 1e-6
    assert 0.9 ** (tree.decay_horizon - 1) >= 1e-6
    symphony = classify(GeometrySpec(Geometry.SYMPHONY, 16), 0.1)
    assert symphony.decay_horizon is not None
    products = dict(symphony.partial_products)
    assert products[10_000] < 1e-6


@pytest.mark.parametrize(
    "kind, q", [(Geometry.TREE, 5e-324), (Geometry.SYMPHONY, 5e-324), (Geometry.SYMPHONY, 1e-300)]
)
def test_subnormal_q_decay_horizon_raises_value_error(kind, q):
    # tree's horizon overflows a float; symphony's hazard underflows, so
    # log1p(-Q) is 0.  Both are the ValueError run_grid turns into a row error.
    with pytest.raises(ValueError, match=f"q={q}"):
        classify(GeometrySpec(kind, 16), q)


def test_tiny_q_tree_decay_horizon_is_exact_integer():
    # log1p(-1e-300) is -1e-300, so the horizon is finite and exact.
    horizon = classify(GeometrySpec(Geometry.TREE, 16), 1e-300).decay_horizon
    assert horizon == math.ceil(math.log(1e-6) / -1e-300)
    assert horizon > 10**300


def test_evidence_monotone():
    for kind in ALL_GEOMETRIES:
        verdict = classify(GeometrySpec(kind, 16), 0.2)
        sums = [s for _, s in verdict.partial_sums]
        prods = [p for _, p in verdict.partial_products]
        assert sums == sorted(sums)
        assert prods == sorted(prods, reverse=True)
        assert [m for m, _ in verdict.partial_sums] == list(EVIDENCE_HORIZONS)


def test_ring_limit_at_least_xor_limit():
    for q in (0.05, 0.1, 0.3, 0.5):
        ring = classify(GeometrySpec(Geometry.RING, 16), q)
        xor = classify(GeometrySpec(Geometry.XOR, 16), q)
        assert ring.limit_estimate >= xor.limit_estimate


def test_symphony_probe_holds_d_fixed():
    # Q_sym depends on d, so the same q must give different evidence at
    # different d while staying constant across the phase horizon.
    small = classify(GeometrySpec(Geometry.SYMPHONY, 8), 0.1)
    large = classify(GeometrySpec(Geometry.SYMPHONY, 16), 0.1)
    sums_small = dict(small.partial_sums)
    sums_large = dict(large.partial_sums)
    assert sums_small[10] != sums_large[10]
    # Constant hazard: partial sums scale linearly with the horizon.
    assert sums_small[10_000] == pytest.approx(1000 * sums_small[10], rel=1e-9)


def test_asymptotic_curve_tree_step_shape():
    spec = GeometrySpec(Geometry.TREE, 100)
    results = [routability(spec, q) for q in (0.0, 0.15, 0.3, 0.5)]
    assert results[0].routability == 1.0
    for res in results[1:]:
        assert res.failed_fraction >= 0.99


def test_asymptotic_curve_xor_d100_close_to_d16():
    q_grid = [0.0, 0.1, 0.2, 0.3]
    at_100 = [routability(GeometrySpec(Geometry.XOR, 100), q) for q in q_grid]
    at_16 = [routability(GeometrySpec(Geometry.XOR, 16), q) for q in q_grid]
    for big, small in zip(at_100, at_16):
        assert abs(big.routability - small.routability) < 0.01


def test_asymptotic_curve_propagates_errors():
    with pytest.raises(ValueError, match="degenerate"):
        routability(GeometrySpec(Geometry.TREE, 1), 0.5, DenominatorMode.PN_MINUS_ONE)


def test_verdict_is_frozen_record():
    verdict = classify(GeometrySpec(Geometry.RING, 16), 0.1)
    assert isinstance(verdict, ScalabilityVerdict)
    with pytest.raises(AttributeError):
        verdict.q = 0.5


# --- tree's and symphony's evidence: stepped sums of a constant ---------------
#
# scalability._constant_sums must give np.cumsum(np.full(10_000, c)) at
# each horizon bit for bit.  The sample, fixed before the first run: the
# CLI's q grid; symphony's Q on it at d = 16 with (k_n, k_s) = (1, 1) and
# (3, 2); 2,000 seeded uniforms; 2,000 constants k * 2^-e whose k has 1 to
# 53 significant bits, so that tie binades (|c| = (k + 1/2) ulps) fall
# anywhere from the first step to past the last horizon; -log1p(-c) of
# every constant above; 2^-54 and its neighbours, 5e-324, 1e-320,
# 1 - 2^-53 and 0.0, which stalls.  The log sums run on log1p(-c) < 0, so
# the negative of the grid's and symphony's constants, of their log terms
# and of the edge values run too.

CLI_QS = parse_experiment(
    ["scalability", "--q-start", "0.005", "--q-stop", "0.95", "--q-step", "0.005"]
).q_grid()
AT = [h - 1 for h in EVIDENCE_HORIZONS]


def _few_bit_constants(rng, count):
    bits = 1 + np.arange(count) % 53
    low = rng.integers(0, 1 << 52, count) & ((1 << (bits - 1)) - 1)
    k = (1 << (bits - 1)) | low  # exactly `bits` significant bits, below 2^53
    return np.ldexp(k.astype(float), -(bits - 1) - rng.integers(1, 60, count))


def _kernel_sample():
    rng = np.random.default_rng(20280)
    grid = np.concatenate((CLI_QS, [symphony_phase_failure(q, 16, k_n, k_s)
                                    for k_n, k_s in ((1, 1), (3, 2)) for q in CLI_QS]))
    constants = np.concatenate((grid, rng.random(2000), _few_bit_constants(rng, 2000)))
    tiny = 2.0**-54
    edges = [tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0), 5e-324, 1e-320,
             1.0 - 2.0**-53, 0.0]
    negatives = np.concatenate((grid, -np.log1p(-grid), edges))
    return np.concatenate((constants, -np.log1p(-constants), edges, -negatives))


def _counting_passes(monkeypatch):
    """Count _constant_sums' passes: each takes one np.frexp."""
    passes = []
    frexp = np.frexp
    monkeypatch.setattr(np, "frexp", lambda x: passes.append(1) or frexp(x))
    return passes


def _running_sums(steps):
    """(chunk, np.cumsum(np.full(10_000, c)) of each c in it as rows),
    256 rows at a time: a cumsum along axis 1 adds each row's terms in
    order, as the one-dimensional cumsum does."""
    for start in range(0, len(steps), 256):
        chunk = steps[start : start + 256, None]
        yield chunk, np.cumsum(np.broadcast_to(chunk, (len(chunk), EVIDENCE_HORIZONS[-1])), axis=1)


def test_constant_sums_equal_cumsum_bit_for_bit(monkeypatch):
    steps = _kernel_sample()
    passes = _counting_passes(monkeypatch)
    got = scalability._constant_sums(steps)
    monkeypatch.undo()
    assert got.shape == (len(EVIDENCE_HORIZONS), len(steps))
    want = np.concatenate([sums[:, AT] for _, sums in _running_sums(steps)]).T
    for j, c in enumerate(steps.tolist()):
        assert got[:, j].tobytes() == want[:, j].tobytes(), c
    for j in range(0, len(steps), 997):  # the two-dimensional reference is the plain one
        assert want[:, j].tobytes() == np.cumsum(np.full(EVIDENCE_HORIZONS[-1], steps[j]))[AT].tobytes()
    # About one pass per binade the sum crosses (10,000 is ~2^13.3) and
    # one per horizon, never one per addition.
    assert len(passes) <= 2 * (14 + len(EVIDENCE_HORIZONS))


def test_kernel_sample_has_tie_binades_early_and_late():
    # Whether fl(s + c) is a tie at some step, from the exact rounding
    # error of each addition (TwoSum): the few-bit constants must put
    # ties both before h = 10 and past h = 1,000.  A tie needs an ulp of
    # s twice c's lowest bit, so a k of b bits ties from about 2^(52 - b)
    # terms on: only b >= 36 can tie by h = 10,000.
    constants = _few_bit_constants(np.random.default_rng(20280), 2000)
    first_ties = []
    for steps, s in _running_sums(constants[np.arange(2000) % 53 >= 35]):
        total = s[:, :-1] + steps
        carry = total - s[:, :-1]
        error = (s[:, :-1] - (total - carry)) + (steps - carry)
        ties = np.abs(error) == np.spacing(total) / 2
        first_ties += (np.argmax(ties, axis=1)[ties.any(axis=1)] + 2).tolist()  # terms in that sum
    assert min(first_ties) < 10 and max(first_ties) > 1_000


def test_constant_sums_of_non_finite_steps_stall_at_once(monkeypatch):
    # An infinite or nan step stalls at once; a finite one may overflow
    # on the way to 10,000 terms.
    steps = np.array([np.inf, -np.inf, np.nan, 1e305, -1.7e308])
    passes = _counting_passes(monkeypatch)
    scalability._constant_sums(steps[:3])
    monkeypatch.undo()
    assert len(passes) <= 2 * len(EVIDENCE_HORIZONS)
    got = scalability._constant_sums(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.stack([np.cumsum(np.full(EVIDENCE_HORIZONS[-1], c))[AT] for c in steps], axis=1)
    assert np.array_equal(got, want, equal_nan=True)


DENSE_QS = tuple(sorted(random.Random(20282).random() for _ in range(200)))
EDGE_QS = (0.0, 1.0, 5e-324)


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_classify_sweep_equals_classify_per_q(kind):
    # Equal by repr, which prints every float exactly; q = 0 and 1 are
    # rejected everywhere, and 5e-324 is a non-finite decay horizon for
    # tree and symphony.
    links = ((1, 1), (3, 2)) if kind is Geometry.SYMPHONY else ((1, 1),)
    qs = (*CLI_QS, *DENSE_QS, *EDGE_QS)
    for k_n, k_s in links:
        spec = GeometrySpec(kind, 16, k_n, k_s)
        swept = classify_sweep(spec, qs)
        assert len(swept) == len(qs)
        errors = 0
        for q, got in zip(qs, swept):
            try:
                want = classify(spec, q)
            except ValueError as exc:
                assert isinstance(got, ValueError) and str(got) == str(exc), q
                errors += 1
                continue
            assert repr(got) == repr(want), q
        assert errors == (3 if kind in (Geometry.TREE, Geometry.SYMPHONY) else 2)
    assert classify_sweep(GeometrySpec(kind, 16), ()) == []


def test_scalability_calls_classify_sweep_once_per_spec(monkeypatch, capsys):
    calls = []
    sweep = cli.classify_sweep

    def counted(spec, qs):
        calls.append((spec, tuple(qs)))
        return sweep(spec, qs)

    monkeypatch.setattr(cli, "classify_sweep", counted)
    argv = ["scalability", "--geometry", "all", "--d", "8,16", "--q-start", "0.005",
            "--q-stop", "0.95", "--q-step", "0.005"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == [(spec, CLI_QS) for spec in parse_experiment(argv).specs()]
