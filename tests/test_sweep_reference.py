"""Differential test: estimate_sweep against the per-q estimator loop.

reference_estimate is the estimator as it ran before the sweep existed:
one overlay build, one failure draw and one router call per (trial, q).
estimate_sweep shares each trial's build, uniforms and router call across
the whole q grid, and must return the very same SimOutcomes.
"""

import math

import numpy as np
import pytest

from dhtroutability import simulator
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.simulator import (
    MASK_NODES_PER_PAIR,
    SimOutcome,
    SimSeeds,
    _child_seed,
    _route_batch,
    _route_mask,
    build_overlay,
    draw_failure_pattern,
    estimate_routability,
    estimate_sweep,
)

SEEDS = SimSeeds(build=7, fail=8, pair=9)
Q_GRID = tuple(round(0.05 * i, 10) for i in range(11))


def reference_estimate(spec, q, trials, pairs_per_trial, seeds, builder=build_overlay):
    """The per-q estimator loop, verbatim apart from its budget checks."""
    per_pair = MASK_NODES_PER_PAIR.get(spec.kind, 0)
    router = _route_mask if spec.n_nodes <= per_pair * pairs_per_trial else _route_batch
    fractions = []
    hop_cap_hits = 0
    redrawn = 0
    for trial in range(trials):
        overlay = builder(spec, _child_seed(seeds.build, trial))
        attempt = 0
        while True:
            pattern = draw_failure_pattern(
                spec.n_nodes, q, _child_seed(seeds.fail, trial, attempt)
            )
            survivors = np.flatnonzero(pattern.alive)
            if survivors.size >= 2:
                break
            attempt += 1
            redrawn += 1
        pair_rng = np.random.default_rng(
            np.random.SeedSequence([seeds.pair, trial])
        )
        n_alive = survivors.size
        src_idx = pair_rng.integers(0, n_alive, size=pairs_per_trial)
        dst_idx = pair_rng.integers(0, n_alive, size=pairs_per_trial)
        collision = src_idx == dst_idx
        while collision.any():
            dst_idx[collision] = pair_rng.integers(0, n_alive, size=int(collision.sum()))
            collision = src_idx == dst_idx
        delivered, _, capped = router(
            overlay, pattern.alive, survivors[src_idx], survivors[dst_idx]
        )
        # Release this trial's tables so only one overlay is alive at a time.
        del overlay, pattern, survivors
        hop_cap_hits += int(np.count_nonzero(capped))
        fractions.append(int(np.count_nonzero(delivered)) / pairs_per_trial)

    mean = math.fsum(fractions) / trials
    if trials > 1:
        variance = math.fsum((f - mean) ** 2 for f in fractions) / (trials - 1)
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return SimOutcome(
        spec=spec,
        q=q,
        trials=trials,
        pairs_per_trial=pairs_per_trial,
        routable_fraction=mean,
        std_error=std_error,
        hop_cap_hits=hop_cap_hits,
        seeds=seeds,
        trial_fractions=tuple(fractions),
        redrawn_patterns=redrawn,
    )


def _assert_sweep_matches(spec, qs, trials, pairs):
    got = estimate_sweep(spec, qs, trials, pairs, SEEDS)
    want = tuple(reference_estimate(spec, q, trials, pairs, SEEDS) for q in qs)
    assert got == want


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [1, 4, 8])
@pytest.mark.parametrize("pairs", [20, 100])
def test_sweep_matches_per_q_loop(kind, d, pairs):
    # At d = 8 (N = 256), 20 pairs per trial sit below every mask
    # crossover and 100 at or above it; d = 1 and 4 always take the mask.
    spec = GeometrySpec(kind, d)
    _assert_sweep_matches(spec, Q_GRID, 3, pairs)


@pytest.mark.parametrize("kind", list(MASK_NODES_PER_PAIR))
def test_d8_pair_counts_straddle_the_mask_crossover(kind):
    factor = MASK_NODES_PER_PAIR[kind]
    assert 20 * factor < GeometrySpec(kind, 8).n_nodes <= 100 * factor


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
def test_sweep_redraws_like_per_q_loop(kind):
    # d = 1, q = 0.9: most masks leave fewer than two survivors.
    spec = GeometrySpec(kind, 1)
    qs = (0.0, 0.9, 0.5, 0.9)
    got = estimate_sweep(spec, qs, 8, 10, SEEDS)
    assert got[1].redrawn_patterns > 0
    assert got == tuple(reference_estimate(spec, q, 8, 10, SEEDS) for q in qs)


def test_single_q_is_a_one_point_sweep():
    spec = GeometrySpec(Geometry.RING, 6)
    assert estimate_routability(spec, 0.2, 3, 40, SEEDS) == estimate_sweep(spec, [0.2], 3, 40, SEEDS)[0]


def test_sweep_rejects_bad_q_before_building():
    def no_build(spec, seed):
        raise AssertionError("a trial ran")

    with pytest.raises(ValueError, match="q must be in"):
        estimate_sweep(GeometrySpec(Geometry.TREE, 4), (0.1, 1.0), 2, 10, SEEDS, builder=no_build)


def test_sweep_builds_once_per_trial():
    built = []

    def counting(spec, seed):
        built.append(seed)
        return build_overlay(spec, seed)

    estimate_sweep(GeometrySpec(Geometry.XOR, 6), Q_GRID, 4, 50, SEEDS, builder=counting)
    assert len(built) == 4


@pytest.mark.parametrize("kind", ALL_GEOMETRIES)
@pytest.mark.parametrize("d", [5, 8])
def test_router_calls_stay_within_max_pairs(kind, d, monkeypatch):
    # d = 5: 100 // 40 pairs = two q rows per call.  d = 8: N = 256 binds,
    # 600 // 256 = two rows of aliveness flags per call.
    spec = GeometrySpec(kind, d)
    cap = 100 if d == 5 else 600
    want = estimate_sweep(spec, Q_GRID, 3, 40, SEEDS)
    calls = []
    for name in ("_route_mask", "_route_batch"):
        original = getattr(simulator, name)

        def counted(overlay, alive, src, dst, row, _f=original):
            calls.append((len(src), np.size(alive)))
            return _f(overlay, alive, src, dst, row)

        monkeypatch.setattr(simulator, name, counted)
    monkeypatch.setattr(simulator, "MAX_PAIRS_PER_TRIAL", cap)
    assert estimate_sweep(spec, Q_GRID, 3, 40, SEEDS) == want
    assert len(calls) == 3 * math.ceil(len(Q_GRID) / 2)
    assert all(pairs <= cap and flags <= cap for pairs, flags in calls)
