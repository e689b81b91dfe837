"""Acceptance suite: one test per criterion, one printed line each.

Covers the exit criteria for the analytic engine, the Monte Carlo
simulator, their cross-validation at desk scale (d=12), the asymptotic
d=100 curves, the scalability verdicts, and output determinism.

Three agreement checks are expected to fail and are kept faithful rather
than loosened; each reflects optimism in the per-phase analytic models
relative to the randomized overlays the simulator is required to build:

  criterion 4 (xor)   The per-phase model treats every bucket hop as
      preserving all other identifier bits; the required construction
      randomizes the suffix, so extra corrective hops (each with fresh
      dead-end risk) remain near the target.  Measured analytic-minus-
      simulated gap is ~0.03-0.07 across q in [0.05, 0.5], roughly
      independent of d in 10..16 (tolerance: max(0.02, 3 std errors)).
      Cleanest demonstration: alive pairs at bit distance 1, where the
      model predicts certain delivery, deliver ~80% at q = 0.2.
  criterion 5 (ring)  The model's highest finger is fully usable
      throughout a phase, but a uniformly drawn finger usually
      overshoots near a phase's lower edge; the deficit accumulates
      along a route (measured simulated failed fraction exceeds the
      analytic bound + 0.02 by ~0.003-0.006 at q = 0.15 for every seed
      tried, and by ~0.001 at q = 0.2, seed-dependent).
  criterion 6 (symphony)  The model counts any alive link as a usable
      detour, while the no-overshoot greedy router cannot use links
      that jump past the target.  Measured gap reaches ~0.45 at
      q = 0.05 against the flat 0.05 tolerance.

The assertions state the intended tolerances and report measured gaps.
"""

import math
import time

from dhtroutability.analytic import (
    DenominatorMode,
    routability,
    success_series,
    tree_closed_form,
)
from dhtroutability.cli import main
from dhtroutability.geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from dhtroutability.scalability import Verdict, classify
from dhtroutability.simulator import SimSeeds, estimate_routability

MASTER_SEED = 2026
SEEDS = SimSeeds(build=MASTER_SEED, fail=MASTER_SEED + 1, pair=MASTER_SEED + 2)

DESK_D = 12
DESK_TRIALS = 10
DESK_PAIRS = 2000
DESK_Q_GRID = tuple(round(0.05 * i, 10) for i in range(1, 11))  # 0.05 .. 0.5


def _finish(number, name, violations, elapsed, limit=None):
    if limit is not None and elapsed >= limit:
        violations.append(f"runtime {elapsed:.2f}s exceeded the {limit}s limit")
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {number:02d} ({name}): {status} [{elapsed:.2f}s]")
    assert not violations, f"criterion {number} ({name}): " + " | ".join(violations)


def test_criterion_01_identity_suite():
    started = time.perf_counter()
    violations = []
    for kind in ALL_GEOMETRIES:
        spec = GeometrySpec(kind, 10)
        for mode in DenominatorMode:
            value = routability(spec, 0.0, mode).routability
            if value != 1.0:
                violations.append(f"{kind.value} analytic({mode.value}) = {value} != 1")
        outcome = estimate_routability(spec, 0.0, 5, 1000, SEEDS)
        if outcome.routable_fraction != 1.0:
            violations.append(f"{kind.value} simulated = {outcome.routable_fraction} != 1")
    _finish(1, "identity at q=0", violations, time.perf_counter() - started, limit=10.0)


def test_criterion_02_closed_form_equivalence():
    started = time.perf_counter()
    violations = []
    q_grid = [round(0.05 * i, 10) for i in range(19)]  # 0 .. 0.9
    for d in (4, 8, 16, 20):
        for q in q_grid:
            expected = routability(GeometrySpec(Geometry.TREE, d), q).routability
            got = tree_closed_form(d, q)
            if expected == 0.0:
                ok = got == 0.0
            else:
                ok = abs(got - expected) / abs(expected) <= 1e-12
            if not ok:
                violations.append(f"d={d} q={q}: closed={got!r} pipeline={expected!r}")
    _finish(2, "tree closed form vs pipeline", violations, time.perf_counter() - started, limit=1.0)


def _greedy_hypercube_delivers(d, alive_bits, src, dst):
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


def test_criterion_03_hypercube_enumeration_oracle():
    started = time.perf_counter()
    violations = []
    for d in (2, 3, 4):
        n = 1 << d
        for h in range(1, d + 1):
            dst = (1 << h) - 1
            hist = [0] * n
            for pattern in range(1 << (n - 1)):
                alive_bits = (pattern << 1) | 1  # root node 0 always alive
                if _greedy_hypercube_delivers(d, alive_bits, 0, dst):
                    hist[(n - 1) - pattern.bit_count()] += 1
            for q in (0.1, 0.3, 0.5):
                oracle = math.fsum(
                    count * q**failed * (1 - q) ** (n - 1 - failed)
                    for failed, count in enumerate(hist)
                    if count
                )
                spec = GeometrySpec(Geometry.HYPERCUBE, d)
                analytic = float(success_series(spec, q, h)[-1])
                if abs(analytic - oracle) > 1e-10:
                    violations.append(
                        f"d={d} h={h} q={q}: analytic={analytic!r} oracle={oracle!r}"
                    )
    _finish(3, "hypercube exhaustive oracle", violations, time.perf_counter() - started, limit=30.0)


def test_criterion_04_desk_scale_tree_hypercube_xor():
    started = time.perf_counter()
    violations = []
    for kind in (Geometry.TREE, Geometry.HYPERCUBE, Geometry.XOR):
        spec = GeometrySpec(kind, DESK_D)
        for q in DESK_Q_GRID:
            sim = estimate_routability(spec, q, DESK_TRIALS, DESK_PAIRS, SEEDS)
            if sim.hop_cap_hits:
                violations.append(f"{kind.value} q={q}: {sim.hop_cap_hits} hop-cap hits")
            analytic = routability(spec, q).routability
            gap = abs(analytic - sim.routable_fraction)
            tolerance = max(0.02, 3.0 * sim.std_error)
            if gap > tolerance:
                violations.append(
                    f"{kind.value} q={q}: gap={gap:.4f} > tol={tolerance:.4f} "
                    f"(analytic={analytic:.4f} sim={sim.routable_fraction:.4f})"
                )
    _finish(4, "desk-scale agreement tree/hypercube/xor", violations,
            time.perf_counter() - started, limit=300.0)


def test_criterion_05_ring_lower_bound_direction():
    started = time.perf_counter()
    violations = []
    spec = GeometrySpec(Geometry.RING, DESK_D)
    for q in DESK_Q_GRID:
        sim = estimate_routability(spec, q, DESK_TRIALS, DESK_PAIRS, SEEDS)
        if sim.hop_cap_hits:
            violations.append(f"q={q}: {sim.hop_cap_hits} hop-cap hits")
        analytic = routability(spec, q)
        sim_failed = 1.0 - sim.routable_fraction
        if sim_failed > analytic.failed_fraction + 0.02:
            violations.append(
                f"q={q}: sim failed {sim_failed:.4f} > analytic failed "
                f"{analytic.failed_fraction:.4f} + 0.02"
            )
        gap = abs(analytic.routability - sim.routable_fraction)
        if q <= 0.2 and gap > 0.03:
            violations.append(f"q={q}: gap {gap:.4f} > 0.03 in the low-q band")
    _finish(5, "ring model is a lower bound", violations, time.perf_counter() - started)


def test_criterion_06_symphony_validation():
    started = time.perf_counter()
    violations = []
    spec = GeometrySpec(Geometry.SYMPHONY, DESK_D, k_n=1, k_s=1)
    for q in DESK_Q_GRID:
        sim = estimate_routability(spec, q, DESK_TRIALS, DESK_PAIRS, SEEDS)
        if sim.hop_cap_hits:
            violations.append(f"q={q}: {sim.hop_cap_hits} hop-cap hits")
        analytic = routability(spec, q).routability
        gap = abs(analytic - sim.routable_fraction)
        if gap > 0.05:
            violations.append(
                f"q={q}: gap={gap:.4f} > 0.05 "
                f"(analytic={analytic:.4f} sim={sim.routable_fraction:.4f})"
            )
    _finish(6, "symphony agreement", violations, time.perf_counter() - started)


def test_criterion_07_scalability_verdicts():
    started = time.perf_counter()
    violations = []
    expected = {
        Geometry.TREE: Verdict.UNSCALABLE,
        Geometry.HYPERCUBE: Verdict.SCALABLE,
        Geometry.XOR: Verdict.SCALABLE,
        Geometry.RING: Verdict.SCALABLE,
        Geometry.SYMPHONY: Verdict.UNSCALABLE,
    }
    for q in (0.05, 0.1, 0.3):
        for kind in ALL_GEOMETRIES:
            verdict = classify(GeometrySpec(kind, 16), q)
            if verdict.verdict is not expected[kind]:
                violations.append(f"{kind.value} at q={q}: {verdict.verdict.value}")
    _finish(7, "scalability verdicts", violations, time.perf_counter() - started, limit=1.0)


def test_criterion_08_asymptotic_curve_shape():
    started = time.perf_counter()
    violations = []
    step_q = [round(0.15 + 0.05 * i, 10) for i in range(16)]  # 0.15 .. 0.9
    for kind in (Geometry.TREE, Geometry.SYMPHONY):
        for q in step_q:
            failed = routability(GeometrySpec(kind, 100), q).failed_fraction
            if failed < 0.99:
                violations.append(f"{kind.value} d=100 q={q}: failed={failed:.4f} < 0.99")
    flat_q = [round(0.05 * i, 10) for i in range(7)]  # 0 .. 0.3
    for kind in (Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING):
        for q in flat_q:
            r100 = routability(GeometrySpec(kind, 100), q).routability
            r16 = routability(GeometrySpec(kind, 16), q).routability
            if abs(r100 - r16) >= 0.01:
                violations.append(
                    f"{kind.value} q={q}: |r(100)-r(16)| = {abs(r100 - r16):.4f} >= 0.01"
                )
    _finish(8, "d=100 curve shape", violations, time.perf_counter() - started)


def test_criterion_09_routability_versus_size():
    started = time.perf_counter()
    violations = []
    d_grid = (10, 20, 30, 40, 50, 60)
    q = 0.1
    for kind in (Geometry.TREE, Geometry.SYMPHONY):
        values = [routability(GeometrySpec(kind, d), q).routability for d in d_grid]
        if not all(a > b for a, b in zip(values, values[1:])):
            violations.append(f"{kind.value}: not strictly decreasing: {values}")
    for kind in (Geometry.HYPERCUBE, Geometry.XOR, Geometry.RING):
        r10 = routability(GeometrySpec(kind, 10), q).routability
        r60 = routability(GeometrySpec(kind, 60), q).routability
        if abs(r60 - r10) > 0.01:
            violations.append(f"{kind.value}: |r(60)-r(10)| = {abs(r60 - r10):.4f} > 0.01")
    _finish(9, "routability vs system size", violations, time.perf_counter() - started)


def test_criterion_10_byte_identical_reports(tmp_path):
    started = time.perf_counter()
    violations = []
    argv = [
        "compare",
        "--geometry", "tree,hypercube,xor",
        "--d", str(DESK_D),
        "--q-start", "0.05",
        "--q-stop", "0.5",
        "--q-step", "0.05",
        "--trials", str(DESK_TRIALS),
        "--pairs", str(DESK_PAIRS),
        "--seed", str(MASTER_SEED),
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    if main(argv + ["--out", str(first)]) != 0:
        violations.append("first run exited nonzero")
    if main(argv + ["--out", str(second)]) != 0:
        violations.append("second run exited nonzero")
    if not violations and first.read_bytes() != second.read_bytes():
        violations.append("reports differ between identical runs")
    _finish(10, "byte-identical determinism", violations, time.perf_counter() - started)
