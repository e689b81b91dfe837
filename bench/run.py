"""Benchmark of the dhtroutability command line: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sim-d12-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One run is one fresh interpreter and one thread driving a closed loop: the
workload's CLI invocations run in order, in-process, through ``cli.main``,
and the whole pass repeats until another pass would overrun ``--seconds``.
Times are rescaled to a reference host speed (see ``calibration.py``) and
reported as medians over passes.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  After the timed loop the reports are checked
against independent references (see ``reference.py``) and, on simulator
workloads, ``route()`` is checked against a scalar reference router on a
seeded sample of surviving pairs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment,
every invocation's time, result fingerprints, check failures and, for
traced runs, the spans) is written under ``.bench_out/``.  The exit status
is 0 when every operation passed its checks, 1 when one failed, and 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import HostClock, WallClock
from reference import (
    GEOMETRIES,
    reference_partial_product,
    reference_route,
    reference_routability,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT_DIR = ROOT / ".bench_out"

ASYMPTOTIC_D = "10,20,30,40,50,60,70,80,90,100"

# Each workload is a list of CLI argument vectors built from the seed.  The
# simulator workloads run one invocation per geometry: each still sweeps its
# whole q grid, and the rows are those of `--geometry all`.
WORKLOADS = {
    # The default compare grid (11 q points x 10 trials x 2,000 pairs x 5
    # geometries = 1.1 M routes): dominated by the Python routing loops,
    # and each trial's identical overlay is rebuilt for every q point.
    "sim-d12-sweep": lambda seed: [
        ["compare", "--geometry", g, "--d", "12", "--seed", str(seed)] for g in GEOMETRIES
    ],
    # One q point at d = 20 (20 k routes): dominated by overlay build and
    # its memory, with nothing to share across q.
    "sim-d20-build": lambda seed: [
        ["simulate", "--geometry", g, "--d", "20", "--trials", "2",
         "--q-start", "0.1", "--q-stop", "0.1", "--seed", str(seed)] for g in GEOMETRIES
    ],
    # Analytic routability and scalability only; never enters the
    # simulator.  Its grid is fixed, so the seed does not change it.
    "analytic-sweep": lambda seed: [
        ["asymptotic", "--geometry", "all", "--d", ASYMPTOTIC_D,
         "--q-start", "0", "--q-stop", "0.95", "--q-step", "0.005"],
        ["scalability", "--q-start", "0.005", "--q-stop", "0.95", "--q-step", "0.005"],
    ],
}

# Rows per invocation.
EXPECTED_ROWS = {"compare": 11, "simulate": 1, "asymptotic": 9550, "scalability": 950}
UNSCALABLE = ("tree", "symphony")

# Agreement bound for the tree and hypercube compare rows.  The CLI's own
# max(0.02, 3 * std_error) is a per-row 3-sigma rule: over 25 seeds the gap
# had no bias (|mean| <= 0.0014) but a spread up to 0.0073, and seed 13
# breached it (hypercube q = 0.5, gap 0.0213), so 22 rows a run would fail
# a few percent of seeds by chance.  Near 5 sigma, a correct program fails
# about one run in 10^4, and a router or sampling defect still shows.
COMPARE_FLOOR = 0.035
COMPARE_SIGMAS = 5.0

SETUP_SAMPLES = 9
CHECK_QS = (0.1, 0.3)
CHECK_PAIRS = 200

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if "self_s" in name or name in ("trace.wall_s", "trace.overhead_s"):
        return "s"
    if name.startswith("simulator.us_per_route."):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name == "trace.coverage":
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# Set-up and invocation


def time_setup() -> list[float]:
    """Normalised import time of dhtroutability.cli in fresh interpreters.

    One untimed import first writes the bytecode cache, as an installed
    package would already have it.
    """
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r})\n"
            "from calibration import HostClock\n"
            "with HostClock() as clock:\n"
            "    import dhtroutability.cli\n"
            "print(clock.normalised)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            samples.append(float(out.stdout.strip()))
    return samples


def invoke(main, argv: list[str]):
    """(exit code, report text, error) of one in-process CLI invocation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        return exc.code, buf.getvalue(), f"SystemExit({exc.code})"
    except Exception as exc:  # a crashed invocation is a failed operation
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), None


def run_rep(main, invocations, clock=HostClock):
    """One pass over the workload.

    Returns (normalised seconds, seconds, exit code, report, error) for each
    invocation.  Normalised seconds are at the reference host speed (see
    calibration.py).
    """
    results = []
    for argv in invocations:
        with clock() as timer:
            code, text, error = invoke(main, argv)
        results.append((timer.normalised, timer.seconds, code, text, error))
    return results


# --------------------------------------------------------------------------
# Correctness


def parse_report(text: str):
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _close(got: float, want: float) -> bool:
    # Reports print 10 significant digits.
    return math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12)


def check_report(meta: dict, rows: list[dict]) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    command = meta.get("command")
    if command not in EXPECTED_ROWS:
        return [f"unexpected report command {command!r}"]
    problems = []
    if len(rows) != EXPECTED_ROWS[command]:
        problems.append(f"{command}: {len(rows)} rows, expected {EXPECTED_ROWS[command]}")
    for row in rows:
        where = f"{command} {row['geometry']} d={row['d']} q={row['q']}"
        if row["error"]:
            problems.append(f"{where}: {row['error']}")
            continue
        kind, d, q = row["geometry"], int(row["d"]), float(row["q"])
        if command in ("compare", "simulate"):
            sim = float(row["sim_routability"])
            if not 0.0 <= sim <= 1.0:
                problems.append(f"{where}: sim_routability {sim} outside [0, 1]")
        if command == "compare" and kind in ("tree", "hypercube"):
            gap = abs(float(row["analytic_routability"]) - float(row["sim_routability"]))
            slack = max(COMPARE_FLOOR, COMPARE_SIGMAS * float(row["sim_std_error"]))
            if gap > slack:
                problems.append(f"{where}: gap {gap:.4g} exceeds {slack:.4g}")
        if command == "asymptotic":
            got = float(row["analytic_routability"])
            if not 0.0 <= got <= 1.0:
                problems.append(f"{where}: routability {got} outside [0, 1]")
            if kind in ("tree", "hypercube"):
                want = reference_routability(kind, d, q)
                if not _close(got, want):
                    problems.append(f"{where}: routability {got!r}, reference {want!r}")
        if command == "scalability":
            want_verdict = "unscalable" if kind in UNSCALABLE else "scalable"
            if row["verdict"] != want_verdict:
                problems.append(f"{where}: verdict {row['verdict']}, expected {want_verdict}")
            if kind in ("tree", "hypercube"):
                for h in (10, 100):
                    got = float(row[f"p_at_{h}"])
                    want = reference_partial_product(kind, q, h)
                    if not _close(got, want):
                        problems.append(f"{where}: p_at_{h} {got!r}, reference {want!r}")
    return problems


def differential_check(d: int, seed: int) -> dict:
    """route() against the scalar reference router on seeded surviving pairs."""
    import numpy as np

    from dhtroutability import ALL_GEOMETRIES, GeometrySpec, build_overlay, draw_failure_pattern, route

    rng = np.random.default_rng([seed, d])
    checks = mismatches = hops = 0
    examples = []
    for kind in ALL_GEOMETRIES:
        spec = GeometrySpec(kind, d)
        overlay = build_overlay(spec, int(rng.integers(2**62)))
        for q in CHECK_QS:
            pattern = draw_failure_pattern(spec.n_nodes, q, int(rng.integers(2**62)))
            survivors = np.flatnonzero(pattern.alive)
            for _ in range(CHECK_PAIRS):
                i = int(rng.integers(survivors.size))
                j = int(rng.integers(survivors.size - 1))
                src, dst = int(survivors[i]), int(survivors[j + (j >= i)])
                got = route(overlay, pattern, src, dst)
                want = reference_route(kind.value, overlay.targets, overlay.offsets,
                                       pattern.alive, src, dst)
                checks += 1
                hops += got.hops
                if (got.delivered, got.hops) != want:
                    mismatches += 1
                    if len(examples) < 5:
                        examples.append(f"{kind.value} q={q} {src}->{dst}: "
                                        f"route {(got.delivered, got.hops)}, reference {want}")
    return {"checks": checks, "mismatches": mismatches, "hop_total": hops, "examples": examples}


def add_fingerprint(fingerprints: dict, meta: dict, rows: list[dict], text: str) -> None:
    """Record the report's sha256 and its delivered/attempted per geometry."""
    key = f"{meta['command']} {meta['geometry']}"
    fingerprints.setdefault("sha256", {})[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if meta["command"] not in ("compare", "simulate"):
        return
    per_trial = int(meta["trials"]) * int(meta["pairs"])
    for row in rows:
        if row["error"]:
            continue
        tally = fingerprints.setdefault("delivered_attempted", {}).setdefault(row["geometry"], [0, 0])
        tally[0] += round(float(row["sim_routability"]) * per_trial)
        tally[1] += per_trial
        if "hop_cap_hits" in row:
            hits = fingerprints.setdefault("hop_cap_hits", {})
            hits[row["geometry"]] = hits.get(row["geometry"], 0) + int(row["hop_cap_hits"])


def work_units(meta: dict, rows: list[dict]) -> int:
    """Routes simulated, or analytic evaluations, behind one report."""
    if meta.get("command") in ("compare", "simulate"):
        return len(rows) * int(meta["trials"]) * int(meta["pairs"])
    return len(rows)


# --------------------------------------------------------------------------
# One workload


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "dhtroutability" / "cli.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    setup_samples = [] if trace else time_setup()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from dhtroutability import cli
    import_s = time.perf_counter() - start

    if trace:
        from tracing import Tracer, layer_metrics, traced

    invocations = WORKLOADS[name](seed)
    ledger = Ledger()
    plain, plain_raw, traced_passes, layer_runs, spans = [], [], [], [], []
    first_texts, content_problems = None, None
    loop_start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        results = run_rep(cli.main, invocations)
        plain.append([r[0] for r in results])
        plain_raw.append([r[1] for r in results])
        if trace:
            tracer = Tracer()
            with traced(tracer):
                results_t = run_rep(tracer.wrap("cli.main", cli.main), invocations, WallClock)
            traced_passes.append([r[0] for r in results_t])
            layer_runs.append(layer_metrics(tracer.spans, sum(r[1] for r in results_t)))
            spans.append(tracer.spans)
            results = results + results_t
        if first_texts is None:
            # Later repetitions are compared byte for byte with the first,
            # whose reports are checked against the references.
            first_texts = [r[3] for r in results[: len(invocations)]]
            content_problems = [check_report(*parse_report(text)) for text in first_texts]
        for k, (_, _, code, text, error) in enumerate(results):
            i = k % len(invocations)
            problems = [error] if error else []
            if code != 0:
                problems.append(f"{invocations[i][0]} exited {code}")
            if text != first_texts[i]:
                problems.append(f"{invocations[i][0]} report differs between repetitions")
            if k == i and len(plain) == 1:
                problems += content_problems[i]
            ledger.record(problems)
        now = time.perf_counter()
        if now - loop_start + (now - rep_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fingerprints, units = {}, 0
    for text in first_texts:
        meta, rows = parse_report(text)
        if "command" not in meta:  # a failed invocation, already counted
            continue
        add_fingerprint(fingerprints, meta, rows, text)
        units += work_units(meta, rows)

    sim_d = next((int(a[a.index("--d") + 1]) for a in invocations
                  if a[0] in ("compare", "simulate")), None)
    diff = {"checks": 0, "mismatches": 0, "hop_total": 0, "examples": []}
    if sim_d is not None:
        diff = differential_check(sim_d, seed)
        ledger.attempted += diff["checks"]
        ledger.failed += diff["mismatches"]
        ledger.problems.extend(diff["examples"])
    fingerprints["reference_sample"] = {k: diff[k] for k in ("checks", "mismatches", "hop_total")}

    wall_s = statistics.median(sum(p) for p in plain)
    if trace:
        # Per-layer figures come from the fastest traced pass, so that they
        # stay consistent with each other and with trace.wall_s.  Traced
        # passes are not rescaled (see WallClock), so the overhead compares
        # raw wall times of the fastest passes.
        fastest = min(range(len(traced_passes)), key=lambda r: sum(traced_passes[r]))
        metrics = layer_runs[fastest]
        metrics["trace.wall_s"] = sum(traced_passes[fastest])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - min(sum(p) for p in plain_raw)
        metrics["simulator.reference_checks"] = diff["checks"]
        metrics["simulator.reference_mismatches"] = diff["mismatches"]
        units_of = per_layer_unit
        fingerprints["outcomes"] = {
            key: value for key, value in metrics.items()
            if key.split(".")[1] in ("routes", "delivered", "hop_cap_hits", "redrawn_patterns")
        }
    else:
        metrics = {
            "wall_s": wall_s,
            "work_per_s": units / wall_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units_of = END_TO_END_UNITS.__getitem__

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "invocations": invocations,
        "repetitions": len(plain), "normalised_invocation_s": plain,
        "invocation_s": plain_raw, "traced_invocation_s": traced_passes,
        "raw_median_pass_s": statistics.median(sum(p) for p in plain_raw),
        "import_s": import_s, "setup_samples_s": setup_samples, "work_units": units,
        "peak_rss_mb": peak_rss_mb, "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_ops_ratio": ledger.failed / ledger.attempted, "problems": ledger.problems,
        "fingerprints": fingerprints, "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# {name} seed={seed} repetitions={len(plain)} "
          f"failed_ops_ratio={ledger.failed}/{ledger.attempted}")
    for problem in ledger.problems:
        print(f"# problem: {problem}")
    for key, value in metrics.items():
        print(f"# {key} = {value:.6g} {units_of(key)}")
    print("# fingerprints " + json.dumps(fingerprints, sort_keys=True))
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": units_of(key)} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


def environment() -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "src_lines": src_lines,
    }


# --------------------------------------------------------------------------
# Every workload


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            print("\n".join(line for line in lines if line.startswith("# problem")))
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
