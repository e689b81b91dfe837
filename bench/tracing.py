"""Span tracing at the package's layer boundaries, from outside the package.

``traced(tracer)`` swaps the public functions the CLI calls for timed
wrappers and restores them on exit; ``estimate_routability`` receives a
timed ``build_overlay`` through its public ``builder=`` argument.  Spans
(name, start, end, parent, attributes) stay in memory; self times are
computed from them after the run.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from dhtroutability import cli, simulator
from reference import GEOMETRIES


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """fn with a span around every call; attrs(args, result) -> dict."""

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return wrapper


def _geometry(args, result):
    return {"geometry": args[0].kind.value}


def _overlay_attrs(args, overlay):
    size = overlay.targets.nbytes + (0 if overlay.offsets is None else overlay.offsets.nbytes)
    return {"geometry": args[0].kind.value, "bytes": size}


def _outcome_attrs(args, outcome):
    routes = outcome.trials * outcome.pairs_per_trial
    return {
        "geometry": outcome.spec.kind.value,
        "routes": routes,
        # trial_fractions are delivered / pairs_per_trial, so this is exact.
        "delivered": sum(round(f * outcome.pairs_per_trial) for f in outcome.trial_fractions),
        "hop_cap_hits": outcome.hop_cap_hits,
        "redrawn_patterns": outcome.redrawn_patterns,
    }


def _render_attrs(args, text):
    return {"rows": len(args[3]), "bytes": len(text.encode("utf-8"))}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the CLI's layer calls through tracer for the duration."""
    build = tracer.wrap("simulator.build_overlay", simulator.build_overlay, _overlay_attrs)
    estimate = simulator.estimate_routability

    def estimate_with_timed_build(*args, **kwargs):
        return estimate(*args, builder=build, **kwargs)

    patches = [
        (cli, "estimate_routability",
         tracer.wrap("simulator.estimate_routability", estimate_with_timed_build, _outcome_attrs)),
        (simulator, "draw_failure_pattern",
         tracer.wrap("simulator.draw_failure_pattern", simulator.draw_failure_pattern)),
        (cli, "routability", tracer.wrap("analytic.routability", cli.routability)),
        (cli, "classify", tracer.wrap("scalability.classify", cli.classify, _geometry)),
        (cli, "render", tracer.wrap("reporting.render", cli.render, _render_attrs)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer calls, self times and counts from one traced repetition.

    Self time is a span's duration minus the durations of its direct
    children.  Layers the repetition never entered report 0.
    trace.coverage is the share of wall_s the layers' self times cover.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, start, end, _, attrs) in enumerate(spans):
        own = end - start - child_time[i]
        calls[name] += 1
        self_s[name] += own
        attrs = attrs or {}
        geometry = attrs.get("geometry")
        if geometry is not None:
            self_s[f"{name}|{geometry}"] += own
        for key, value in attrs.items():
            if key == "geometry":
                continue
            counts[f"{name}.{key}"] += value
            if geometry is not None:
                counts[f"{name}.{key}|{geometry}"] += value

    m: dict[str, float] = {"cli.self_s": self_s["cli.main"]}
    for layer in ("simulator.estimate_routability", "simulator.build_overlay",
                  "simulator.draw_failure_pattern", "analytic.routability",
                  "scalability.classify", "reporting.render"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["simulator.build_overlay.bytes"] = counts["simulator.build_overlay.bytes"]
    m["reporting.render.rows"] = counts["reporting.render.rows"]
    m["reporting.render.bytes"] = counts["reporting.render.bytes"]
    est = "simulator.estimate_routability"
    for g in GEOMETRIES:
        routes = counts[f"{est}.routes|{g}"]
        m[f"simulator.us_per_route.{g}"] = 1e6 * self_s[f"{est}|{g}"] / routes if routes else 0.0
        m[f"simulator.build_overlay.self_s.{g}"] = self_s[f"simulator.build_overlay|{g}"]
        m[f"scalability.classify.self_s.{g}"] = self_s[f"scalability.classify|{g}"]
        for key in ("routes", "delivered", "hop_cap_hits", "redrawn_patterns"):
            m[f"simulator.{key}.{g}"] = counts[f"{est}.{key}|{g}"]
    m["trace.spans"] = len(spans)
    m["trace.coverage"] = sum(v for k, v in self_s.items() if "|" not in k) / wall_s
    return m
