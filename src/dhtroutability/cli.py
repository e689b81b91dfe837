"""Command-line harness: analytic sweeps, simulations, comparisons,
asymptotic curves and scalability reports as deterministic CSV/JSON.

Subcommands:

  analytic     analytic routability per (geometry, q)
  simulate     Monte Carlo routability per (geometry, q)
  compare      both, plus the absolute gap; --check gates exit status
  asymptotic   analytic routability per (geometry, d, q), d up to 100
  scalability  verdict per (geometry, q) with decade-horizon evidence

Flags may also come from a flat key=value config file (--config); flags
given on the command line override the file.  Exit codes: 0 success,
1 usage error, 2 tolerance breach under --check.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import __version__
from .analytic import DenominatorMode, routability
from .geometry import ALL_GEOMETRIES, MAX_D, Geometry, GeometrySpec
from .reporting import COLUMNS, render
from .scalability import classify
from .simulator import (
    MAX_PAIRS_PER_TRIAL,
    MAX_ROUTES,
    MAX_TRIALS,
    SIM_MAX_D,
    SimOutcome,
    SimSeeds,
    estimate_sweep,
)

# Not called here since the grid runs one estimate_sweep per geometry, but
# kept importable: bench/tracing.py swaps this name for a timed wrapper.
from .simulator import estimate_routability  # noqa: F401

COMMANDS = ("analytic", "simulate", "compare", "asymptotic", "scalability")

#: q values accepted by experiment grids.
Q_GRID_MAX = 0.95

#: Largest q grid an experiment may request.
Q_GRID_MAX_POINTS = 10_000

_GRID_DEFAULTS = {
    "analytic": {"d": "16", "q_start": 0.0, "q_stop": 0.5, "q_step": 0.05},
    "simulate": {"d": "12", "q_start": 0.0, "q_stop": 0.5, "q_step": 0.05},
    "compare": {"d": "12", "q_start": 0.0, "q_stop": 0.5, "q_step": 0.05},
    "asymptotic": {
        "d": "10,20,30,40,50,60,70,80,90,100",
        "q_start": 0.1,
        "q_stop": 0.1,
        "q_step": 0.05,
    },
    "scalability": {"d": "16", "q_start": 0.05, "q_stop": 0.3, "q_step": 0.05},
}


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: command, grids, sampling budget, seeds, output."""

    command: str
    geometries: tuple[Geometry, ...]
    d_values: tuple[int, ...]
    q_start: float
    q_stop: float
    q_step: float
    trials: int = 10
    pairs_per_trial: int = 2000
    seed: int = 1
    k_n: int = 1
    k_s: int = 1
    denominator_mode: DenominatorMode = DenominatorMode.PN_MINUS_ONE
    output_format: str = "csv"
    out_path: str | None = None
    check: bool = False

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command: {self.command}")
        if not self.geometries:
            raise UsageError("at least one geometry is required")
        if not self.d_values:
            raise UsageError("at least one d value is required")
        if not all(1 <= d <= MAX_D for d in self.d_values):
            raise UsageError(f"d values must lie in [1, {MAX_D}]")
        if self.trials < 1 or self.pairs_per_trial < 1:
            raise UsageError("trials and pairs must be >= 1")
        if self.pairs_per_trial > MAX_PAIRS_PER_TRIAL:
            raise UsageError(f"pairs must be <= {MAX_PAIRS_PER_TRIAL}")
        if self.trials > MAX_TRIALS:
            raise UsageError(f"trials must be <= {MAX_TRIALS}")
        if self.trials * self.pairs_per_trial > MAX_ROUTES:
            raise UsageError(f"trials x pairs must be <= {MAX_ROUTES}")
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if self.k_n < 1 or self.k_s < 1:
            raise UsageError("kn and ks must be >= 1")
        if self.command in ("simulate", "compare") and self.k_n > SIM_MAX_D:
            # Each near link is an N-entry column of the simulated overlay.
            raise UsageError(f"{self.command} requires kn <= {SIM_MAX_D}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown format: {self.output_format}")
        for name, value in (("q-start", self.q_start), ("q-stop", self.q_stop)):
            if not 0.0 <= value <= Q_GRID_MAX:
                raise UsageError(f"{name} must lie in [0, {Q_GRID_MAX}], got {value}")
        self.q_grid()

    def q_grid(self) -> tuple[float, ...]:
        if self.q_stop < self.q_start:
            raise UsageError("q-stop must be >= q-start")
        if not self.q_step > 0:
            raise UsageError("q-step must be > 0")
        steps = (self.q_stop - self.q_start) / self.q_step + 1e-9
        if not steps < Q_GRID_MAX_POINTS:
            raise UsageError(f"q grid must have at most {Q_GRID_MAX_POINTS} points")
        count = int(steps) + 1
        return tuple(round(self.q_start + i * self.q_step, 10) for i in range(count))

    def seeds(self) -> SimSeeds:
        return SimSeeds(build=self.seed, fail=self.seed + 1, pair=self.seed + 2)

    def spec_for(self, kind: Geometry, d: int) -> GeometrySpec:
        try:
            return GeometrySpec(kind=kind, d=d, k_n=self.k_n, k_s=self.k_s)
        except ValueError as exc:  # symphony's k_s > d
            raise UsageError(str(exc)) from None

    def metadata(self) -> dict:
        seeds = self.seeds()
        meta = {
            "tool": "dht-routability",
            "version": __version__,
            "command": self.command,
            "geometry": ",".join(g.value for g in self.geometries),
            "d": ",".join(str(d) for d in self.d_values),
            "q_start": self.q_start,
            "q_stop": self.q_stop,
            "q_step": self.q_step,
            "trials": self.trials,
            "pairs": self.pairs_per_trial,
            "seed": self.seed,
            "build_seed": seeds.build,
            "fail_seed": seeds.fail,
            "pair_seed": seeds.pair,
            "kn": self.k_n,
            "ks": self.k_s,
            "denominator": self.denominator_mode.value,
            "format": self.output_format,
            "check": self.check,
        }
        if self.command == "scalability":
            # Verdicts are stated for any 0 < q < 1; no percolation-style
            # upper cutoff on meaningful q is computed.
            meta["note"] = "verdicts hold for 0 < q < 1; no percolation cutoff applied"
        return meta


def _analytic_cells(config: ExperimentConfig, spec: GeometrySpec, q: float, sim) -> dict:
    res = routability(spec, q, config.denominator_mode)
    return {
        "analytic_routability": res.routability,
        "analytic_failed_fraction": res.failed_fraction,
    }


def _sim_cells(config: ExperimentConfig, spec: GeometrySpec, q: float, sim) -> dict:
    if isinstance(sim, ValueError):
        raise sim
    seeds = sim.seeds
    return {
        "sim_routability": sim.routable_fraction,
        "sim_std_error": sim.std_error,
        "hop_cap_hits": sim.hop_cap_hits,
        "seeds": f"{seeds.build}:{seeds.fail}:{seeds.pair}",
    }


def _verdict_cells(config: ExperimentConfig, spec: GeometrySpec, q: float, sim) -> dict:
    verdict = classify(spec, q)
    cells = {"verdict": verdict.verdict.value, "limit_estimate": verdict.limit_estimate}
    cells.update((f"sum_q_at_{h}", total) for h, total in verdict.partial_sums)
    cells.update((f"p_at_{h}", product) for h, product in verdict.partial_products)
    cells["decay_horizon"] = verdict.decay_horizon
    return cells


#: The stages that fill one row of each command, in order.  Each takes the
#: row's (config, spec, q, sim), sim being the row's simulated outcome (or
#: the error its sweep raised) for simulate and compare, None otherwise.
_STAGES = {
    "analytic": (_analytic_cells,),
    "simulate": (_sim_cells,),
    "compare": (_analytic_cells, _sim_cells),
    "asymptotic": (_analytic_cells,),
    "scalability": (_verdict_cells,),
}


def compare_tolerance_breach(
    kind: Geometry, analytic_r: float, sim_r: float, sim_se: float
) -> str | None:
    """Reason string when a compare row violates its agreement bound.

    tree/hypercube/xor must match within max(0.02, 3*std_error); the ring
    model is a lower bound on simulated routability, checked with the
    same slack; symphony gets a flat 0.05 (its per-phase model embeds the
    wasted-hop cap approximation).
    """
    gap = abs(analytic_r - sim_r)
    slack = max(0.02, 3.0 * sim_se)
    if kind is Geometry.RING:
        if sim_r < analytic_r - slack:
            return f"sim routability {sim_r:.6g} below analytic lower bound {analytic_r:.6g} - {slack:.3g}"
        return None
    if kind is Geometry.SYMPHONY:
        if gap > 0.05:
            return f"gap {gap:.6g} exceeds 0.05"
        return None
    if gap > slack:
        return f"gap {gap:.6g} exceeds max(0.02, 3*std_error) = {slack:.6g}"
    return None


def _simulate(config: ExperimentConfig, spec: GeometrySpec, qs) -> list[SimOutcome | ValueError]:
    """One simulated outcome per q from a single sweep, or its error for each q."""
    try:
        return list(estimate_sweep(spec, qs, config.trials, config.pairs_per_trial, config.seeds()))
    except ValueError as exc:
        return [exc] * len(qs)


def run_grid(config: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """One row per (geometry, d, q), plus compare's tolerance breaches.

    Each row runs its command's stages in order; a stage's ValueError
    goes into the row's error and ends that row, and the grid continues.
    simulate and compare run one estimate_sweep over the whole q grid per
    (geometry, d); a ValueError from it becomes the error of each of its
    rows that reaches the simulate stage.
    """
    command = config.command
    if command != "asymptotic" and len(config.d_values) != 1:
        raise UsageError(f"command '{command}' takes exactly one d value")
    if command in ("simulate", "compare") and config.d_values[0] > SIM_MAX_D:
        noun = "simulation" if command == "simulate" else "comparison"
        raise UsageError(f"{noun} requires d <= {SIM_MAX_D}")
    rows: list[dict] = []
    breaches: list[str] = []
    qs = config.q_grid()
    for kind in config.geometries:
        for d in config.d_values:
            spec = config.spec_for(kind, d)
            simulated = _sim_cells in _STAGES[command]
            sims = _simulate(config, spec, qs) if simulated else [None] * len(qs)
            for q, sim in zip(qs, sims):
                row = {"geometry": kind.value, "d": d, "n_nodes": spec.n_nodes, "q": q}
                rows.append(row)
                try:
                    for stage in _STAGES[command]:
                        row.update(stage(config, spec, q, sim))
                except ValueError as exc:
                    row["error"] = str(exc)
                    continue
                if command == "compare":
                    analytic_r, sim_r = row["analytic_routability"], row["sim_routability"]
                    row["abs_gap"] = abs(analytic_r - sim_r)
                    reason = compare_tolerance_breach(kind, analytic_r, sim_r, row["sim_std_error"])
                    if reason is not None:
                        breaches.append(f"{kind.value} d={d} q={q:.10g}: {reason}")
    return rows, breaches


def _parse_geometries(text: str) -> tuple[Geometry, ...]:
    names = [part.strip().lower() for part in text.split(",") if part.strip()]
    if not names:
        raise UsageError("empty geometry list")
    if names == ["all"]:
        return ALL_GEOMETRIES
    try:
        return tuple(Geometry(name) for name in names)
    except ValueError:
        valid = ", ".join(g.value for g in ALL_GEOMETRIES)
        raise UsageError(f"unknown geometry in '{text}' (valid: {valid}, or 'all')")


def _parse_d_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"invalid d list: '{text}'")


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value settings; '#' starts a comment, blank lines skipped."""
    settings: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got '{line}'")
                key, value = line.split("=", 1)
                settings[key.strip().lower().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return settings


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with status 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dht-routability",
        description="Routability of DHT routing geometries under random node failure.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command in COMMANDS:
        cmd = sub.add_parser(command, help=f"run the {command} report")
        cmd.add_argument("--config", help="flat key=value config file; flags override")
        cmd.add_argument("--geometry", help="comma-separated geometries, or 'all'")
        cmd.add_argument("--d", help="identifier length in bits (comma list for asymptotic)")
        cmd.add_argument("--q-start", type=float, dest="q_start")
        cmd.add_argument("--q-stop", type=float, dest="q_stop")
        cmd.add_argument("--q-step", type=float, dest="q_step")
        cmd.add_argument("--trials", type=int)
        cmd.add_argument("--pairs", type=int, help="sampled pairs per trial")
        cmd.add_argument("--seed", type=int, help="master seed; build/fail/pair seeds derive from it")
        cmd.add_argument("--kn", type=int, help="symphony near neighbors")
        cmd.add_argument("--ks", type=int, help="symphony shortcuts")
        cmd.add_argument("--denominator", choices=["paper", "exact"])
        cmd.add_argument("--format", choices=["csv", "json"], dest="fmt")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--check", action="store_true", default=None,
                         help="compare only: exit 2 when a tolerance is breached")
    return parser


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, value: str):
    try:
        if key in ("q_start", "q_stop", "q_step"):
            return float(value)
        if key in ("trials", "pairs", "seed", "kn", "ks"):
            return int(value)
        if key == "check":
            lowered = value.lower()
            if lowered in _BOOL_TRUE:
                return True
            if lowered in _BOOL_FALSE:
                return False
            raise ValueError(value)
        return value
    except ValueError:
        raise UsageError(f"invalid value for {key}: '{value}'")


def build_experiment_config(command: str, options: dict) -> ExperimentConfig:
    """Merge CLI options, config-file settings and per-command defaults."""
    merged: dict = {}
    file_settings = {}
    if options.get("config"):
        file_settings = load_config_file(options["config"])
    keys = ("geometry", "d", "q_start", "q_stop", "q_step", "trials", "pairs",
            "seed", "kn", "ks", "denominator", "fmt", "out", "check")
    for key in keys:
        cli_value = options.get(key)
        if cli_value is not None:
            merged[key] = cli_value
            continue
        file_key = "format" if key == "fmt" else key
        if file_key in file_settings:
            merged[key] = _coerce(key, file_settings[file_key])
    defaults = _GRID_DEFAULTS[command]
    geometry = merged.get("geometry", "all")
    d_text = str(merged.get("d", defaults["d"]))
    return ExperimentConfig(
        command=command,
        geometries=_parse_geometries(str(geometry)),
        d_values=_parse_d_list(d_text),
        q_start=float(merged.get("q_start", defaults["q_start"])),
        q_stop=float(merged.get("q_stop", defaults["q_stop"])),
        q_step=float(merged.get("q_step", defaults["q_step"])),
        trials=int(merged.get("trials", 10)),
        pairs_per_trial=int(merged.get("pairs", 2000)),
        seed=int(merged.get("seed", 1)),
        k_n=int(merged.get("kn", 1)),
        k_s=int(merged.get("ks", 1)),
        denominator_mode=DenominatorMode(merged.get("denominator", "paper")),
        output_format=str(merged.get("fmt", "csv")),
        out_path=merged.get("out"),
        check=bool(merged.get("check", False)),
    )


def run_experiment(config: ExperimentConfig) -> tuple[str, list[str]]:
    """Rendered report text plus any --check breach messages."""
    rows, breaches = run_grid(config)
    text = render(config.output_format, config.metadata(), COLUMNS[config.command], rows)
    return text, breaches


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = build_experiment_config(args.command, vars(args))
        text, breaches = run_experiment(config)
    except UsageError as exc:
        print(f"dht-routability: error: {exc}", file=sys.stderr)
        return 1
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if config.check and config.command == "compare" and breaches:
        for breach in breaches:
            print(f"dht-routability: tolerance breach: {breach}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
