"""Command-line harness: analytic sweeps, simulations, comparisons,
asymptotic curves and scalability reports as deterministic CSV/JSON.

Subcommands:

  analytic     analytic routability per (geometry, d, q)
  simulate     Monte Carlo routability per (geometry, d, q)
  compare      both, plus the absolute gap; --check gates exit status
  asymptotic   analytic routability per (geometry, d, q), d up to 100
  scalability  verdict per (geometry, d, q) with decade-horizon evidence

Every command takes --d as a comma list; rows run geometry by geometry,
each d in list order.  simulate and compare need every d and a symphony
kn of at most simulator.SIM_MAX_D.  Every usage error but a failed write
is reported before any row runs: --out is opened, and truncated, first.

Flags may also come from a flat key=value config file (--config): each
line is read as the flag --key=value, and flags given on the command line
override the file.  Exit codes: 0 success, 1 usage error, 2 tolerance
breach under --check.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import dataclass

from . import __version__
from .analytic import DenominatorMode, routability_sweep
from .geometry import ALL_GEOMETRIES, Geometry, GeometrySpec
from .reporting import COLUMNS, render
from .scalability import classify
from .simulator import SIM_MAX_D, SimSeeds, check_budget, check_scale, estimate_sweep

# Not called here since the grid runs sweeps, but kept importable:
# bench/tracing.py swaps these names for timed wrappers.
from .analytic import routability  # noqa: F401
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
        if self.seed < 0:
            raise UsageError("seed must be non-negative")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown format: {self.output_format}")
        for name, value in (("q-start", self.q_start), ("q-stop", self.q_stop)):
            if not 0.0 <= value <= Q_GRID_MAX:
                raise UsageError(f"{name} must lie in [0, {Q_GRID_MAX}], got {value}")
        self.q_grid()
        # The budget, each spec, and for a simulated run each spec's scale,
        # by the rules of the layers that will run them, before any row runs.
        try:
            check_budget(self.trials, self.pairs_per_trial)
            specs = self.specs()
            if self.command in ("simulate", "compare"):
                for spec in specs:
                    check_scale(spec)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

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

    def specs(self) -> tuple[GeometrySpec, ...]:
        """One spec per (geometry, d), in report order: geometry-major."""
        return tuple(GeometrySpec(kind, d, self.k_n, self.k_s)
                     for kind in self.geometries for d in self.d_values)

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


def _analytic_cells(res) -> dict:
    if isinstance(res, ValueError):
        raise res
    return {
        "analytic_routability": res.routability,
        "analytic_failed_fraction": res.failed_fraction,
    }


def _sim_cells(sim) -> dict:
    seeds = sim.seeds
    return {
        "sim_routability": sim.routable_fraction,
        "sim_std_error": sim.std_error,
        "hop_cap_hits": sim.hop_cap_hits,
        "seeds": f"{seeds.build}:{seeds.fail}:{seeds.pair}",
    }


def _verdict_cells(spec: GeometrySpec, q: float) -> dict:
    verdict = classify(spec, q)
    cells = {"verdict": verdict.verdict.value, "limit_estimate": verdict.limit_estimate}
    cells.update((f"sum_q_at_{h}", total) for h, total in verdict.partial_sums)
    cells.update((f"p_at_{h}", product) for h, product in verdict.partial_products)
    cells["decay_horizon"] = verdict.decay_horizon
    return cells


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


def run_grid(config: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """One row per (geometry, d, q), plus compare's tolerance breaches.

    A row gets analytic cells, then simulated cells, or a verdict, as its
    command asks.  The analytic cells read their row's entry from one
    routability_sweep over every spec and the whole q grid, the simulated
    cells from one estimate_sweep per (geometry, d).  A ValueError in an
    analytic entry or from classify, which hold per q, becomes the row's
    error and ends that row, and the grid continues.  Every other rule was checked
    when the config was built.
    """
    command = config.command
    analytic = command in ("analytic", "compare", "asymptotic")
    simulated = command in ("simulate", "compare")
    rows: list[dict] = []
    breaches: list[str] = []
    qs = config.q_grid()
    specs = config.specs()
    sweeps = (routability_sweep(specs, qs, config.denominator_mode) if analytic
              else [[None] * len(qs)] * len(specs))
    for spec, results in zip(specs, sweeps):
        sims = (estimate_sweep(spec, qs, config.trials, config.pairs_per_trial, config.seeds())
                if simulated else [None] * len(qs))
        for q, res, sim in zip(qs, results, sims):
            row = {"geometry": spec.kind.value, "d": spec.d, "n_nodes": spec.n_nodes, "q": q}
            rows.append(row)
            try:
                if analytic:
                    row.update(_analytic_cells(res))
                if simulated:
                    row.update(_sim_cells(sim))
                if command == "scalability":
                    row.update(_verdict_cells(spec, q))
            except ValueError as exc:
                row["error"] = str(exc)
                continue
            if command == "compare":
                analytic_r, sim_r = row["analytic_routability"], row["sim_routability"]
                row["abs_gap"] = abs(analytic_r - sim_r)
                reason = compare_tolerance_breach(spec.kind, analytic_r, sim_r,
                                                  row["sim_std_error"])
                if reason is not None:
                    breaches.append(f"{spec.kind.value} d={spec.d} q={q:.10g}: {reason}")
    return rows, breaches


def _parse_geometries(text: str) -> tuple[Geometry, ...]:
    names = [part.strip().lower() for part in text.split(",") if part.strip()]
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


def _config_flags(path: str) -> list[str]:
    """A flat key=value file as one --key=value flag per line.

    '#' starts a comment and blank lines are skipped; keys ignore case,
    and '_' stands for '-'.  A file may not name another config file:
    'config', or an abbreviation argparse would take for it, is an error.
    """
    flags: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got '{line}'")
                key, value = line.split("=", 1)
                key = key.strip().lower().replace("_", "-")
                if len(key) > 1 and "config".startswith(key):  # --c is ambiguous
                    raise UsageError(f"{path}:{lineno}: config files do not nest, got '{line}'")
                flags.append(f"--{key}={value.strip()}")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    return flags


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"invalid boolean value: '{text}'")


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
        # A flag left unset stays off the namespace, so ExperimentConfig's
        # field default applies.
        cmd = sub.add_parser(command, help=f"run the {command} report",
                             argument_default=argparse.SUPPRESS)
        cmd.set_defaults(**_GRID_DEFAULTS[command])
        cmd.add_argument("--config", help="flat key=value config file; flags override")
        cmd.add_argument("--geometry", default="all", help="comma-separated geometries, or 'all'")
        cmd.add_argument("--d", help="identifier lengths in bits, a comma list "
                         f"(simulate and compare: each <= {SIM_MAX_D})")
        cmd.add_argument("--q-start", type=float)
        cmd.add_argument("--q-stop", type=float)
        cmd.add_argument("--q-step", type=float)
        cmd.add_argument("--trials", type=int)
        cmd.add_argument("--pairs", type=int, dest="pairs_per_trial", metavar="PAIRS",
                         help="sampled pairs per trial")
        cmd.add_argument("--seed", type=int, help="master seed; build/fail/pair seeds derive from it")
        cmd.add_argument("--kn", type=int, dest="k_n", metavar="KN", help="symphony near neighbors")
        cmd.add_argument("--ks", type=int, dest="k_s", metavar="KS", help="symphony shortcuts")
        cmd.add_argument("--denominator", choices=["paper", "exact"])
        cmd.add_argument("--format", choices=["csv", "json"], dest="output_format")
        cmd.add_argument("--out", dest="out_path", metavar="OUT",
                         help="output path (default: stdout)")
        cmd.add_argument("--check", nargs="?", const=True, type=_boolean,
                         help="compare only: exit 2 when a tolerance is breached")
    return parser


def parse_experiment(argv: list[str]) -> ExperimentConfig:
    """The experiment an argv asks for.

    A --config file's lines are parsed as flags right after the command,
    ahead of argv's own flags; the last value of a flag wins, so explicit
    flags override the file.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError(f"expected a command: {', '.join(COMMANDS)}")
    if "config" in args:
        head = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:head], *_config_flags(args.config), *argv[head:]])
    options = vars(args)
    options.pop("config", None)
    if "denominator" in options:
        options["denominator_mode"] = DenominatorMode(options.pop("denominator"))
    return ExperimentConfig(
        geometries=_parse_geometries(options.pop("geometry")),
        d_values=_parse_d_list(options.pop("d")),
        **options,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_experiment(sys.argv[1:] if argv is None else argv)
        path = config.out_path
        try:
            # Opened, and so truncated, before the grid runs, as a shell
            # redirection would be: open() itself judges the path.
            with (open(path, "w", encoding="utf-8", newline="") if path
                  else contextlib.nullcontext(sys.stdout)) as handle:
                rows, breaches = run_grid(config)
                handle.write(render(config.output_format, config.metadata(),
                                    COLUMNS[config.command], rows))
        except OSError as exc:
            if not path:
                raise  # stdout's own errors propagate
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    except UsageError as exc:
        print(f"dht-routability: error: {exc}", file=sys.stderr)
        return 1
    if config.check and config.command == "compare" and breaches:
        for breach in breaches:
            print(f"dht-routability: tolerance breach: {breach}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
