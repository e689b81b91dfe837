"""Deterministic CSV/JSON rendering for experiment reports.

CSV output is RFC-4180-style: comma-separated, one header row, LF line
endings, reals printed with 10 significant digits, missing values as
empty fields.  A metadata block (tool version, full config echo, seeds,
denominator mode) precedes the table as '# key=value' comment lines; the
JSON format carries the same block as a "metadata" object.  Identical
configs and seeds therefore produce byte-identical files.
"""

from __future__ import annotations

import json

_ANALYTIC_COLUMNS = (
    "geometry",
    "d",
    "n_nodes",
    "q",
    "analytic_routability",
    "analytic_failed_fraction",
    "error",
)

#: Fixed column set per command; order is part of the output contract.
COLUMNS: dict[str, tuple[str, ...]] = {
    "analytic": _ANALYTIC_COLUMNS,
    "simulate": (
        "geometry",
        "d",
        "n_nodes",
        "q",
        "sim_routability",
        "sim_std_error",
        "hop_cap_hits",
        "seeds",
        "error",
    ),
    "compare": (
        "geometry",
        "d",
        "n_nodes",
        "q",
        "analytic_routability",
        "analytic_failed_fraction",
        "sim_routability",
        "sim_std_error",
        "abs_gap",
        "seeds",
        "error",
    ),
    "asymptotic": _ANALYTIC_COLUMNS,
    "scalability": (
        "geometry",
        "d",
        "q",
        "verdict",
        "limit_estimate",
        "sum_q_at_10",
        "sum_q_at_100",
        "sum_q_at_1000",
        "sum_q_at_10000",
        "p_at_10",
        "p_at_100",
        "p_at_1000",
        "p_at_10000",
        "decay_horizon",
        "error",
    ),
}


def _format_scalar(value) -> str:
    """Empty for missing, true/false for booleans, 10 significant digits for reals."""
    if isinstance(value, float):  # most cells, so tested first
        return format(value, ".10g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_value(value) -> str:
    """One CSV cell: the scalar, or a text quoted when it holds a comma, quote or newline."""
    if isinstance(value, str) and ("," in value or '"' in value or "\n" in value):
        return '"' + value.replace('"', '""') + '"'
    return _format_scalar(value)


def render_csv(metadata: dict, columns: tuple[str, ...], rows: list[dict]) -> str:
    lines = [f"# {key}={_format_scalar(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def render_json(metadata: dict, columns: tuple[str, ...], rows: list[dict]) -> str:
    payload = {
        "metadata": metadata,
        "columns": list(columns),
        "rows": [{col: row.get(col) for col in columns} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def render(fmt: str, metadata: dict, columns: tuple[str, ...], rows: list[dict]) -> str:
    if fmt == "csv":
        return render_csv(metadata, columns, rows)
    if fmt == "json":
        return render_json(metadata, columns, rows)
    raise ValueError(f"unknown output format: {fmt}")
