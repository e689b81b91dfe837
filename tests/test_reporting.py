import math

import pytest

from dhtroutability.reporting import format_value, render_csv

COLUMNS = ("text", "real", "sparse", "mixed", "flag", "count", "name", "blank", "whole")
TEXTS = ("plain", "a,b", 'say "hi"', "two\nlines", "")
REALS = (0.1, 1 / 3, -0.0, 1e-320, 12345678901.5, math.inf, -math.inf, math.nan)
MIXED = (None, True, False, 7, -3, 2.5, "x,y", None)


def _row(i: int) -> dict:
    row = {
        "text": TEXTS[i % len(TEXTS)],
        "real": REALS[i % len(REALS)] * (i + 1),
        # Floats but for one None per 1,500 rows: some blocks are all reals.
        "sparse": None if i % 1500 == 7 else i / 7,
        "mixed": MIXED[i % len(MIXED)],
        "flag": i % 3 == 0,
        "count": i,
        "name": f"node {i}",  # text with nothing to quote
        "blank": None,
        # Ints but for one bool per 1,500 rows: some blocks are all ints.
        "whole": i % 1500 == 7 or -(i << 40),
    }
    if i % 11 == 4:
        del row["count"], row["blank"]  # a missing key is an empty cell
    return row


def _reference_render_csv(metadata, columns, rows):
    """One row at a time, one cell at a time."""
    lines = [f"# {key}={value}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_render_csv_equals_row_wise_reference(count):
    # Block edges at 1,024 rows, with quoted text, None, bool, int and
    # float cells, and real, int and text columns with and without a
    # None, a bool or a quoted cell in a block.
    metadata = {"tool": "dht-routability", "seed": 5}
    rows = [_row(i) for i in range(count)]
    assert render_csv(metadata, COLUMNS, rows) == _reference_render_csv(metadata, COLUMNS, rows)
