"""Golden reports: seeded CLI output pinned by sha256.

A change that keeps the random streams must reproduce these reports byte
for byte.  A change that alters the streams on purpose updates the
hashes and says so in CHANGES.md.
"""

import hashlib

import pytest

from dhtroutability.cli import main

GOLDEN = [
    (
        "compare --geometry all --d 8 --trials 3 --pairs 500 --seed 5",
        "7197d2d8f137c031cb77c0b435319de74c2be5915ee0d3851ca1c70153b4d934",
    ),
    (
        "simulate --geometry all --d 16 --trials 1 --pairs 300 --q-start 0.2 --q-stop 0.2 --seed 5",
        "1008cfb2ec51a64c3025da92e30760e7bcc9da8b50433130ec4624053ad8e996",
    ),
    (
        "analytic --geometry all",
        "d3232770328cd11443aa81d89940305319790f713a0765ba91303aa232fc070a",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[g[0].split()[0] for g in GOLDEN])
def test_golden_report(argv, digest, capsys):
    assert main(argv.split()) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest
