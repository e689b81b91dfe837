"""Golden reports: seeded CLI output pinned by sha256.

A change that keeps the random streams must reproduce these reports byte
for byte.  A change that alters the streams on purpose updates the
hashes and says so in CHANGES.md.  Running this file as a script,
``python tests/test_golden_reports.py``, prints every case's current
sha256, so that such a change can re-pin them by command.
"""

import hashlib

import pytest

from dhtroutability.cli import main

# (test id, argv, sha256 of stdout)
GOLDEN = [
    (
        "compare",
        "compare --geometry all --d 8 --trials 3 --pairs 500 --seed 5",
        "7197d2d8f137c031cb77c0b435319de74c2be5915ee0d3851ca1c70153b4d934",
    ),
    (
        "simulate",
        "simulate --geometry all --d 16 --trials 1 --pairs 300 --q-start 0.2 --q-stop 0.2 --seed 5",
        "1008cfb2ec51a64c3025da92e30760e7bcc9da8b50433130ec4624053ad8e996",
    ),
    (
        "analytic",
        "analytic --geometry all",
        "d3232770328cd11443aa81d89940305319790f713a0765ba91303aa232fc070a",
    ),
    (
        "asymptotic",
        "asymptotic --geometry all",
        "e5dcb5bc696c8330ce55d663e79a22987a75953825cfd1a7411685c0bdccf8bb",
    ),
    (
        "scalability",
        "scalability",
        "1f1461684d7d9785b84ca80272e3846ae9db20b2225939502e609c9db050d585",
    ),
    (
        "compare-json",
        "compare --geometry all --d 8 --trials 3 --pairs 500 --seed 5 --format json",
        "1e3df344aee38f1e6bfabaa0032afd83a85a7816f20158737974a7a3cef00fd4",
    ),
    (
        # d = 1 from q = 0.5 on: the analytic stage fails and the row stops
        # there; at q = 0.4 the simulate stage runs.
        "compare-error-rows",
        "compare --geometry all --d 1 --trials 2 --pairs 50 --q-start 0.4 --q-stop 0.6 --q-step 0.1 --seed 5",
        "48a2ea2e80f7ae22cc1848d8906ed6435db86d098a24bed65d109843a4ca3fd0",
    ),
    (
        # The benchmark's sim-d12-sweep grid at 2 trials: tree, hypercube,
        # xor and ring pack their alive-link words, symphony walks its spans.
        "compare-d12",
        "compare --geometry all --d 12 --trials 2 --seed 1",
        "c8a6bd1347598c430f31c0f1730c46c181db950f61dcea6b5f622f44e4bcc3f3",
    ),
    (
        # The benchmark's two analytic-sweep reports, this and the next:
        # hazard series out to d = 100 phases, then out to the 10,000-phase
        # scalability horizon.
        "asymptotic-d10-100",
        "asymptotic --geometry all --d 10,20,30,40,50,60,70,80,90,100 --q-start 0 --q-stop 0.95 --q-step 0.005",
        "2c5fdc4fb895a9184b6e7a6e506b3ed2643919d2fe57f52894de45ba423234ec",
    ),
    (
        "scalability-fine",
        "scalability --q-start 0.005 --q-stop 0.95 --q-step 0.005",
        "183db0d5f949ac2e37ef0c63bbd065c6dc40cb31dab9c56470db5e10c832bb4d",
    ),
    (
        # The same two reports as JSON, which prints every float by repr:
        # a last-bit change in a partial sum or a ratio shows here, where
        # the 10-digit CSV cells above cannot see it.
        "asymptotic-d10-100-json",
        "asymptotic --geometry all --d 10,20,30,40,50,60,70,80,90,100 --q-start 0 --q-stop 0.95 --q-step 0.005 --format json",
        "0a5a0d373798392e0101ee40fe27251d0bb13ee3994e8735b338dda2e2a39f46",
    ),
    (
        "scalability-fine-json",
        "scalability --q-start 0.005 --q-stop 0.95 --q-step 0.005 --format json",
        "c9ddb94bbcd1b2ae9049cfefe5b59535a62f5d42115b76717b74a95eb05f67b4",
    ),
    (
        # symphony with 3 near links and 4 shortcuts: the per-column span
        # step over more columns than the default k_n = k_s = 1.
        "compare-symphony-kn3-ks4",
        "compare --geometry symphony --d 10 --kn 3 --ks 4 --trials 3 --pairs 500 --seed 5",
        "157fc02ae3876a3cce24f2718bef2b7810f999ff1f8a77daf14507b589b926e0",
    ),
    (
        # A d list: each geometry's rows at d = 6, then at d = 8, are those
        # of the single-d reports.
        "compare-d-list",
        "compare --geometry tree,symphony --d 6,8 --trials 3 --pairs 300 --seed 5",
        "ceb18187176c907595b6cca1924ba5ced36c729f3c4a94f7917837ef59ee115a",
    ),
    (
        # Multi-q tables at the smallest and largest d, with 3 near links and
        # 2 shortcuts; d = 2 has degenerate-denominator rows from q = 0.75.
        "asymptotic-kn3-ks2",
        "asymptotic --geometry all --d 2,3,64,65,100 --q-start 0 --q-stop 0.95 --q-step 0.05 --kn 3 --ks 2",
        "bef72319d01d73c10604bb4b6fe98e08b68fa4c321c67ade4eddf762d2ebf65c",
    ),
    (
        "asymptotic-kn3-ks2-exact",
        "asymptotic --geometry all --d 2,3,64,65,100 --q-start 0 --q-stop 0.95 --q-step 0.05 --kn 3 --ks 2 --denominator exact",
        "3986b67a97f67df2a14959cb65ea466817cf9f39d13db6b0ae0b573b50776aa1",
    ),
    (
        # Counts n(h) up to 2^1000 ~ 1.1e301, a finite double: d past 20, 64
        # and 100 on the exact denominator.
        "asymptotic-d21-1000-exact",
        "asymptotic --geometry all --d 21,64,65,200,500,1000 --q-start 0 --q-stop 0.95 --q-step 0.05 --denominator exact --kn 3 --ks 2",
        "c3aa0f15edf6f6331bce81a41e69729c74cd9fe57ff1ecf9e4012e6b382b86c1",
    ),
    (
        # d = 1 (k_s = 1, since symphony needs k_s <= d): error rows from
        # q = 0.5 in every geometry.
        "asymptotic-d1-kn3",
        "asymptotic --geometry all --d 1,2,3,64,65,100 --q-start 0 --q-stop 0.95 --q-step 0.05 --kn 3",
        "89b4f3e3589ef63fbfd8000e41a0290e7eed1731d4e83dc11a3b77bee6165994",
    ),
    (
        # A repeated geometry and an unsorted d list with repeats that
        # crosses 64 phases: rows stay in argv order.
        "asymptotic-repeats-unsorted",
        "asymptotic --geometry xor,symphony,xor --d 100,10,65,64,10 --q-start 0 --q-stop 0.95 --q-step 0.05 --kn 3 --ks 2",
        "479c892661821fb022f1cf04fd8b5fb26cef8f1229cfa7663bb73e7337611fab",
    ),
    (
        # Direct products of up to 1,000 factors: tree at d = 132, q = 0.45
        # and symphony at d = 500, q = 0.045 and at d = 1000, q = 0.025 print
        # the exactly rounded value of the same float hazards.
        "asymptotic-direct-products",
        "asymptotic --geometry tree,symphony --d 132,500,1000 --q-start 0 --q-stop 0.5 --q-step 0.005",
        "19a5abecc38dc91ab0c229c613cd1714964a93a783ce185fcbfaccab2422e600",
    ),
]


@pytest.mark.parametrize("argv, digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_report(argv, digest, capsys):
    assert main(argv.split()) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


def current_digests():
    """(test id, sha256 of stdout) for every case, from the code as it is."""
    import contextlib
    import io

    for name, argv, _ in GOLDEN:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv.split())
        yield name, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


if __name__ == "__main__":
    for name, digest in current_digests():
        print(f"{digest}  {name}")
