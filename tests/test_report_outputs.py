"""The T6 frontier and T9 reports against output committed from the kernel
that built an int64 r over every n <= x, and the memory the windowed kernel
keeps them in; the T1 report against output committed from the moment sum
that added Python floats with math.fsum, and on each sequence family against
output committed from the terms read as Python ints; the T5 report and orders against
output committed from the lane rounds sized by the baby-step count; pi_2 and
the order distribution against output committed from the binary search per
shifted prime and the trial division by every integer up to the cap; the
alpha sweep and the order sum against output committed from the int64 spf
walk that built one extremal set per alpha; T3 and T4 against output
committed from the reports that built every value before comparing the
largest with the table; the orders of six curves at 10^5
against digests committed from the lanes that searched the whole Hasse
interval; theta, the Mertens products and the lemma prime sums against output
committed from the sums that read the whole prime table as one Python list, and
the lemma prime sums at 10^7 and 10^8 against output committed from the 24
per-record walks that one walk replaced."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from romanoff_lab.cli import run
from romanoff_lab.elliptic import EllipticCurve, order_sequence

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

REPORTS = {
    "theorem9-a2-b2": ["romanoff", "--report", "theorem9", "--a", "2", "--b", "2"],
    "frontier-geom2": ["romanoff", "--report", "frontier", "--seq", "geom:2:start=0"],
    # the one T6 golden with repeated terms (rho_A > 1)
    "frontier-ecorders1_1": ["romanoff", "--report", "frontier", "--seq", "ecorders:1,1"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_output_at_a_million_is_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    assert run(REPORTS[name] + ["--x", "1000000", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}-x1000000.json").read_bytes()


SHIFT_AND_ORDER_REPORTS = {
    "schnirelmann-a2-x1000000": ["--report", "schnirelmann", "--a", "2", "--x", "1000000"],
    "order-dist-a2-z40-cap20000": ["--report", "order-dist", "--a", "2", "--z", "40", "--trial-cap", "20000"],
    # cap 100 leaves cofactors it cannot certify: entries flagged inexact
    "order-dist-a10-z30-cap100": ["--report", "order-dist", "--a", "10", "--z", "30", "--trial-cap", "100"],
}

WALK_REPORTS = {
    # alphas 0.5 and 0.45 share floor(y) = 3, so one extremal set serves both
    "extremal-M500000-alphas": ["extremal", "--M", "500000", "--alphas", "0.5,0.45,0.4"],
    "order-sum-a2-b2-P1000000": ["romanoff", "--report", "order-sum", "--a", "2", "--b", "2", "--P", "1000000"],
}


@pytest.mark.parametrize("name", sorted(SHIFT_AND_ORDER_REPORTS))
def test_shift_and_order_reports_are_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    assert run(["romanoff", *SHIFT_AND_ORDER_REPORTS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(WALK_REPORTS))
def test_spf_walk_reports_are_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    assert run([*WALK_REPORTS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


PRIME_TABLE_REPORTS = {
    "sieve-x10000000": ["sieve", "--limit", "10000000", "--prime-limit", "10000000"],
    "lemmas-sums-minpk-x1000000": [
        "lemmas", "--prime-sums", "--min-pk", "--tail-limit", "1000000", "--prime-limit", "1000000"
    ],
    "lemmas-sums-minpk-x10000000": [
        "lemmas", "--prime-sums", "--min-pk", "--tail-limit", "10000000", "--prime-limit", "10000000"
    ],
}


@pytest.mark.parametrize("name", sorted(PRIME_TABLE_REPORTS))
def test_prime_table_sums_are_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    assert run([*PRIME_TABLE_REPORTS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


def test_theorem5_at_a_million_is_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["elliptic", "--curve", "1,1", "--x", "1000000", "--census-mod", "4"]
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "theorem5-curve1_1-x1000000.json").read_bytes()


def test_orders_at_a_million_keep_their_digest(tmp_path):
    out = tmp_path / "orders.csv"
    argv = ["elliptic", "--curve", "1,1", "--x", "1000000", "--report", "orders"]
    assert run(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "efbd46b3d599dfdaa3fb606c71f4999a6fc317a9dd5731b1168ed0f3a15b4393"


# sha256 of order_sequence(...).write_csv at x = 10^5, from the lane rounds
# that searched the whole Hasse interval
ORDER_DIGESTS_AT_1E5 = {
    (1, 1): "d9503ab7a34e1e4bb1272bb69998136e14de45261f91561da486e80ed5fec3eb",
    (1, 0): "cbfe1fd4cc1ab0b66e1967d173af98e9702309ec379e4724bf9d1dd1ec8d912f",
    (0, 1): "278253988f24b30ffa4c856cd462261b4e20f2dbadcf3fa49b1cf864152f60e7",
    (-3, 5): "e4350da00f29cf17413d3370fdc7aaf33a6ba681043196bd4f424843d5725ccc",
    (7, -2): "6c68b20efbbcbcedca81c71da1d9ff170294a1ce869c714f6a94a498eeddd117",
    (2, 3): "2ec4107fa813f701c5d365274d29b06b08c708bcec6f1f5ff9f0e70fb5db9dc7",
}


@pytest.mark.parametrize("curve", sorted(ORDER_DIGESTS_AT_1E5))
def test_orders_at_a_hundred_thousand_keep_their_digest(curve, primes100k):
    out = io.StringIO()
    order_sequence(EllipticCurve(*curve), 10**5, primes100k).write_csv(out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == ORDER_DIGESTS_AT_1E5[curve]


def test_theorem1_at_a_million_is_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["moments", "--report", "theorem1", "--seq", "poly:1,0", "--x", "1000000", "--s", "3"]
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "theorem1-poly10-x1000000-s3.json").read_bytes()


# one sequence of each family; the explicit list repeats terms and holds 2^64 + 1
THEOREM1_SEQUENCES = {
    "ecorders1_1": "ecorders:1,1",
    "geom3": "geom:3",
    "tower2_2": "tower:2:2",
    "poly1_m20_1": "poly:1,-20,1",
    "explicit": f"explicit:@{DATA / 'theorem1-explicit-terms.txt'}",
}


@pytest.mark.parametrize("name", sorted(THEOREM1_SEQUENCES))
def test_theorem1_of_each_family_is_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    argv = ["moments", "--report", "theorem1", "--seq", THEOREM1_SEQUENCES[name], "--x", "100000", "--s", "2"]
    assert run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"theorem1-{name}-x100000-s2.json").read_bytes()


# T3 and T4 under the default --sieve-limit, each run sizing its table to its largest value
FAMILY_REPORTS = {
    "poly-1_0_1-z3000-s2": ["--report", "poly", "--poly", "1,0,1", "--z", "3000", "--s", "2"],
    "linear-a6-bs1_5-z50-s1-x1000": [
        "--report", "linear", "--a", "6", "--bs", "1,5", "--z", "50", "--s", "1", "--x", "1000"
    ],
}


@pytest.mark.parametrize("name", sorted(FAMILY_REPORTS))
def test_poly_and_linear_reports_are_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    assert run(["moments", *FAMILY_REPORTS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()

# Linux folds the memory a process replaces at exec into its ru_maxrss, so a
# child of the pytest process would start at pytest's own peak; a small
# Python in between spawns the CLI and prints the CLI's ru_maxrss in KB.
RSS_PROBE = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "child.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(child.returncode, usage.ru_maxrss)\n"
)


def test_theorem9_at_ten_million_stays_under_80_mb(tmp_path):
    # an int64 r over 10^7 cells alone is 80 MB; the whole run held 134 MB with it
    out = tmp_path / "report.json"
    argv = REPORTS["theorem9-a2-b2"] + ["--x", "10000000", "--out", str(out)]
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "romanoff_lab", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, max_rss_kb = map(int, probe.stdout.split())
    assert code == 0, probe.stderr[-2000:]
    assert out.read_bytes() == (DATA / "theorem9-a2-b2-x10000000.json").read_bytes()
    assert max_rss_kb / 1024 < 80, f"peak RSS {max_rss_kb / 1024:.1f} MB"


def test_theorem1_at_ten_million_stays_under_300_mb(tmp_path):
    # the terms as 10^7 Python ints in one list held 532 MB at peak; as int64
    # arrays, with phi from one uint32 table, the run holds about 215 MB
    out = tmp_path / "report.json"
    argv = ["moments", "--report", "theorem1", "--seq", "poly:1,0", "--x", "10000000", "--s", "2"]
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "romanoff_lab", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, max_rss_kb = map(int, probe.stdout.split())
    assert code == 0, probe.stderr[-2000:]
    assert out.read_bytes() == (DATA / "theorem1-poly10-x10000000-s2.json").read_bytes()
    assert max_rss_kb / 1024 < 300, f"peak RSS {max_rss_kb / 1024:.1f} MB"


def test_sieve_at_a_hundred_million_stays_under_120_mb(tmp_path):
    # theta and the Mertens sums over one Python list of all 5,761,455 primes
    # held 297 MB at peak; a walk of 2^16-prime steps holds about 79 MB
    out = tmp_path / "report.json"
    argv = ["sieve", "--limit", "100000000", "--prime-limit", "100000000", "--out", str(out)]
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "romanoff_lab", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, max_rss_kb = map(int, probe.stdout.split())
    assert code == 0, probe.stderr[-2000:]
    assert out.read_bytes() == (DATA / "sieve-x100000000.json").read_bytes()
    assert max_rss_kb / 1024 < 120, f"peak RSS {max_rss_kb / 1024:.1f} MB"


def test_lemma_sums_at_a_hundred_million_stay_under_200_mb(tmp_path):
    # one walk of 2^16-prime steps for all 24 records held 86 MB at 10^8; the
    # 24 walks it replaced took 45 s
    out = tmp_path / "report.json"
    argv = ["lemmas", "--prime-sums", "--min-pk", "--tail-limit", "100000000", "--prime-limit", "100000000"]
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "romanoff_lab", *argv, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, max_rss_kb = map(int, probe.stdout.split())
    assert code == 0, probe.stderr[-2000:]
    assert out.read_bytes() == (DATA / "lemmas-sums-minpk-x100000000.json").read_bytes()
    assert max_rss_kb / 1024 < 200, f"peak RSS {max_rss_kb / 1024:.1f} MB"
