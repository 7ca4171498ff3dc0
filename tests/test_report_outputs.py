"""Every golden output as one row of GOLDEN, run by one test.

A row runs its CLI argv with ``--out`` and compares the output with a file
in tests/data or with a sha256. Rows with an RSS cap and scale rows run as a
child under RSS_PROBE; the rest run in process. Scale rows are deselected by
default and run with ``pytest -m scale``. Each row's comment names the code
that wrote its golden, which is why the golden does not depend on today's code.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from romanoff_lab.cli import run

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


class Row(NamedTuple):
    id: str
    argv: str
    expected: str  # a file in tests/data, or the sha256 of the output
    rss_mb: float | None = None
    check: Callable[[bytes], None] | None = None
    scale: bool = False


def pi_is(key: str, count: int) -> Callable[[bytes], None]:
    """Every ``key`` in the report is pi(x) = count (OEIS A006880)."""

    def check(out: bytes) -> None:
        objects = []
        json.loads(out, object_hook=lambda d: objects.append(d) or d)
        assert {d[key] for d in objects if key in d} == {count}

    return check


def inert_orders(modulus: int, residue: int) -> Callable[[bytes], None]:
    """#E(F_p) = p + 1 at every prime p = residue (mod modulus) inert in the CM order."""

    def check(out: bytes) -> None:
        rows = [tuple(map(int, line.split(b","))) for line in out.splitlines()[1:]]
        inert = [(p, order) for p, order in rows if p % modulus == residue]
        wrong = [(p, order) for p, order in inert if order != p + 1]
        assert inert and not wrong, wrong[:3]

    return check


def node_order(out: bytes) -> None:
    # 4 + 27 * 791^2 = 16893391 is prime: a node there, so #E = p + 1 - (-1582 / p)
    p = 16893391
    assert f"\n{p},{p + 1 - (1 if pow(-1582, (p - 1) // 2, p) == 1 else -1)}\n".encode() in out


EXPLICIT = shlex.quote(f"explicit:@{DATA / 'theorem1-explicit-terms.txt'}")

GOLDEN = [
    # T6 and T9: written by the kernel that built an int64 r over every n <= x
    Row("theorem9-x1e6", "romanoff --report theorem9 --a 2 --b 2 --x 1000000", "theorem9-a2-b2-x1000000.json"),
    Row("frontier-geom2-x1e6", "romanoff --report frontier --seq geom:2:start=0 --x 1000000", "frontier-geom2-x1000000.json"),
    # the one T6 golden with repeated terms (rho_A > 1)
    Row("frontier-ecorders-x1e6", "romanoff --report frontier --seq ecorders:1,1 --x 1000000",
        "frontier-ecorders1_1-x1000000.json"),
    # an int64 r over 10^7 cells alone is 80 MB; the whole run held 134 MB with it
    Row("theorem9-x1e7", "romanoff --report theorem9 --a 2 --b 2 --x 10000000",
        "theorem9-a2-b2-x10000000.json", 80, pi_is("pi_x", 664579)),
    Row("frontier-geom2-x1e7", "romanoff --report frontier --seq geom:2:start=0 --x 10000000",
        "frontier-geom2-x10000000.json", scale=True),
    # the squares' r(n) CSV: digest of the CSV that np.column_stack wrote
    Row("profile-x1e7", "romanoff --report profile --seq poly:1,0,0 --x 10000000",
        "312d524686b8feaf63beca5b23d043c675e71dfe7c5f6c4c62a582d7c283d863", scale=True),
    # pi_2 and order-dist: written by a binary search per shifted prime and trial division by every integer to the cap
    Row("schnirelmann-x1e6", "romanoff --report schnirelmann --a 2 --x 1000000", "schnirelmann-a2-x1000000.json"),
    Row("order-dist-a2", "romanoff --report order-dist --a 2 --z 40 --trial-cap 20000", "order-dist-a2-z40-cap20000.json"),
    # cap 100 leaves cofactors it cannot certify: entries flagged inexact
    Row("order-dist-a10", "romanoff --report order-dist --a 10 --z 30 --trial-cap 100", "order-dist-a10-z30-cap100.json"),
    # alpha sweep and order sum: written by the int64 spf walk that built one extremal set per alpha;
    # alphas 0.5 and 0.45 share floor(y) = 3, so one extremal set serves both
    Row("extremal-alphas", "extremal --M 500000 --alphas 0.5,0.45,0.4", "extremal-M500000-alphas.json"),
    Row("order-sum-P1e6", "romanoff --report order-sum --a 2 --b 2 --P 1000000", "order-sum-a2-b2-P1000000.json"),
    # theta, the Mertens products and the lemma sums: written by the sums over the prime table as one Python list
    Row("sieve-x1e7", "sieve --limit 10000000 --prime-limit 10000000", "sieve-x10000000.json"),
    # at 10^8 that list held 297 MB at peak; a walk of 2^16-prime steps holds about 79 MB
    Row("sieve-x1e8", "sieve --limit 100000000 --prime-limit 100000000", "sieve-x100000000.json", 120, pi_is("pi", 5761455)),
    Row("lemmas-x1e6", "lemmas --prime-sums --min-pk --tail-limit 1000000 --prime-limit 1000000",
        "lemmas-sums-minpk-x1000000.json"),
    # lemma sums at 10^7 and 10^8: written by the 24 per-record walks that one walk replaced (45 s at 10^8)
    Row("lemmas-x1e7", "lemmas --prime-sums --min-pk --tail-limit 10000000 --prime-limit 10000000",
        "lemmas-sums-minpk-x10000000.json"),
    Row("lemmas-x1e8", "lemmas --prime-sums --min-pk --tail-limit 100000000 --prime-limit 100000000",
        "lemmas-sums-minpk-x100000000.json", 200),
    # T5 and the orders at 10^6: written by the lane rounds sized by the baby-step count
    Row("theorem5-x1e6", "elliptic --curve 1,1 --x 1000000 --census-mod 4", "theorem5-curve1_1-x1000000.json"),
    Row("orders-1_1-x1e6", "elliptic --curve 1,1 --x 1000000 --report orders",
        "efbd46b3d599dfdaa3fb606c71f4999a6fc317a9dd5731b1168ed0f3a15b4393"),
    # T5 at 10^7: written by the lanes that took powers a bit at a time, in rounds of 1024
    Row("theorem5-x1e7", "elliptic --curve 1,1 --x 10000000 --census-mod 4 --sieve-limit 20000001",
        "theorem5-curve1_1-x10000000.json", scale=True),
    # orders at 10^5 and of (1, 1) at 10^7: written by the lanes that searched the whole Hasse interval
    Row("orders-1_1-x1e5", "elliptic --curve=1,1 --x 100000 --report orders",
        "d9503ab7a34e1e4bb1272bb69998136e14de45261f91561da486e80ed5fec3eb"),
    Row("orders-1_0-x1e5", "elliptic --curve=1,0 --x 100000 --report orders",
        "cbfe1fd4cc1ab0b66e1967d173af98e9702309ec379e4724bf9d1dd1ec8d912f", check=inert_orders(4, 3)),
    Row("orders-0_1-x1e5", "elliptic --curve=0,1 --x 100000 --report orders",
        "278253988f24b30ffa4c856cd462261b4e20f2dbadcf3fa49b1cf864152f60e7", check=inert_orders(3, 2)),
    Row("orders-m3_5-x1e5", "elliptic --curve=-3,5 --x 100000 --report orders",
        "e4350da00f29cf17413d3370fdc7aaf33a6ba681043196bd4f424843d5725ccc"),
    Row("orders-7_m2-x1e5", "elliptic --curve=7,-2 --x 100000 --report orders",
        "6c68b20efbbcbcedca81c71da1d9ff170294a1ce869c714f6a94a498eeddd117"),
    Row("orders-2_3-x1e5", "elliptic --curve=2,3 --x 100000 --report orders",
        "2ec4107fa813f701c5d365274d29b06b08c708bcec6f1f5ff9f0e70fb5db9dc7"),
    Row("orders-1_1-x1e7", "elliptic --curve 1,1 --x 10000000 --report orders",
        "436c39c098b4b9d0f281e340e4a7d461d3016d4bbb115380f53dc79bf73f2237", scale=True),
    # the curves with the most scalar hand-offs: written before an order sequence became one lane stream
    Row("orders-1_0-x1e7", "elliptic --curve 1,0 --x 10000000 --report orders",
        "b6caa07dbc0d9c17486173dad07361b640e52f6b59ca8561bd721b6b90356157", check=inert_orders(4, 3), scale=True),
    Row("orders-0_1-x1e7", "elliptic --curve=0,1 --x 10000000 --report orders",
        "55a49621fca4cc192bb64f6d3b8a2a15214fa1e7b975b958bd35a2099f6b433c", check=inert_orders(3, 2), scale=True),
    # past a bad prime above the character-table cap: from the first code that ran it; the node row checks it
    Row("orders-1_791-x1.7e7", "elliptic --curve 1,791 --x 17000000 --report orders --prime-limit 17000000",
        "675cc8261e9904f9e3b86e94149f147c58da9f5926681c7dbc28e9c9623b25af", check=node_order, scale=True),
    # T1: written by the moment sum that added Python floats with math.fsum
    Row("theorem1-poly10-x1e6-s3", "moments --report theorem1 --seq poly:1,0 --x 1000000 --s 3",
        "theorem1-poly10-x1000000-s3.json"),
    # the terms as 10^7 Python ints in one list held 532 MB at peak; as int64 arrays, about 215 MB
    Row("theorem1-poly10-x1e7-s2", "moments --report theorem1 --seq poly:1,0 --x 10000000 --s 2",
        "theorem1-poly10-x10000000-s2.json", 300),
    # T1 on each family and at 10^8 (1.57 GB at peak): written by T1 over terms read as Python ints;
    # the explicit list repeats terms and holds 2^64 + 1
    Row("theorem1-ecorders1_1", "moments --report theorem1 --seq ecorders:1,1 --x 100000 --s 2",
        "theorem1-ecorders1_1-x100000-s2.json"),
    Row("theorem1-geom3", "moments --report theorem1 --seq geom:3 --x 100000 --s 2", "theorem1-geom3-x100000-s2.json"),
    Row("theorem1-tower2_2", "moments --report theorem1 --seq tower:2:2 --x 100000 --s 2", "theorem1-tower2_2-x100000-s2.json"),
    Row("theorem1-poly1_m20_1", "moments --report theorem1 --seq poly:1,-20,1 --x 100000 --s 2",
        "theorem1-poly1_m20_1-x100000-s2.json"),
    Row("theorem1-explicit", f"moments --report theorem1 --seq {EXPLICIT} --x 100000 --s 2",
        "theorem1-explicit-x100000-s2.json"),
    Row("theorem1-poly10-x1e8-s2", "moments --report theorem1 --seq poly:1,0 --x 100000000 --s 2 --sieve-limit 100000000",
        "theorem1-poly10-x100000000-s2.json", scale=True),
    # T3 and T4 under the default --sieve-limit: written by the reports that built every value before the table check
    Row("poly-1_0_1-z3000", "moments --report poly --poly 1,0,1 --z 3000 --s 2", "poly-1_0_1-z3000-s2.json"),
    Row("linear-bs1_5-z50", "moments --report linear --a 6 --bs 1,5 --z 50 --s 1 --x 1000",
        "linear-a6-bs1_5-z50-s1-x1000.json"),
    # the three-shift T4 and 10^7 values: written before Delta_L became the values of its family polynomial
    Row("linear-bs1_5_11-z10", "moments --report linear --a 6 --bs 1,5,11 --z 10 --s 1 --x 1000",
        "linear-a6-bs1_5_11-z10-s1-x1000.json", scale=True),
    Row("poly-1_1-z4999998", "moments --report poly --poly 1,1 --z 4999998 --s 1", "poly-1_1-z4999998-s1.json", scale=True),
    Row("linear-a1-bs0-z4999999", "moments --report linear --a 1 --bs 0 --z 4999999 --s 1 --x 10000000",
        "linear-a1-bs0-z4999999-s1-x10000000.json", scale=True),
    # verify-all: written before exit codes, table flags, lemma records and residues each had one owner
    Row("verify-all-seed0", "verify-all --seed 0", "verify-all-seed0.json"),
    Row("verify-all-seed1", "verify-all --seed 1", "verify-all-seed1.json"),
]

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


def is_digest(expected: str) -> bool:
    return re.fullmatch("[0-9a-f]{64}", expected) is not None


@pytest.mark.parametrize("row", [pytest.param(r, id=r.id, marks=pytest.mark.scale if r.scale else ()) for r in GOLDEN])
def test_golden_output(row, tmp_path):
    out = tmp_path / "out"
    argv = [*shlex.split(row.argv), "--out", str(out)]
    if row.rss_mb is None and not row.scale:
        assert run(argv) == 0
    else:
        probe = subprocess.run(
            [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "romanoff_lab", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=600,
        )
        code, max_rss_kb = map(int, probe.stdout.split())
        assert code == 0, probe.stderr[-2000:]
        assert row.rss_mb is None or max_rss_kb / 1024 < row.rss_mb, f"peak RSS {max_rss_kb / 1024:.1f} MB"
    got = out.read_bytes()
    if row.check:
        row.check(got)
    if is_digest(row.expected):
        assert hashlib.sha256(got).hexdigest() == row.expected
    else:
        assert got == (DATA / row.expected).read_bytes()


def test_every_golden_file_belongs_to_one_row():
    expected = [row.expected for row in GOLDEN if not is_digest(row.expected)]
    inputs = [path.name for path in DATA.iterdir() if any(path.name in row.argv for row in GOLDEN)]
    assert [name for name in expected if not (DATA / name).is_file()] == []
    assert sorted(path.name for path in DATA.iterdir()) == sorted(expected + inputs)
