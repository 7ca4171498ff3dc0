"""The CLI exit-code contract as a generated sweep.

Each (subcommand, report) has one base call with small table caps. Every flag
that cli.build_parser() gives the subcommand is varied one at a time over a
pool of edge values, so a new flag is swept without an edit here. Each call
runs in process through run(), exits 0, 2, 3 or 4 without an exception, and
takes under 2 s. On exit 0 it writes a report that parses; otherwise stdout
is empty and stderr ends with an error line.
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from romanoff_lab import cli
from romanoff_lab.cli import build_parser, run

LIMITS = ["--sieve-limit", "100000", "--prime-limit", "100000"]

BASES = {
    ("sieve", None): ["sieve", "--limit", "1000", "--prime-limit", "100000"],
    ("moments", "theorem1"): ["moments", "--report", "theorem1", "--seq", "poly:1,0", "--x", "1000", *LIMITS],
    ("moments", "poly"): ["moments", "--report", "poly", "--poly", "1,0,1", "--z", "10", *LIMITS],
    ("moments", "linear"): ["moments", "--report", "linear", "--a", "6", "--bs", "1,5,11", "--z", "10", "--x", "1000", *LIMITS],
    ("extremal", None): ["extremal", "--M", "1000", "--y", "2.2", "--z", "6.9", "--sieve-limit", "100000"],
    ("elliptic", "theorem5"): ["elliptic", "--report", "theorem5", "--curve", "1,1", "--x", "1000", "--census-mod", "4", *LIMITS],
    ("elliptic", "orders"): ["elliptic", "--report", "orders", "--curve", "1,1", "--x", "1000", *LIMITS],
    ("romanoff", "frontier"): ["romanoff", "--report", "frontier", "--seq", "geom:2:start=0", "--x", "4096", *LIMITS],
    ("romanoff", "profile"): ["romanoff", "--report", "profile", "--seq", "poly:1,0,0", "--x", "1000", *LIMITS],
    ("romanoff", "theorem9"): ["romanoff", "--report", "theorem9", "--a", "2", "--b", "2", "--x", "4096", *LIMITS],
    ("romanoff", "schnirelmann"): ["romanoff", "--report", "schnirelmann", "--a", "2", "--x", "1000", *LIMITS],
    ("romanoff", "order-sum"): ["romanoff", "--report", "order-sum", "--a", "2", "--b", "2", "--P", "1000", *LIMITS],
    ("romanoff", "order-dist"): ["romanoff", "--report", "order-dist", "--a", "2", "--z", "10", "--trial-cap", "1000", *LIMITS],
    ("lemmas", None): ["lemmas", "--gamma", "--s-max", "3", "--prime-sums", "--min-pk", "--abel", "--tail-limit", "1000", "--prime-limit", "100000"],
    ("verify-all", None): ["verify-all"],
}

# numbers at and past every edge, then text that is no number, list or spec
POOL = [
    "0", "-1", "1", "2", "3", str(2**63), str(10**20), "1e-320", "1e308", "nan",
    "", ".", "1,,2", "1,x", ",", "geom:", "poly:", "tower:2:", "ecorders:1",
    "explicit:", "explicit:@missing.txt",
]

CSV_HEADERS = {"orders": "p,order\n", "profile": "n,r\n"}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def variants(base: list[str], sub: argparse.ArgumentParser):
    """argv that each change one flag of base: a toggled flag is added or
    removed, a valued flag takes each value of POOL (the last value of a
    repeated flag wins)."""
    for action in sub._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            yield [arg for arg in base if arg != flag] if flag in base else base + [flag]
            continue
        for value in POOL:
            yield base + [flag, value]


def outcome(argv: list[str], capsys) -> str | None:
    """None when argv keeps the contract, else what broke it."""
    start = time.perf_counter()
    try:
        code = run(argv)
    except Exception as exc:  # the contract: no exception leaves run()
        return f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if elapsed > 2.0:
        return f"took {elapsed:.2f} s"
    if code:
        if out or "error:" not in (err.splitlines() or [""])[-1]:
            return f"exit {code} with stdout {out[:80]!r}, stderr {err[-80:]!r}"
        return None
    args = build_parser().parse_args(argv)
    if args.out:
        path = Path(args.out)
        if not path.is_file():
            return f"exit 0 without {args.out!r}"
        out = path.read_text()
        path.unlink()
    header = CSV_HEADERS.get(getattr(args, "report", None))
    if header is not None:
        rows = out[len(header):].splitlines()
        if not out.startswith(header) or not all(len(row.split(",")) == 2 for row in rows):
            return f"exit 0 with a malformed CSV {out[:80]!r}"
        return None
    try:
        json.loads(out)
    except ValueError as exc:
        return f"exit 0 with output that is no JSON: {exc}"
    return None


def test_every_report_has_a_base():
    expected = set()
    for name, sub in subcommands().items():
        report = next((a for a in sub._actions if a.dest == "report"), None)
        expected |= {(name, choice) for choice in (report.choices if report else [None])}
    assert set(BASES) == expected


@pytest.mark.filterwarnings("ignore::UserWarning")  # exploratory-window notes
@pytest.mark.parametrize("key", sorted(BASES, key=str), ids=lambda key: "-".join(filter(None, key)))
def test_one_flag_at_a_time_keeps_the_contract(key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    base = BASES[key] + ["--out", "report.out"]
    assert outcome(base, capsys) is None, base
    broken = {}
    for argv in variants(base, subcommands()[key[0]]):
        problem = outcome(argv, capsys)
        if problem is not None:
            broken[" ".join(argv)] = problem
    assert broken == {}
