"""The CLI exit-code contract as a generated sweep, and the report flag table.

Each (subcommand, report) has one base call with small table caps that gives
only flags its report reads, and exits 0. Every flag that cli.build_parser()
gives the subcommand is varied one at a time over a pool of edge values, so a
new flag is swept without an edit here. Each call runs in process through
run(), exits 0, 2, 3 or 4 without an exception, and takes under 2 s. On exit 0
it writes a report that parses; otherwise stdout is empty and stderr ends with
an error line. A flag the base's report does not read, by cli.REPORT_FLAGS,
exits 2 whatever its value. Each report, run on a small input, reads exactly
the flags the table declares for it.
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from romanoff_lab import cli
from romanoff_lab.cli import build_parser, run

SIEVE = ["--sieve-limit", "100000"]
PRIMES = ["--prime-limit", "100000"]
LIMITS = SIEVE + PRIMES

BASES = {
    ("sieve", None): ["sieve", "--limit", "1000", *PRIMES],
    ("moments", "theorem1"): ["moments", "--report", "theorem1", "--seq", "poly:1,0", "--x", "1000", *LIMITS],
    ("moments", "poly"): ["moments", "--report", "poly", "--poly", "1,0,1", "--z", "10", *SIEVE],
    ("moments", "linear"): ["moments", "--report", "linear", "--a", "6", "--bs", "1,5", "--z", "10", "--x", "1000", *SIEVE],
    ("extremal", None): ["extremal", "--M", "1000", "--y", "2.2", "--z", "6.9", *SIEVE],
    ("elliptic", "theorem5"): ["elliptic", "--report", "theorem5", "--curve", "1,1", "--x", "1000", "--census-mod", "4", *LIMITS],
    ("elliptic", "orders"): ["elliptic", "--report", "orders", "--curve", "1,1", "--x", "1000", *PRIMES],
    ("romanoff", "frontier"): ["romanoff", "--report", "frontier", "--seq", "geom:2:start=0", "--x", "4096", *PRIMES],
    ("romanoff", "profile"): ["romanoff", "--report", "profile", "--seq", "poly:1,0,0", "--x", "1000", *PRIMES],
    ("romanoff", "theorem9"): ["romanoff", "--report", "theorem9", "--a", "2", "--b", "2", "--x", "4096", *PRIMES],
    ("romanoff", "schnirelmann"): ["romanoff", "--report", "schnirelmann", "--a", "2", "--x", "1000", *PRIMES],
    ("romanoff", "order-sum"): ["romanoff", "--report", "order-sum", "--a", "2", "--b", "2", "--P", "1000", *LIMITS],
    ("romanoff", "order-dist"): ["romanoff", "--report", "order-dist", "--a", "2", "--z", "10", "--trial-cap", "1000"],
    ("lemmas", None): ["lemmas", "--gamma", "--s-max", "3", "--prime-sums", "--min-pk", "--abel", "--tail-limit", "1000", *PRIMES],
    ("verify-all", None): ["verify-all"],
}

# a small call for each key of cli.REPORT_FLAGS that reads every flag the key
# declares: the bases, theorem1 on curve orders (which read --prime-limit),
# the extremal alpha sweep and each lemma toggle alone
READ_CALLS = {
    **{key: argv for key, argv in BASES.items() if key in cli.REPORT_FLAGS},
    ("moments", "theorem1"): ["moments", "--report", "theorem1", "--seq", "ecorders:1,1", "--x", "200", *LIMITS],
    ("extremal", "--alphas"): ["extremal", "--M", "1000", "--alphas", "0.5,0.4", *SIEVE],
    ("lemmas", "--gamma"): ["lemmas", "--gamma", "--s-max", "2", "--x-max", "20"],
    ("lemmas", "--prime-sums"): ["lemmas", "--prime-sums", "--tail-limit", "1000", *PRIMES],
    ("lemmas", "--min-pk"): ["lemmas", "--min-pk", "--tail-limit", "1000", *PRIMES],
    ("lemmas", "--abel"): ["lemmas", "--abel", "--seed", "3"],
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
    """(flag, added, argv) for argv that each change one flag of base: a
    toggled flag is added or removed, a valued flag takes each value of POOL
    (the last value of a repeated flag wins)."""
    for action in sub._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if flag in base:
                yield flag, False, [arg for arg in base if arg != flag]
            else:
                yield flag, True, base + [flag]
            continue
        for value in POOL:
            yield flag, True, base + [flag, value]


def table_reads(key, argv: list[str]) -> set[str]:
    """The flags the report of key reads by cli.REPORT_FLAGS, where each mode
    or toggle flag in argv adds its own entry; --out and --report are read by
    every report."""
    name, report = key
    entries = [v for (n, r), v in cli.REPORT_FLAGS.items() if n == name and (r == report or r in argv)]
    return {"--out", "--report"} | {flag.rstrip("!") for flag in " ".join(entries).split()}


def outcome(argv: list[str], capsys) -> tuple[int | None, str | None]:
    """The exit code of argv, and None when argv keeps the contract, else
    what broke it."""
    start = time.perf_counter()
    try:
        code = run(argv)
    except Exception as exc:  # the contract: no exception leaves run()
        return None, f"raised {exc!r}"
    return code, broken_contract(code, time.perf_counter() - start, argv, capsys)


def broken_contract(code: int, elapsed: float, argv: list[str], capsys) -> str | None:
    """None when a call that exited with code after elapsed seconds kept the
    contract, else what broke it."""
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
    assert outcome(base, capsys) == (0, None), base
    reads = table_reads(key, base)
    broken = {}
    for flag, added, argv in variants(base, subcommands()[key[0]]):
        code, problem = outcome(argv, capsys)
        if problem is None and added and flag not in reads and code != 2:
            problem = f"exit {code} on {flag}, which the report does not read"
        if problem is not None:
            broken[" ".join(argv)] = problem
    assert broken == {}


def test_every_table_key_has_a_read_call():
    assert set(READ_CALLS) == set(cli.REPORT_FLAGS)


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of each attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.__dict__["_reads"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("key", sorted(READ_CALLS, key=str), ids=lambda key: "-".join(filter(None, key)))
def test_each_report_reads_exactly_its_declared_flags(key, tmp_path, monkeypatch, capsys):
    """The handler, run on a namespace that records reads, reads the flags
    the table declares for its key, --out and --report, and the mode or
    toggle flags that pick a report of its subcommand; nothing else."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    argv = READ_CALLS[key] + ["--out", "report.out"]
    name = key[0]
    sub = subcommands()[name]
    flags = {a.option_strings[0]: a.dest for a in sub._actions if a.dest != "help"}
    args = RecordingNamespace(**vars(build_parser().parse_args(argv)))
    args.handler(args)
    read = {flag for flag, dest in flags.items() if dest in args._reads}
    pickers = {r for n, r in cli.REPORT_FLAGS if n == name and r and r.startswith("--")}
    assert read == (table_reads(key, argv) | pickers) & set(flags)
