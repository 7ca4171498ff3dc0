"""The cli_batch workload: rounds of short ``python -m romanoff_lab`` calls.

One round covers all seven subcommands, one usage error (exit 2), one budget
error (exit 3) and one call made after the benchmark corrupts a cached spf
table.  Calls run one at a time, each waiting for the previous one (a closed
loop with a single caller).  Every round gets a fresh ``ROMANOFF_LAB_CACHE``
directory, so every round sees the same sequence of cache misses, then hits.

The cache outcome of each call is inferred from that directory: the spf table
a call needs is absent before the call (miss), present and intact (hit), or
present and corrupted by the benchmark (corrupt, then rebuilt).  After the
call a miss must have written the table, a hit must have left it untouched,
and a corrupt table must have been rewritten.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs as gen
from checks import PrimeOracle

CALL_TIMEOUT_S = 120
# seconds one round took at the commit that defined the benchmark (see
# workloads.NOMINAL_PASS_S)
NOMINAL_ROUND_S = 7.0
ORACLE_LIMIT = 10**6 + 1000
EXTREMAL_Q = 15  # primes in (2.2, 6.9]: 3 * 5


@dataclass
class Call:
    name: str
    argv: list[str]
    expect_exit: int = 0
    sieve_limit: int | None = None  # spf table the call builds through the cache
    check: Callable[[dict], list[str]] | None = None  # invariant on the parsed JSON
    corrupt_first: bool = False  # corrupt the cached table before the call
    same_stdout_as: str | None = None
    seeded: bool = True  # False: the call's arguments do not depend on the seed


@dataclass
class Outcome:
    call: Call
    seconds: float
    exit_code: int
    stdout: bytes
    cache: str | None  # "hit", "miss", "corrupt" or None
    cpu_s: float
    errors: list[str] = field(default_factory=list)

    @property
    def subcommand(self) -> str:
        return self.call.argv[0]


def _fail_unless(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def build_round(seed: int, work: Path, oracle: PrimeOracle) -> list[Call]:
    """The fixed call list of one round; ``work`` receives the input files.

    Values that may be negative are passed as ``--flag=value``, so that
    argparse does not read them as options.
    """
    inp = gen.cli_inputs(seed)
    t1_x = 50_000
    values_file = work / "t1_values.txt"
    values_file.write_text("".join(f"{v}\n" for v in inp.t1_values), encoding="utf-8")
    poly_z = 300
    linear_z = 100
    linear_peak = max(
        8 * math.prod(abs(s - b) for s in inp.linear_shifts)
        for b in range(-linear_z, linear_z + 1)
        if b not in inp.linear_shifts
    )
    A, B = inp.curve
    ell_x = 3000
    M = inp.extremal_M
    pi2_x = 100_000
    theorem9_x = 100_000
    order_sum_P = 20_000

    def t1_check(out):
        m = out["moment"]
        n = m["parameters"]["N"]
        return _fail_unless(n == len(inp.t1_values) and m["lhs"] >= n, f"T1 lhs {m['lhs']} < N {n}")

    def terms_check(out):
        m = out["moment"]
        return _fail_unless(m["lhs"] >= m["parameters"]["terms"] > 0, "moment lhs below its term count")

    def sieve_check(out):
        return _fail_unless(out["pi"] == oracle.pi(inp.sieve_limit), f"pi {out['pi']} != oracle")

    def alphas_check(out):
        return _fail_unless(
            all(e["count"] > 0 and e["mean_ratio"] >= 1 for e in out["entries"]), "empty or sub-unit alpha sweep"
        )

    def extremal_check(out):
        odd_multiples = (M // EXTREMAL_Q + 1) // 2
        return _fail_unless(
            out["Q"] == EXTREMAL_Q and out["count"] == odd_multiples and out["mean_ratio"] >= 15 / 8,
            f"extremal Q={out['Q']} count={out['count']} != {EXTREMAL_Q}/{odd_multiples}",
        )

    def elliptic_check(out):
        m = out["moment"]
        pi_x = oracle.pi(ell_x)
        return _fail_unless(
            m["rhs_core"] == pi_x
            and m["lhs"] >= pi_x
            and out["hasse_min_margin"] > 0
            and sum(out["census"].values()) == pi_x,
            "T5 below pi(x), Hasse margin not positive, or census does not sum to pi(x)",
        )

    def frontier_check(out):
        n_a = out["estimates"][0]["parameters"]["N_A"]
        return _fail_unless(n_a == 17, f"N_A {n_a} != 17 powers of 2 up to 65536")

    def theorem9_check(out):
        p = out["estimates"][0]["parameters"]
        return _fail_unless(p["N_A"] == 5 and p["pi_x"] == oracle.pi(theorem9_x), f"T9 parameters {p}")

    def pi2_check(out):
        ps = oracle.primes_upto(pi2_x)
        expected = sum(1 for p in ps if oracle.is_prime(int(p) + inp.pi2_shift))
        return _fail_unless(out["count"] == expected, f"pi_2 {out['count']} != {expected}")

    def order_sum_check(out):
        expected = oracle.order_weighted_sum(2, 2, order_sum_P)
        return _fail_unless(
            math.isclose(out["value"], expected, rel_tol=1e-12), f"order sum {out['value']} != {expected}"
        )

    def lemmas_check(out):
        return _fail_unless(all(r["pass"] for r in out["records"]), "a lemma record failed")

    def verify_check(out):
        return _fail_unless(out["all_pass"] is True, "verify-all reported a failure")

    t1 = ["moments", "--report", "theorem1", "--seq", f"explicit:@{values_file}", "--x", str(t1_x), "--s", "2"]
    t1_limit = max(v for v in inp.t1_values if v <= t1_x)
    extremal_yz = ["extremal", "--M", str(M), "--y", "2.2", "--z", "6.9"]
    elliptic = ["elliptic", f"--curve={A},{B}", "--x", str(ell_x), "--s", "1", "--census-mod", "4"]
    return [
        Call("sieve", ["sieve", "--limit", str(inp.sieve_limit)], check=sieve_check),
        Call("theorem1", t1, sieve_limit=t1_limit, check=t1_check),
        Call(
            "poly",
            ["moments", "--report", "poly", "--poly", f"1,0,{inp.poly_constant}", "--z", str(poly_z), "--s", "2"],
            sieve_limit=poly_z**2 + inp.poly_constant,
            check=terms_check,
        ),
        Call(
            "linear",
            ["moments", "--report", "linear", "--a", "2", "--bs=" + ",".join(map(str, inp.linear_shifts)),
             "--z", str(linear_z), "--s", "1", "--x", "1000"],
            sieve_limit=linear_peak,
            check=terms_check,
        ),
        Call("alpha_sweep", ["extremal", "--M", str(M), "--alphas", "0.5,0.45,0.4"], sieve_limit=M,
             check=alphas_check),
        Call("extremal", extremal_yz, sieve_limit=M, check=extremal_check),
        Call("elliptic", elliptic, sieve_limit=1 + 2 * ell_x, check=elliptic_check),
        Call("frontier", ["romanoff", "--report", "frontier", "--seq", "geom:2", "--x", "65536"],
             check=frontier_check, seeded=False),
        Call("theorem9", ["romanoff", "--report", "theorem9", "--a", "2", "--b", "2", "--x", str(theorem9_x)],
             check=theorem9_check, seeded=False),
        Call("schnirelmann", ["romanoff", "--report", "schnirelmann", "--a", str(inp.pi2_shift),
                              "--x", str(pi2_x)], check=pi2_check),
        Call("order_sum", ["romanoff", "--report", "order-sum", "--a", "2", "--b", "2", "--P", str(order_sum_P)],
             sieve_limit=order_sum_P, check=order_sum_check, seeded=False),
        Call("lemmas", ["lemmas", "--gamma", "--s-max", "6", "--abel", "--seed", str(seed)], check=lemmas_check),
        Call("verify_all", ["verify-all", "--seed", str(seed)], check=verify_check),
        Call("theorem1_again", t1, sieve_limit=t1_limit, check=t1_check, same_stdout_as="theorem1"),
        Call("usage_error", ["moments", "--report", "theorem1"], expect_exit=2, seeded=False),
        Call("budget_error", ["romanoff", "--report", "profile", "--seq", "poly:1,0,0", "--x", "100000",
                              "--budget", "10"], expect_exit=3, seeded=False),
        Call("extremal_corrupt", extremal_yz, sieve_limit=M, check=extremal_check, corrupt_first=True,
             same_stdout_as="extremal"),
        Call("elliptic_again", elliptic, sieve_limit=1 + 2 * ell_x, check=elliptic_check,
             same_stdout_as="elliptic"),
    ]


def _cache_file(cache: Path, limit: int) -> Path | None:
    found = [p for p in cache.glob("spf*") if p.stem.endswith(f"-{limit}") and p.suffix != ".tmp"]
    return found[0] if found else None


def _corrupt(path: Path) -> None:
    data = bytearray(path.read_bytes())
    mid = len(data) // 2
    data[mid : mid + 64] = bytes(b ^ 0xFF for b in data[mid : mid + 64])
    path.write_bytes(bytes(data))


def run_call(call: Call, command: list[str], env: dict, cache: Path) -> Outcome:
    """One call, timed from launch to exit, with its cache outcome checked."""
    errors: list[str] = []
    state = None
    before = None
    if call.sieve_limit is not None:
        path = _cache_file(cache, call.sieve_limit)
        if path is None:
            state = "miss"
        else:
            if call.corrupt_first:
                _corrupt(path)
            state = "corrupt" if call.corrupt_first else "hit"
            before = path.read_bytes()
    if call.corrupt_first and state != "corrupt":
        errors.append("no cached table to corrupt before the call")
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        command + call.argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CALL_TIMEOUT_S
    )
    seconds = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    if call.sieve_limit is not None:
        path = _cache_file(cache, call.sieve_limit)
        after = path.read_bytes() if path is not None else None
        if after is None:
            errors.append(f"no cached spf table for limit {call.sieve_limit} after the call ({state})")
        elif state == "hit" and after != before:
            errors.append("a cache hit rewrote the table")
        elif state == "corrupt" and after == before:
            errors.append("a corrupt table was not rebuilt")
    if proc.returncode != call.expect_exit:
        errors.append(f"exit {proc.returncode}, expected {call.expect_exit}: {proc.stderr.decode()[-300:]}")
    return Outcome(call, seconds, proc.returncode, proc.stdout, state, cpu, errors)


def check_outcome(out: Outcome, by_name: dict[str, Outcome]) -> list[str]:
    """Invariants on one call's stdout; ``by_name`` holds the round's earlier calls."""
    call = out.call
    if call.expect_exit != 0:
        return _fail_unless(out.stdout == b"", "an error call wrote to stdout")
    try:
        parsed = json.loads(out.stdout)
    except ValueError:
        return ["stdout is not JSON"]
    errors = _fail_unless(
        out.stdout.decode() == json.dumps(parsed, sort_keys=True, indent=2) + "\n",
        "stdout is not sorted, indented, newline-terminated JSON",
    )
    if call.check is not None:
        errors += call.check(parsed)
    if call.same_stdout_as is not None:
        errors += _fail_unless(
            out.stdout == by_name[call.same_stdout_as].stdout, f"stdout differs from {call.same_stdout_as}"
        )
    return errors


def cli_command(traced_spans: Path | None) -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-m", "romanoff_lab"]
    return [sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py"), str(traced_spans)]


def child_env(src: Path, cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ROMANOFF_LAB_CACHE"] = str(cache)
    return env
