"""One-shot report of the ROADMAP "Baseline" rows.  Not a gated workload.

    python3 bench/baseline.py

Run from the root of a checkout.  Each row calls one public romanoff_lab
function (the last row calls the CLI, which must exit 3) ``REPEAT`` times
and reports the median and the spread of its wall times next to the figure
the ROADMAP recorded, together with the machine record, as one JSON object
on stdout.  It lets a reader check that the harness reproduces the ROADMAP
baseline within noise before any speed-up is claimed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# primes just above 10^3 .. 10^6 for the point-count rows
COUNT_POINTS_PRIMES = (1009, 10_007, 100_003, 1_000_003)
REPEAT = 3


def timed(fn) -> dict:
    samples = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(samples), "min_s": min(samples), "max_s": max(samples)}


def rows(rl) -> list[dict]:
    out = []

    def row(name: str, roadmap_s: float | None, fn) -> None:
        out.append({"row": name, "roadmap_s": roadmap_s, **timed(fn)})

    row("build_sieve 10^6", 0.024, lambda: rl.build_sieve(10**6))
    row("build_sieve 10^7", 0.30, lambda: rl.build_sieve(10**7))
    row("PrimeList.build 10^7", 0.09, lambda: rl.PrimeList.build(10**7))
    row("totient_table 10^6", 0.47, lambda: rl.totient_table(10**6))
    curve = rl.EllipticCurve(1, 1)
    for p, roadmap in zip(COUNT_POINTS_PRIMES, (0.07e-3, 0.28e-3, 3.0e-3, 71e-3)):
        row(f"count_points p={p}", roadmap, lambda p=p: rl.count_points(curve, p))
    sieve = rl.build_sieve(10**5)
    values = list(range(1, 10**5 + 1))
    for s, roadmap in zip((1, 2, 3), (0.89, 1.00, 1.23)):
        row(f"moment_sum 1..10^5 s={s}", roadmap, lambda s=s: rl.moment_sum(values, s, sieve))
    primes = rl.PrimeList.build(10**6)
    squares = rl.Polynomial(rl.PolynomialSpec((0, 0, 1)))
    row("representation_counts squares 10^6", 0.78, lambda: rl.representation_counts(squares, 10**6, primes))

    codes = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "romanoff_lab", "romanoff", "--report", "profile",
               "--seq", "poly:1,0,0", "--x", str(10**7)]

    def capacity_row():
        proc = subprocess.run(command, env=env, capture_output=True, timeout=300)
        codes.append(proc.returncode)

    row("representation_counts squares 10^7 (CLI, must exit 3)", None, capacity_row)
    out[-1]["exit_codes"] = codes
    out[-1]["ok"] = all(c == 3 for c in codes)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    if not (SRC / "romanoff_lab" / "__init__.py").is_file():
        print(f"baseline: no romanoff_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import romanoff_lab

    from machine import machine_record

    report = {"machine": machine_record(), "repeat": REPEAT, "rows": rows(romanoff_lab)}
    for r in report["rows"]:
        ref = f"{r['roadmap_s']:.4g}" if r["roadmap_s"] is not None else "-"
        print(f"  {r['row']:<55} {r['median_s']:.4g} s (roadmap {ref} s)", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0 if report["rows"][-1]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
