"""The tables each library workload shares, and the set-up probe.

Run as ``python bench/setup_tables.py SRC WORKLOAD`` it imports romanoff_lab
from SRC, builds that workload's shared tables, prints ``ready`` and exits.
The caller times process launch to that line, so the probe measures what a
user pays before the first report: interpreter start, ``import
romanoff_lab`` (numpy included) and ``build_sieve`` / ``PrimeList.build``.
"""

from __future__ import annotations

import sys

from inputs import MOMENTS_SIEVE

CURVES_X = 2 * 10**4  # T5 and the census; T6 runs at half of it

# workload -> (sieve limit, prime table limit); None where a workload needs none
TABLES = {
    "moments": (MOMENTS_SIEVE, None),
    "curves": (1 + 2 * CURVES_X, CURVES_X),  # T5 needs spf up to 1 + 2x
    "profiles": (3 * 10**5, 2 * 10**6),
}


def build_tables(rl, workload: str) -> dict:
    sieve_limit, prime_limit = TABLES[workload]
    tables = {}
    if sieve_limit is not None:
        tables["sieve"] = rl.build_sieve(sieve_limit)
    if prime_limit is not None:
        tables["primes"] = rl.PrimeList.build(prime_limit)
    return tables


if __name__ == "__main__":
    src, name = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import romanoff_lab

    build_tables(romanoff_lab, name)
    print("ready", flush=True)
