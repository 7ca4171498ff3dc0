"""Seeded input generator for every workload.

The benchmark draws all inputs here, from the workload seed alone, and hands
romanoff_lab only the finished values: the same seed gives the same inputs on
every machine and Python version (``random.Random`` seeded with a string is
deterministic and independent of PYTHONHASHSEED).  Draws are chosen so that
the cost of every operation hardly depends on the seed: sizes are fixed, only
values move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the sieve every moments report shares; the random T1 list spreads its spf
# lookups over 4 * 2e6 bytes, beyond a 2 MiB L2
MOMENTS_SIEVE = 2 * 10**6
T1_RANDOM_COUNT = 75_000
POLY_Z = 1400  # |n^2 + c| <= 1400^2 + 20 stays below MOMENTS_SIEVE
DELTA_Z = 400  # 2^3 * 420 * 420 stays below MOMENTS_SIEVE

PROFILE_X = 10**6
EXPLICIT_PROFILE_TERMS = 1500
FRONTIER_X = 10**6
EXPLICIT_FRONTIER_TERMS = 600


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def nonsingular_curves(rng: random.Random, count: int, bound: int = 50) -> list[tuple[int, int]]:
    """Distinct (A, B) with |A|, |B| <= bound, skipping 4A^3 + 27B^2 = 0 and (1, 1)."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        if 4 * a**3 + 27 * b**2 == 0 or (a, b) == (1, 1) or (a, b) in out:
            continue
        out.append((a, b))
    return out


def explicit_set(rng: random.Random, count: int, high: int) -> list[int]:
    """``count`` distinct integers from [1, high], ascending, one from each of
    ``count`` equal bins, so the pair work sum of pi(x - a) hardly moves with
    the seed (a plain sample moved it by 5 % and the T6 time with it)."""
    width = high // count
    return [k * width + rng.randint(1, width) for k in range(count)]


def distinct_shifts(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    return sorted(rng.sample(range(low, high + 1), count))


@dataclass(frozen=True)
class MomentsInputs:
    t1_list: list[int]
    poly_constant: int
    delta_shifts: list[int]


@dataclass(frozen=True)
class CurvesInputs:
    curves: list[tuple[int, int]]  # (1, 1) first, then the seeded curves


@dataclass(frozen=True)
class ProfilesInputs:
    profile_set: list[int]
    frontier_set: list[int]
    pi2_shifts: list[int]


@dataclass(frozen=True)
class CliInputs:
    sieve_limit: int
    t1_values: list[int]
    poly_constant: int
    linear_shifts: list[int]
    extremal_M: int
    curve: tuple[int, int]
    pi2_shift: int


def moments_inputs(seed: int) -> MomentsInputs:
    rng = _rng("moments", seed)
    return MomentsInputs(
        t1_list=[rng.randint(1, MOMENTS_SIEVE) for _ in range(T1_RANDOM_COUNT)],
        poly_constant=rng.randint(1, 20),
        delta_shifts=distinct_shifts(rng, 2, -20, 20),
    )


def curves_inputs(seed: int) -> CurvesInputs:
    rng = _rng("curves", seed)
    return CurvesInputs(curves=[(1, 1)] + nonsingular_curves(rng, 2))


def profiles_inputs(seed: int) -> ProfilesInputs:
    rng = _rng("profiles", seed)
    return ProfilesInputs(
        profile_set=explicit_set(rng, EXPLICIT_PROFILE_TERMS, PROFILE_X),
        frontier_set=explicit_set(rng, EXPLICIT_FRONTIER_TERMS, FRONTIER_X),
        pi2_shifts=[2 * a for a in distinct_shifts(rng, 3, 1, 500)],
    )


def cli_inputs(seed: int) -> CliInputs:
    rng = _rng("cli_batch", seed)
    return CliInputs(
        sieve_limit=rng.randint(5 * 10**5, 10**6),
        t1_values=[rng.randint(1, 50_000) for _ in range(3000)],
        poly_constant=rng.randint(1, 20),
        linear_shifts=distinct_shifts(rng, 2, -20, 20),
        extremal_M=rng.randint(150_000, 200_000),
        curve=nonsingular_curves(rng, 1)[0],
        pi2_shift=2 * rng.randint(1, 100),
    )
