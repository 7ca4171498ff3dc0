"""Explicit extremal sets with large average totient ratio.

Given a window (y, z] containing at least one prime, the set collects every
n <= M that is divisible by all primes in the window and coprime to all
primes <= y.  Each member then has n/phi(n) at least prod_{y<p<=z} (1-1/p)^-1,
which grows like log z / log y, so shrinking y relative to z drives the mean
ratio up: the tightness witness for the moment-sum bound's prime cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConstructionError, ParameterError, check_finite, check_integer
from .moments import _ratio_power_fsum
from .sieve import FactorSieve, PrimeList


@dataclass(frozen=True)
class ExtremalSet:
    """Construction output; empty (and flagged) when Q > M, and then Q is the
    product of the window's least primes that first exceeds M.

    mean_ratio is the correctly rounded sum of the members' n/phi(n)
    (``float_sum``, the bits math.fsum gives) divided by their count (None
    for an empty set).
    """

    M: int
    y: float
    z: float
    Q: int
    members: tuple[int, ...]
    mean_ratio: float | None

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def count(self) -> int:
        return len(self.members)


def construct_extremal_set(
    M: int, y: float, z: float, sieve: FactorSieve
) -> ExtremalSet:
    """Members are exactly {n <= M : Q | n and no prime <= y divides n},
    where Q is the product of the primes in (y, z].

    Q is formed in ascending order of the primes and compared to M after
    each one, before any enumeration; at the first partial product above M the
    set is empty and flagged, with that product as Q, rather than an error.
    The primes up to z come from one PrimeList, so a z above its cap (10^8)
    raises CapacityError before any table is built.
    """
    M = check_integer("M", M, 1)
    check_finite("z", z)
    if not y >= 2:  # false for nan too
        raise ParameterError(f"y={y} must be >= 2")
    if z <= y:
        raise ParameterError(f"need z > y, got y={y}, z={z}")
    primes = PrimeList.build(math.floor(z))
    Q = 1
    for step in primes.steps(primes.limit, above=y):
        for p in step.tolist():
            Q *= p
            if Q > M:
                return ExtremalSet(M=M, y=y, z=z, Q=Q, members=(), mean_ratio=None)
    if Q == 1:
        raise ConstructionError(f"no prime in the window ({y}, {z}]")
    if M > sieve.limit:
        raise CapacityError(f"M={M} exceeds sieve limit {sieve.limit}")
    keep = np.ones(M // Q, dtype=bool)  # keep[k - 1]: is Qk a member
    for p in primes.upto(y).tolist():  # y < the least prime of the window <= limit
        keep[p - 1 :: p] = False  # Q has no prime <= y, so p | Qk iff p | k
    members = Q * (np.flatnonzero(keep) + 1)
    mean_ratio = _ratio_power_fsum(members, 1, sieve) / len(members)
    return ExtremalSet(
        M=M, y=y, z=z, Q=Q, members=tuple(members.tolist()), mean_ratio=mean_ratio
    )


@dataclass(frozen=True)
class AlphaSweepEntry:
    alpha: float
    y: float
    z: float
    Q: int
    count: int
    mean_ratio: float
    empirical_c: float  # mean_ratio * alpha; the window-shrinking constant


def alpha_sweep(
    M: int, alphas: list[float], sieve: FactorSieve
) -> list[AlphaSweepEntry]:
    """Run the construction at y = (ln M)^alpha, z = (ln M)/2 for each alpha.

    Requires y >= 2 and y < z for every alpha (the proof regime); the
    recorded empirical_c = mean_ratio * alpha measures the constant in
    mean_ratio >= c / alpha.
    """
    log_m = math.log(M) if check_integer("M", M) >= 1 else 0.0
    built: dict[int, ExtremalSet] = {}  # z is fixed: the set follows floor(y)
    out = []
    for alpha in alphas:
        if not 0 < alpha <= 0.5:
            raise ParameterError(f"alpha={alpha} must lie in (0, 1/2]")
        y = log_m**alpha
        z = log_m / 2
        if y < 2 or y >= z:
            raise ParameterError(
                f"alpha={alpha} gives y={y:.4f}, z={z:.4f}; need 2 <= y < z"
            )
        key = math.floor(y)
        if key not in built:
            built[key] = construct_extremal_set(M, y, z, sieve)
        # never empty: Q <= e^theta(z) < M^0.509 < M, as theta(z) < 1.01624 z (Rosser-Schoenfeld 1962)
        ext = built[key]
        out.append(AlphaSweepEntry(alpha, y, z, ext.Q, ext.count, ext.mean_ratio, ext.mean_ratio * alpha))
    return out
