"""Prime and factorization infrastructure shared by every other module.

The two core tables are :class:`FactorSieve` (smallest prime factor of every
n up to a limit) and :class:`PrimeList` (ascending primes up to a limit).
Both are immutable after construction and safe to share across threads.
There is one sieve loop, the Eratosthenes mask in :meth:`PrimeList.build`;
the spf table is filled from its primes up to sqrt(limit).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ParameterError, RangeError, TableIntegrityError

# Hard cap on sieve size; spf entries are 32-bit, so 1e8 costs 400 MB.
DEFAULT_LIMIT_CAP = 10**8

_SPF_CACHE_MAGIC = b"RLSPF001"

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_DETERMINISTIC_BOUND:
        raise CapacityError(f"primality test not deterministic for n={n}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_finite(name: str, value: float) -> None:
    """ParameterError for nan or +-inf; unlike math.isfinite, takes ints of any size."""
    if not -math.inf < value < math.inf:
        raise ParameterError(f"{name}={value} is not a finite number")


# past this trial divisor, factorize_trial asks is_prime about the cofactor
_TRIAL_CERTIFY_FROM = 2**16


def factorize_trial(n: int) -> list[tuple[int, int]]:
    """Factor n by trial division; (prime, exponent) pairs in ascending order.

    Once the divisor passes _TRIAL_CERTIFY_FROM, a cofactor that is_prime
    certifies ends the search (tested again whenever it shrinks); one beyond
    the reach of is_prime is trial-divided to the end. Inputs below 2^32
    never get that far and do no extra work.
    """
    if n < 1:
        raise ParameterError(f"cannot factor n={n}")
    out = []
    for d in (2, 3):
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    d = 5
    step = 2
    certify = True
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            certify = True
        elif d > _TRIAL_CERTIFY_FROM and certify:
            certify = False
            try:
                if is_prime(n):
                    break
            except CapacityError:
                pass
        d += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return out


def _phi(factors: list[tuple[int, int]]) -> int:
    """Euler's totient from the (prime, exponent) pairs of n."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in factors)


def totient_trial(n: int) -> int:
    """Euler's totient phi(n) by trial division, for n outside any sieve."""
    return _phi(factorize_trial(n))


@dataclass(frozen=True)
class FactorSieve:
    """Smallest-prime-factor table for all n in [2, limit].

    spf[n] divides n, spf[n] == n exactly when n is prime, and for composite
    n the entry never exceeds sqrt(n).  spf[0] and spf[1] are unused zeros.
    """

    limit: int
    spf: np.ndarray

    def check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise RangeError(f"n={n} outside sieve range [1, {self.limit}]")

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """(prime, exponent) pairs of n in ascending prime order."""
        self.check_range(n)
        out = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            if p < 2 or n % p:
                raise TableIntegrityError(f"spf entry {p} at n={n} does not factor it")
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def distinct_primes(self, n: int) -> list[int]:
        return [p for p, _ in self.factorize(n)]

    def is_prime(self, n: int) -> bool:
        self.check_range(n)
        return n >= 2 and int(self.spf[n]) == n

    def primes(self, x: int) -> "PrimeList":
        """The primes up to x, read off the table: n <= sqrt(x) is prime when
        spf[n] == n, and n above sqrt(x) when spf[n] > sqrt(x), since a
        composite's entry never exceeds sqrt(n). No second sieve runs."""
        self.check_range(x)
        r = math.isqrt(x)
        head = np.flatnonzero(self.spf[2 : r + 1] == np.arange(2, r + 1)) + 2
        tail = np.flatnonzero(self.spf[r + 1 : x + 1] > r) + (r + 1)
        values = np.concatenate([head, tail], dtype=np.int64)
        values.setflags(write=False)
        return PrimeList(limit=x, values=values)

    def totients(self, values) -> np.ndarray:
        """phi(n) for every n in ``values``, as a flat int64 array.

        Peels one prime factor per pass: p = spf[rem], phi *= p when p
        repeats the previous pass's prime and p - 1 otherwise, rem //= p.
        Only the listed values are touched, in at most Omega(n) passes over
        a shrinking active set; no phi table is built.
        """
        try:
            n = np.asarray(values, dtype=np.int64).ravel()
        except OverflowError:
            raise RangeError(f"a value exceeds sieve range [1, {self.limit}]") from None
        if n.size and (n.min() < 1 or n.max() > self.limit):
            bad = n[(n < 1) | (n > self.limit)][0]
            raise RangeError(f"n={bad} outside sieve range [1, {self.limit}]")
        phi = np.ones(n.shape, dtype=np.int64)
        idx = np.flatnonzero(n > 1)
        rem = n[idx]
        last = np.zeros_like(rem)
        # each pass divides rem by p >= 2, so a valid table needs fewer passes
        # than limit has bits; the bound keeps a corrupted table from looping
        for _ in range(self.limit.bit_length()):
            if not idx.size:
                break
            p = self.spf[rem].astype(np.int64)
            phi[idx] *= np.where(p == last, p, p - 1)
            rem //= p
            keep = rem > 1
            idx, rem, last = idx[keep], rem[keep], p[keep]
        if idx.size:
            raise TableIntegrityError("spf table does not factor every value")
        return phi


def _sieve_spf(limit: int) -> np.ndarray:
    """Every n starts as its own factor; each prime p <= sqrt(limit) then
    writes p over its multiples from p^2, largest first, so the least wins."""
    spf = np.arange(limit + 1, dtype=np.uint32)
    spf[:2] = 0
    for p in PrimeList.build(max(2, math.isqrt(limit))).values[::-1].tolist():
        spf[p * p :: p] = p
    spf.setflags(write=False)  # shared read-only across threads
    return spf


def _spf_cache_path(cache_dir: str, limit: int) -> str:
    return os.path.join(cache_dir, f"spf-v1-{limit}.tbl")


def _load_cached_spf(path: str, limit: int) -> np.ndarray | None:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_SPF_CACHE_MAGIC))
            if magic != _SPF_CACHE_MAGIC:
                return None
            stored_limit = int.from_bytes(fh.read(8), "little")
            if stored_limit != limit:
                return None
            digest = fh.read(32)
            raw = fh.read()
    except OSError:
        return None
    if hashlib.sha256(raw).digest() != digest:
        return None
    table = np.frombuffer(raw, dtype=np.uint32)
    if table.shape != (limit + 1,):
        return None
    return table


def _store_cached_spf(path: str, limit: int, spf: np.ndarray) -> None:
    raw = spf.tobytes()
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(_SPF_CACHE_MAGIC)
            fh.write(limit.to_bytes(8, "little"))
            fh.write(hashlib.sha256(raw).digest())
            fh.write(raw)
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort


def _check_limit(table: str, limit: int) -> None:
    """A table limit is an integer in [2, DEFAULT_LIMIT_CAP]; a float is
    refused whole, integral or not, rather than failing inside numpy."""
    if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)):
        raise ParameterError(f"{table} limit {limit!r} is not an integer")
    if not 2 <= limit <= DEFAULT_LIMIT_CAP:
        raise CapacityError(f"{table} limit {limit} outside [2, {DEFAULT_LIMIT_CAP}]")


def build_sieve(limit: int, *, cache_dir: str | None = None) -> FactorSieve:
    """Build a FactorSieve for [2, limit].

    ``cache_dir`` (e.g. from ROMANOFF_LAB_CACHE) memoizes the raw table to
    disk with a version tag and checksum; corrupt files are rebuilt.
    """
    _check_limit("sieve", limit)
    if cache_dir:
        path = _spf_cache_path(cache_dir, limit)
        cached = _load_cached_spf(path, limit)
        if cached is not None:
            return FactorSieve(limit=limit, spf=cached)
    spf = _sieve_spf(limit)
    if cache_dir:
        _store_cached_spf(_spf_cache_path(cache_dir, limit), limit, spf)
    return FactorSieve(limit=limit, spf=spf)


@dataclass(frozen=True)
class PrimeList:
    """Ascending array of all primes up to ``limit``."""

    limit: int
    values: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "PrimeList":
        _check_limit("prime table", limit)
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        values = np.nonzero(mask)[0].astype(np.int64)
        values.setflags(write=False)
        return cls(limit=limit, values=values)

    def check_range(self, x: float) -> None:
        check_finite("x", x)
        if x > self.limit:
            raise RangeError(f"x={x} exceeds prime table limit {self.limit}")

    def count_leq(self, x: float) -> int:
        """pi(x) restricted to this table."""
        self.check_range(x)
        return int(np.searchsorted(self.values, math.floor(x), side="right"))

    def upto(self, x: float) -> np.ndarray:
        """All primes <= x, as an int64 array view."""
        return self.values[: self.count_leq(x)]

    def contains(self, n: int) -> bool:
        i = int(np.searchsorted(self.values, n))
        return i < len(self.values) and int(self.values[i]) == n


def totient(n: int, sieve: FactorSieve) -> int:
    """Euler's totient phi(n) = #{1 <= m <= n : gcd(m, n) = 1}."""
    return _phi(sieve.factorize(n))


def totient_ratio(n: int, sieve: FactorSieve) -> Fraction:
    """n / phi(n) as an exact rational (always >= 1)."""
    return Fraction(n, totient(n, sieve))


def nu(n: int, sieve: FactorSieve) -> int:
    """Number of distinct prime divisors; nu(1) = 0."""
    return len(sieve.distinct_primes(n))


def p_plus(n: int, sieve: FactorSieve) -> int:
    """Greatest prime factor of n, with p_plus(1) = 1."""
    primes = sieve.distinct_primes(n)
    return primes[-1] if primes else 1


def p_minus(n: int, sieve: FactorSieve) -> float | int:
    """Least prime factor of n; p_minus(1) is +infinity (math.inf)."""
    primes = sieve.distinct_primes(n)
    return primes[0] if primes else math.inf


def is_squarefree(n: int, sieve: FactorSieve) -> bool:
    """True iff no prime divides n twice."""
    return all(e == 1 for _, e in sieve.factorize(n))


def totient_table(limit: int) -> np.ndarray:
    """phi(n) for all n <= limit via the multiplicative product n*prod(1-1/p).

    Vectorized and exact in integer arithmetic; independent of FactorSieve,
    which makes it a useful cross-check for per-n totient().
    """
    if limit < 1:
        raise ParameterError(f"limit must be >= 1, got {limit}")
    phi = np.arange(limit + 1, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if mask[p]:
            mask[2 * p :: p] = False
            phi[p::p] -= phi[p::p] // p
    return phi


class MertensProducts(NamedTuple):
    plus_product: float
    minus_product: float
    plus_over_log: float
    minus_over_log: float


def mertens_products(x: float, primes: PrimeList) -> MertensProducts:
    """Mertens products over p <= x.

    plus = prod (1 + 1/p), minus = prod (1 - 1/p)^-1; both grow like log x,
    and the returned ratios to log x are the empirical Mertens constants.
    """
    if x < 2:
        raise ParameterError(f"x={x} must be >= 2")
    ps = primes.upto(x).tolist()
    log_plus = math.fsum(math.log1p(1.0 / p) for p in ps)
    log_minus = -math.fsum(math.log1p(-1.0 / p) for p in ps)
    plus = math.exp(log_plus)
    minus = math.exp(log_minus)
    lx = math.log(x)
    return MertensProducts(plus, minus, plus / lx, minus / lx)


def chebyshev_theta(x: float, primes: PrimeList) -> float:
    """theta(x) = sum of log p over primes p <= x."""
    if x < 2:
        raise ParameterError(f"x={x} must be >= 2")
    return math.fsum(math.log(p) for p in primes.upto(x).tolist())


# --- numpy lanes: one prime per lane -----------------------------------------
#
# Lanes multiply two residues mod p in int64; p < 2^31 keeps products below 2^62.
_LANE_PRIME_LIMIT = 2**31


def _residues(n: int, ps: np.ndarray) -> np.ndarray:
    """n mod p for each p of ps, exact for a Python int n of any size."""
    if -(2**62) < n < 2**62:  # numpy's %, like Python's, takes the sign of p
        return np.int64(n) % ps
    return np.array([n % p for p in ps.tolist()], dtype=np.int64)


def _powmod_lanes(base: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e mod p lane by lane, square-and-multiply over the bits of e."""
    result = np.ones_like(base)
    for bit in range(int(e.max(initial=0)).bit_length()):
        result = np.where((e >> bit) & 1 == 1, result * base % p, result)
        base = base * base % p
    return result
