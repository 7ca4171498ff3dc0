"""Prime and factorization infrastructure shared by every other module.

The two core tables are :class:`FactorSieve` (smallest prime factor of every
n up to a limit) and :class:`PrimeList` (ascending primes up to a limit).
Both are immutable after construction and safe to share across threads.
There is one sieve loop, the odd-only Eratosthenes mask in
:meth:`PrimeList.build`, and every list of primes comes from it; the spf
table is filled from its primes up to sqrt(limit). Three readers take its
entries: the numpy spf walk ``FactorSieve._peel`` (in the table's uint32; it
serves sparse totients and the order lanes), ``FactorSieve._totient_table``
(every entry up to a dense list's max) and ``factorize``. Each raises
TableIntegrityError unless each entry it reads divides its n and names a
prime (spf[p] == p) no smaller than the one before. A composite entry that
names its own index still reads as a prime.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import CapacityError, ParameterError, RangeError, TableIntegrityError, check_finite

# Hard cap on sieve size; spf entries are 32-bit, so 1e8 costs 400 MB.
DEFAULT_LIMIT_CAP = 10**8

_SPF_CACHE_MAGIC = b"RLSPF001"

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_DENSE_SPAN = 4  # FactorSieve.totient_route's density rule


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


def check_integer(value) -> int:
    """``value`` as a Python int; ParameterError for anything else. A float
    is refused whole, integral or not, as table limits are."""
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"value {value!r} is not an integer")
    return int(value)


def int64_values(values) -> np.ndarray:
    """``values`` as a flat int64 array; check_integer's rule for each entry,
    and RangeError for an integer beyond int64. A list is read in one pass
    by array('q'). It refuses a float, a str and an int beyond int64, and
    the checks below then name the entry; it takes an object with
    ``__index__`` (a sympy Integer), which they would refuse."""
    if isinstance(values, list):
        # imported on first use: loaded at start-up, it moved the memory
        # layout of list-free runs, and the bench's profiles ops ran 5 % slower
        from array import array

        try:
            return np.frombuffer(array("q", values), dtype=np.int64)
        except (TypeError, OverflowError):
            pass  # the checks below name the entry
    arr = np.asarray(values).ravel()
    if arr.dtype.kind not in "iu" or arr.dtype == np.uint64:
        # numpy holds [5, 2**63] as float64 and [2**63] as uint64: read the values
        arr = np.asarray(values, dtype=object).ravel()
        for v in arr.tolist():
            if not -(2**63) <= check_integer(v) < 2**63:
                raise RangeError(f"n={v} is beyond int64")
    return arr.astype(np.int64, copy=False)


# past this trial divisor, factorize_trial asks is_prime about the cofactor
_TRIAL_CERTIFY_FROM = 2**16


def factorize_trial(n: int) -> list[tuple[int, int]]:
    """Factor n by trial division; (prime, exponent) pairs in ascending order.

    One divide-out step serves every divisor: 2, 3, 5, then 6k +- 1. Once
    the divisor passes _TRIAL_CERTIFY_FROM, a cofactor that is_prime
    certifies ends the search (tested again whenever it shrinks); one beyond
    the reach of is_prime is trial-divided to the end. Inputs below 2^32
    never get that far and do no extra work.
    """
    if n < 1:
        raise ParameterError(f"cannot factor n={n}")
    out = []
    d, step = 2, 1  # 2, 3, 5, then alternately +2 and +4: 7, 11, 13, 17, ...
    certify = True
    root = math.isqrt(n)  # d <= root, in place of d * d <= n on every step
    while d <= root:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            root = math.isqrt(n)
            certify = True
        elif d > _TRIAL_CERTIFY_FROM and certify:
            certify = False
            try:
                if is_prime(n):
                    break
            except CapacityError:
                pass
        d += step
        step = 6 - step if d > 5 else 2
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
        """(prime, exponent) pairs of n in ascending prime order; each entry
        read must pass the integrity rule of ``_peel``."""
        self.check_range(n)
        out = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            if p < 2 or n % p or int(spf[p]) != p or (out and p <= out[-1][0]):
                raise TableIntegrityError(f"spf entry {p} at n={n} is not its least prime")
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def distinct_primes(self, n: int) -> list[int]:
        return [p for p, _ in self.factorize(n)]

    def _peel(self, n: np.ndarray):
        """Spf walk over the values of ``n`` above 1, in the table's uint32:
        each pass yields (idx, p, repeat), the positions still above 1, the
        prime p = spf[rem] each one loses and whether it lost p on the
        previous pass, then rem //= p. The caller keeps every value in
        [0, limit], and limit <= 10^8 < 2^32.

        TableIntegrityError for an entry below 2, one not dividing its n, a
        peeled p with spf[p] != p, a p below the previous pass's prime, or
        running out of passes (valid entries need fewer than limit's bits).
        With one entry spf[m] = e wrong and the rest right, a walk that
        reaches m raises: a composite proper divisor e fails spf[e] == e,
        read where rem // e > 1, since a lane that ends has e = rem; a prime
        e above the least prime q of m leaves q in m // e, so the next pass
        peels a prime at most q < e. A composite m with spf[m] = m is not
        seen: it reads as a prime, and phi(m) as m - 1.
        """
        spf = self.spf
        idx = np.flatnonzero(n > 1)
        rem = n.take(idx).astype(np.uint32)
        last = np.zeros(idx.size, dtype=np.uint32)
        for _ in range(self.limit.bit_length()):
            if not idx.size:
                return
            p = spf.take(rem)
            if p.min() < 2:
                break
            rem, r = np.divmod(rem, p)
            keep = np.flatnonzero(rem > 1)
            stay = p.take(keep)
            if (
                np.count_nonzero(r)
                or np.count_nonzero(p < last)
                or np.count_nonzero(spf.take(stay) != stay)
            ):
                break
            yield idx, p, p == last
            idx, rem, last = idx.take(keep), rem.take(keep), stay
        raise TableIntegrityError("an spf entry is not the least prime of its n")

    def _walk_totients(self, n: np.ndarray) -> np.ndarray:
        phi = np.ones(n.shape, dtype=np.int64)
        for idx, p, repeat in self._peel(n):
            phi[idx] *= p - ~repeat  # p on a repeat of the last pass's prime, else p - 1
        return phi

    def _totient_table(self, top: int) -> np.ndarray:
        """phi(n) for 0 <= n <= top in uint32 (phi(0) unused) by the least
        prime recursion phi(n) = phi(m) * (p if spf[m] == p else p - 1),
        p = spf[n], m = n // p, in chunks [lo, hi) with hi <= 2 lo, so each m
        is filled before its n. TableIntegrityError unless, for every n in
        [2, top], p >= 2, p | n, spf[p] == p and spf[m] >= p exactly where m > 1."""
        spf = self.spf
        phi = np.ones(top + 1, dtype=np.uint32)
        lo = 2
        while lo <= top:
            hi = min(2 * lo, lo + 2**16, top + 1)  # 2^16 bounds the temporaries
            p = spf[lo:hi]
            m, r = np.divmod(np.arange(lo, hi, dtype=np.uint32), np.maximum(p, 1))
            q = spf.take(m)  # spf[1] < 2 where n is prime
            bad = p.min() < 2 or np.count_nonzero(r) or np.count_nonzero(spf.take(p) != p)
            if bad or np.count_nonzero((q < p) != (m == 1)):
                raise TableIntegrityError("an spf entry is not the least prime of its n")
            phi[lo:hi] = phi.take(m) * (p - (q != p))
            lo = hi
        return phi

    def totient_route(self, values) -> Callable[[np.ndarray], np.ndarray]:
        """phi in int64 of any part of ``values``, by a route picked once for
        the list; RangeError at once for a value outside [1, limit]. A list
        whose max is at most _DENSE_SPAN times its length is gathered from
        ``_totient_table``, which reads every spf entry in [2, max] (on random
        sorted lists up to 2*10^6 it beat the walk at every span up to 4 and
        lost at 8, BENCH_31); any other walks the spf path of each part."""
        n = int64_values(values)
        if n.size and (n.min() < 1 or n.max() > self.limit):
            bad = n[(n < 1) | (n > self.limit)][0]
            raise RangeError(f"n={bad} outside sieve range [1, {self.limit}]")
        if n.size and n.max() <= _DENSE_SPAN * n.size:
            table = self._totient_table(int(n.max()))
            return lambda part: table.take(part).astype(np.int64)
        return self._walk_totients

    def totients(self, values) -> np.ndarray:
        """phi(n) for every n in ``values``, flat in int64, by ``totient_route``."""
        n = int64_values(values)
        return self.totient_route(n)(n)


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


_WHEEL = 3 * 5 * 7 * 11 * 13  # odd multiples of these primes repeat with this period
_SEGMENT = 70 * _WHEEL  # odd numbers per segment of the prime sieve: 1 MB, within L2


def _sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit >= 2: an odd-only Eratosthenes mask, sieved a segment at
    a time by the odd primes up to sqrt(limit) (found the same way), written into one
    array sized by Dusart's pi(x) <= x / ln x * (1 + 1.2762 / ln x), x > 1, then shrunk."""
    base = _sieve_primes(math.isqrt(limit))[6:].tolist() if limit >= 17**2 else []
    log = math.log(limit)
    values = np.empty(int(limit / log * (1 + 1.2762 / log)) + 1, dtype=np.int64)
    size, count = (limit + 1) // 2, 0
    wheel = np.ones(_WHEEL, dtype=bool)
    for p in (3, 5, 7, 11, 13):
        wheel[p // 2 :: p] = False
    mask = np.empty(-(-min(size, _SEGMENT) // _WHEEL) * _WHEEL, dtype=bool)
    for lo in range(0, size, _SEGMENT):
        mask.reshape(-1, _WHEEL)[:] = wheel
        mask[[1, 2, 3, 5, 6]] = not lo  # 3, 5, 7, 11 and 13 at lo = 0, multiples after
        seg = mask[: size - lo]  # seg[i] stands for 2 (lo + i) + 1
        for p in base:
            start = p * p // 2  # the index of p^2, then every p-th index
            seg[max(start - lo, (start - lo) % p) :: p] = False
        for j in range(0, len(seg), 2**16):  # found stays small, in reused memory
            found = np.flatnonzero(seg[j : j + 2**16])
            found *= 2
            found += 2 * (lo + j) + 1
            values[count : count + len(found)] = found
            count += len(found)
    values[0] = 2  # the index of 1 stands for 2
    values.resize(count, refcheck=False)
    values.setflags(write=False)  # shared read-only across threads
    return values


# primes per step of a walk over a PrimeList: a 512 KB int64 view
_PRIME_STEP = 2**16


@dataclass(frozen=True)
class PrimeList:
    """Ascending array of all primes up to ``limit``, read through ``steps`` or ``ints``."""

    limit: int
    values: np.ndarray

    @classmethod
    def build(cls, limit: int) -> "PrimeList":
        _check_limit("prime table", limit)
        return cls(limit=limit, values=_sieve_primes(limit))

    def check_range(self, x: float, name: str = "x") -> None:
        check_finite(name, x)
        if x > self.limit:
            raise RangeError(f"{name}={x} exceeds prime table limit {self.limit}")

    def count_leq(self, x: float) -> int:
        """pi(x) restricted to this table."""
        self.check_range(x)
        return int(np.searchsorted(self.values, math.floor(x), side="right"))

    def upto(self, x: float) -> np.ndarray:
        """All primes <= x, as an int64 array view."""
        return self.values[: self.count_leq(x)]

    def steps(self, x: float, above: float = 0) -> Iterator[np.ndarray]:
        """The primes p with above < p <= x, ascending, as int64 views of
        _PRIME_STEP primes each; RangeError at once for x beyond the table."""
        ps = self.upto(x)[np.searchsorted(self.values, above, side="right") :]
        return (ps[i : i + _PRIME_STEP] for i in range(0, len(ps), _PRIME_STEP))

    def ints(self, x: float, above: float = 0) -> Iterator[int]:
        """The primes of ``steps`` as Python ints, one step in memory at a time."""
        return chain.from_iterable(step.tolist() for step in self.steps(x, above))

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
    plus = math.exp(math.fsum(math.log1p(1.0 / p) for p in primes.ints(x)))
    minus = math.exp(-math.fsum(math.log1p(-1.0 / p) for p in primes.ints(x)))
    lx = math.log(x)
    return MertensProducts(plus, minus, plus / lx, minus / lx)


def chebyshev_theta(x: float, primes: PrimeList) -> float:
    """theta(x) = sum of log p over primes p <= x."""
    if x < 2:
        raise ParameterError(f"x={x} must be >= 2")
    return math.fsum(map(math.log, primes.ints(x)))


# CSV lines formatted by one % operation
_CSV_ROWS = 2**16


def _write_csv(stream, header: str, first, second) -> None:
    """The header, then a "first,second" line per row of two int columns."""
    stream.write(header)
    for i in range(0, len(first), _CSV_ROWS):
        a, b = first[i : i + _CSV_ROWS], second[i : i + _CSV_ROWS].tolist()
        row = [0] * (2 * len(b))
        row[::2], row[1::2] = a if isinstance(a, range) else a.tolist(), b
        stream.write("%d,%d\n" * len(b) % tuple(row))


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
    """base^e mod p lane by lane for e >= 0 (1 where e = 0), in fixed 3-bit
    windows of e: a table of base^0, ..., base^7, then from the top window
    down three squarings and one product with the table entry of the window."""
    n = len(base)
    table = np.empty((8, n), dtype=np.int64)
    table[0], table[1] = 1, base % p
    for d in range(2, 8):
        np.multiply(table[d - 1], table[1], out=table[d])
        table[d] %= p
    table, lane = table.reshape(-1), np.arange(n)
    top = max(int(e.max(initial=0)).bit_length() - 1, 0) // 3 * 3
    result = table.take((e >> top) * n + lane)
    for shift in range(top - 3, -1, -3):
        for _ in range(3):
            result *= result
            result %= p
        result *= table.take((e >> shift & 7) * n + lane)
        result %= p
    return result


def _isqrt_lanes(n: np.ndarray) -> np.ndarray:
    """isqrt(n) lane by lane for 0 <= n < 2^52: float64 holds such n exactly,
    and the floor of its rounded square root is off by at most one."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r
