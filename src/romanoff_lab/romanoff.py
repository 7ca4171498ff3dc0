"""Representation counts r(n) = #{(p, j) : p + a_j = n}, their second
moments and density statistics, and the empirical-constant reports for the
Romanoff-type density bounds, together with the supporting statistics:
shifted-prime counts, multiplicative orders, order-weighted prime sums, and
polynomial root counts modulo m.

r(n) is counted exactly, by shift-and-add of the odd-prime indicator over
windows of 2^19 cells of each parity half: each term adds it, shifted, into the
n of the other parity, and p = 2 once. The adds go into a uint8 block, which a
window with more than 255 terms flushes into an int32 window every 255 terms.
representation_counts fills an int64 r from the windows; theorem6_report folds
them into a histogram of r and theorem9_report counts their nonzero cells.
Neither builds r: beside the prime table (8 bytes per prime) they hold x/2
bytes of indicator, as schnirelmann_pi2 does, and the CLI peaks at 126 MB at
x = 10^8. The orders h_a(p) of an
order-weighted sum are found in numpy lanes, one per prime, peeling p - 1
through the spf walk of FactorSieve (an spf entry that is not the least prime
of its n raises TableIntegrityError); multiplicative_order is the scalar path and
their oracle. A call given no table, or one short of the largest p - 1, builds
one up to the largest p with build_sieve: about 4 bytes per n, so 400 MB at the
10^8 table cap.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, check_at_least
from .moments import PolynomialSpec
from .sieve import (
    _LANE_PRIME_LIMIT,
    FactorSieve,
    PrimeList,
    _isqrt_lanes,
    _powmod_lanes,
    _residues,
    _write_csv,
    build_sieve,
    check_integer,
    factorize_trial,
    is_prime,
    totient_trial,
)
from .sequences import (
    EllipticOrders,
    Explicit,
    PowerTower,
    SequenceSpec,
    congruence_pair_sum,
    elliptic_prime_bound,
    enumerate_terms,
    format_sequence_spec,
    pair_cutoff,
)

# representation_counts work cap, in byte adds of the shift-and-add kernel; a
# budget below 0 is a usage error, while 0 is a cap that any term exceeds
DEFAULT_BUDGET = 10**11

# a term adds at most 1 to a cell, so a uint8 block takes 255 terms; the
# int32 window it flushes into holds r(n) <= N_A <= MAX_GENERATED_TERMS < 2^31
_BLOCK_TERMS = 255

# cells of one parity half per kernel window: a 512 KB block and a 2 MB window
_WINDOW = 2**19

# window cells per np.bincount call of _histogram: a 512 KB intp copy
_HIST_CELLS = 2**16

# order_distribution factors a^n - 1; beyond this exponent the numbers are
# out of honest trial-division reach
DEFAULT_EXPONENT_CAP = 40

ROOT_COUNT_MODULUS_CAP = 10**7


@dataclass(frozen=True)
class RepresentationProfile:
    """r(n) for 1 <= n <= x, as an int64 array with r[0] unused."""

    spec: SequenceSpec
    x: int
    r: np.ndarray

    def total(self) -> int:
        return int(self.r[1:].sum())

    def write_csv(self, stream) -> None:
        _write_csv(stream, "n,r\n", range(1, self.x + 1), self.r[1 : self.x + 1])


@dataclass(frozen=True)
class ConstantEstimate:
    """A measured empirical constant with the inequality side it witnesses."""

    name: str
    value: float
    parameters: dict = field(default_factory=dict)
    direction: str = ""


def representation_counts(
    spec: SequenceSpec,
    x: int,
    primes: PrimeList,
    *,
    budget: int = DEFAULT_BUDGET,
) -> RepresentationProfile:
    """Exact r(n) = #{(p, j) : p + a_j = n} for all n <= x.

    The kernel runs over the odd-prime indicator odd[j] = [2j + 1 prime].
    With c = ceil(a/2), an even term a sends 2j + 1 to the odd n = 2(j + c) + 1
    and an odd term to the even n = 2(j + c). Each parity half of r is filled
    one window of _WINDOW cells at a time: each term a_j <= x - 2 whose shift c
    lies below the window's end adds odd, shifted, into a uint8 block, the
    block goes into an int32 window every 255 terms when the window has more
    than 255 terms, and p = 2 adds 1 at a + 2 for each term. Beside r the
    kernel holds x/2 bytes of indicator and a 2.5 MB block and window.
    ``budget`` caps the work in byte adds: a term a costs x + 1 - a, about
    twice the bytes it touches, and CapacityError is raised before any add
    when the sum exceeds it.
    """
    x = check_integer(x)
    windows = _shift_add_windows(spec, x, primes, budget)
    # the windows tile both halves of r, so r is never zeroed
    r = np.empty(x + 1, dtype=np.int64)
    for n0, counts in windows:
        r[n0 : n0 + 2 * len(counts) : 2] = counts
    return RepresentationProfile(spec=spec, x=x, r=r)


def _shift_add_windows(spec: SequenceSpec, x: int, primes: PrimeList, budget: int):
    """The terms a <= x - 2 of spec, checked against the budget, then an
    iterator of (n0, counts) with counts[i] = r(n0 + 2i), over windows that
    tile the odd n and then the even n from 0; each counts array is
    overwritten by the next window."""
    check_at_least("x", x, 1)
    primes.check_range(x)
    _refuse_curve_orders(spec, x, x - 2, primes, budget)
    terms = enumerate_terms(spec, x - 2, primes) if x >= 3 else []
    cost = len(terms) * (x + 1) - sum(terms)
    if cost > budget:
        raise CapacityError(
            f"{len(terms)} terms cost {cost} byte adds, above budget {budget}"
        )
    return _windows(terms, x, primes)


def _refuse_curve_orders(
    spec: SequenceSpec, x: int, y: float, primes: PrimeList, budget: int
) -> None:
    """Raise CapacityError before curve orders up to y are counted when the
    shift-add to x must exceed the budget: by Hasse, each prime q with
    q + 1 + isqrt(4q) <= x - 2 gives a term a <= x - 2 that costs
    x + 1 - a >= x - q - isqrt(4q). That sum is a lower bound, so no run
    within the budget is refused. A y that is not a finite number >= 1, or a
    table too short for y, is left to raise where the orders are counted."""
    check_at_least("budget", budget, 0)
    if (
        not isinstance(spec, EllipticOrders)
        or not 1 <= y < math.inf
        or primes.limit < elliptic_prime_bound(y)
    ):
        return
    least = 0
    for q in primes.steps(x):  # limit >= elliptic_prime_bound(x - 2) >= x
        r = _isqrt_lanes(4 * q)
        least += int((x - q - r)[q + 1 + r <= x - 2].sum())
    if least > budget:
        raise CapacityError(
            f"curve orders to x={x} cost at least {least} byte adds, above budget {budget}"
        )


def _odd_indicator(n: int, primes: PrimeList) -> np.ndarray:
    """odd[j] = [2j + 1 prime] for 2j + 1 <= n, in (n + 1)/2 bytes."""
    odd = np.zeros((n + 1) // 2, dtype=np.uint8)
    for step in primes.steps(n, above=2):
        odd[step // 2] = 1
    return odd


def _windows(terms: list[int], x: int, primes: PrimeList):
    odd = _odd_indicator(x, primes)
    block = np.empty(_WINDOW, dtype=np.uint8)
    window = np.empty(_WINDOW, dtype=np.int32)
    for start in (1, 0):
        # the n of this half get odd primes from the terms of the other parity
        # and p = 2 from those of their own, at the cell (a + 2) // 2
        shifts = [(a + 1) // 2 for a in terms if a % 2 != start]
        hits = np.array([(a + 2) // 2 for a in terms if a % 2 == start], dtype=np.int64)
        k = (x - start) // 2 + 1
        for lo in range(0, k, _WINDOW):
            hi = min(lo + _WINDOW, k)
            active = shifts[: bisect.bisect_left(shifts, hi)]
            here = hits[np.searchsorted(hits, lo) : np.searchsorted(hits, hi)] - lo
            # len(active) + len(here) is the most any cell can reach
            flush = len(active) + len(here) > _BLOCK_TERMS
            blk = counts = block[: hi - lo]
            blk[:] = 0
            if flush:
                counts = window[: hi - lo]
                counts[:] = 0
            for b in range(0, len(active), _BLOCK_TERMS):
                for c in active[b : b + _BLOCK_TERMS]:
                    j = max(c, lo)
                    blk[j - lo :] += odd[j - c : hi - c]
                if flush:
                    counts += blk
                    blk[:] = 0
            np.add.at(counts, here, 1)
            yield 2 * lo + start, counts


def _histogram(spec: SequenceSpec, x: int, primes: PrimeList, budget: int) -> np.ndarray:
    """hist[t] = #{1 <= n <= x : r(n) = t}, folded window by window; bincount
    reads _HIST_CELLS cells at a time, so its intp copy stays small."""
    hist = np.zeros(1, dtype=np.int64)
    for _, counts in _shift_add_windows(spec, x, primes, budget):
        for s in range(0, len(counts), _HIST_CELLS):
            fold = np.bincount(counts[s : s + _HIST_CELLS], minlength=len(hist))
            fold[: len(hist)] += hist
            hist = fold
    hist[0] -= 1  # n = 0 opens the even half, and r(0) = 0
    return hist


def second_moment(profile: RepresentationProfile) -> int:
    """sum of r(n)^2 over n <= x."""
    r = profile.r[1:]
    return int(np.dot(r, r))


def density_count(profile: RepresentationProfile, threshold: float) -> int:
    """#{n <= x : r(n) >= threshold}; nonincreasing in the threshold."""
    return int(np.count_nonzero(profile.r[1:] >= threshold))


def cauchy_schwarz_holds(profile: RepresentationProfile) -> bool:
    """(sum r)^2 <= #support * sum r^2, exactly in integers."""
    total = profile.total()
    support = density_count(profile, 1)
    return total * total <= support * second_moment(profile)


DEFAULT_C1_GRID = tuple(0.5**k for k in range(11))


def theorem6_report(
    spec: SequenceSpec,
    x: int,
    alpha: float,
    primes: PrimeList,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[ConstantEstimate]:
    """Empirical constants of the Romanoff-type density machinery (T6).

    Emits gamma_1 (halving ratio), gamma_2 (normalized congruence pair sum),
    the normalized second moment of r, and the (c_1, c_2) frontier: for each
    candidate c_1, the fraction of n <= x with r(n) >= c_1 N_A(x)/ln x. Both
    r statistics are read off one histogram of r; r itself is never built.

    A is enumerated once; every statistic reads the literal multiset of its
    terms up to x, which holds the terms up to any y <= x as a prefix.
    """
    x = check_integer(x)
    pair_cutoff(x, alpha, primes)  # every check that needs no term comes first
    _refuse_curve_orders(spec, x, x, primes, budget)
    terms = enumerate_terms(spec, x, primes)
    n_total = len(terms)
    if n_total == 0:
        raise DomainError(f"sequence has no terms <= {x}")
    table = Explicit(tuple(terms))
    base_params = {"sequence": format_sequence_spec(spec), "x": x, "N_A": n_total}
    log_x = math.log(x)

    half_count = bisect.bisect_right(terms, x / 2)
    raw_pairs, gamma2 = congruence_pair_sum(table, x, alpha, primes)
    hist = _histogram(table, x, primes, budget)
    rho = max(Counter(terms).values())
    sq = sum(t * t * h for t, h in enumerate(hist.tolist()))
    sq_norm = sq * log_x**2 / (x * n_total * (rho * log_x + n_total))

    out = [
        ConstantEstimate(
            name="gamma1",
            value=half_count / n_total,
            parameters=dict(base_params, half_count=half_count),
            direction="N_A(x/2) >= gamma1 * N_A(x)",
        ),
        ConstantEstimate(
            name="gamma2",
            value=gamma2,
            parameters=dict(base_params, alpha=alpha, raw=raw_pairs),
            direction="pair_sum <= gamma2 * N_A(x)^2",
        ),
        ConstantEstimate(
            name="second_moment_constant",
            value=sq_norm,
            parameters=dict(base_params, second_moment=sq, rho_A=rho),
            direction="sum r^2 <= C * x/(ln x)^2 * N_A * (rho_A ln x + N_A)",
        ),
    ]
    # at_least[t] = #{n <= x : r(n) >= t}; for integer r, r >= t iff r >= ceil(t)
    at_least = np.cumsum(hist[::-1])[::-1]
    for c1 in DEFAULT_C1_GRID:
        threshold = c1 * n_total / log_x
        t = math.ceil(threshold)
        count = int(at_least[t]) if t < len(at_least) else 0
        out.append(
            ConstantEstimate(
                name="c2_at_c1",
                value=count / x,
                parameters=dict(base_params, c1=c1, threshold=threshold, count=count),
                direction="#{n <= x : r(n) >= c1 N_A/ln x} >= c2 * x",
            )
        )
    return out


class ShiftedPrimeCount(NamedTuple):
    count: int
    normalized: float


def schnirelmann_pi2(x: float, a: int, primes: PrimeList) -> ShiftedPrimeCount:
    """pi_2(x, a) = #{p <= x : p + a prime}, with the classical normalization
    count * (ln x)^2 * phi(a) / (x * a). For odd a only p = 2 can count; for
    even a, an odd p looks up cell p // 2 + a // 2 of the odd-prime indicator."""
    a = check_integer(a)
    check_at_least("shift a", a, 1)
    check_at_least("x", x, 2)
    primes.check_range(x + a)
    if a % 2:
        count = int(primes.contains(2 + a))
    else:
        odd = _odd_indicator(math.floor(x) + a, primes)[a // 2 :]
        count = sum(int(np.count_nonzero(odd[step // 2])) for step in primes.steps(x, above=2))
    normalized = count * math.log(x) ** 2 * totient_trial(a) / (x * a)
    return ShiftedPrimeCount(count, normalized)


def multiplicative_order(a: int, p: int, sieve: FactorSieve | None = None) -> int:
    """Least h >= 1 with a^h = 1 (mod p); divides p - 1.

    Computed by factoring p - 1 (through the sieve when it covers p - 1)
    and descending through the prime divisors.
    """
    check_at_least("a", a, 2)
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    if a % p == 0:
        raise DomainError(f"gcd(a, p) != 1 for a={a}, p={p}")
    covered = sieve is not None and p - 1 <= sieve.limit
    factors = sieve.factorize(p - 1) if covered else factorize_trial(p - 1)
    h = p - 1
    for q, _ in factors:
        while h % q == 0 and pow(a, h // q, p) == 1:
            h //= q
    return h


def _lane_mult_orders(a: int, ps: np.ndarray, sieve: FactorSieve) -> np.ndarray:
    """h_a(p) for each prime p of ps (0 where p divides a): the descent of
    multiplicative_order in numpy lanes, over a sieve that covers every p - 1.
    From h = p - 1, each pass of the spf walk peels q off p - 1; a lane not
    closed on q divides h by q if a^(h/q) = 1 (mod p), else closes on q."""
    top = int(ps.max(initial=2))
    if top >= _LANE_PRIME_LIMIT:  # residue products must fit in int64
        raise CapacityError(f"p={top} is not below the lane bound {_LANE_PRIME_LIMIT}")
    sieve.check_range(top - 1)
    base = _residues(a, ps)
    h = np.where(base == 0, 0, ps - 1)
    closed = np.zeros(h.shape, dtype=bool)
    for idx, q, repeat in sieve._peel(h):
        ok = ~(repeat & closed[idx])
        j = idx[ok]
        ok[ok] = _powmod_lanes(base[j], h[j] // q[ok], ps[j]) == 1
        h[idx[ok]] //= q[ok]
        closed[idx] = ~ok
    return h


def order_weighted_sum(
    a: int,
    b: int,
    P: float,
    primes: PrimeList,
    sieve: FactorSieve | None = None,
) -> float:
    """Partial sum over p <= P, p coprime to a, of ln(p) / (p * h_a(p)^(1/b));
    nondecreasing in P and convergent, the key sum behind the tower bounds.
    Orders come from _lane_mult_orders; multiplicative_order is their scalar
    oracle. Without a sieve that covers max p - 1, one is built up to max p."""
    a, b = check_integer(a), check_integer(b)
    if a < 2 or b < 2:
        raise ParameterError("need a >= 2 and b >= 2")
    ps = primes.upto(P)
    if ps.size and (sieve is None or sieve.limit < ps[-1] - 1):
        sieve = build_sieve(int(ps[-1]))
    return math.fsum(
        math.log(p) / (p * h ** (1.0 / b))
        for step in primes.steps(P)
        for p, h in zip(step.tolist(), _lane_mult_orders(a, step, sieve).tolist())
        if h
    )


@dataclass(frozen=True)
class OrderDistributionEntry:
    n: int
    d_n: float  # sum of ln(p)/p over primes with h_a(p) = n
    exact: bool  # False when a^n - 1 kept an unfactored cofactor


@dataclass(frozen=True)
class OrderDistribution:
    a: int
    z: int
    trial_cap: int
    entries: tuple[OrderDistributionEntry, ...]

    @property
    def total(self) -> float:
        """D(z) = sum of d_n; a certified lower bound unless all_exact."""
        return math.fsum(e.d_n for e in self.entries)

    @property
    def normalized(self) -> float:
        return self.total / math.log(self.z + 1)

    @property
    def all_exact(self) -> bool:
        return all(e.exact for e in self.entries)


def _order_is_exactly(a: int, p: int, n: int) -> bool:
    """h_a(p) == n, given that p divides a^n - 1 (so h | n)."""
    return all(pow(a, n // q, p) != 1 for q, _ in factorize_trial(n))


def order_distribution(a: int, z: int, trial_cap: int) -> OrderDistribution:
    """d_n = sum of ln(p)/p over primes p with h_a(p) = n, for n <= z.

    Primes are found by trial-dividing a^n - 1 by the primes up to
    min(trial_cap, isqrt(a^z - 1)) that _residues shows divide it (a table
    past the PrimeList cap raises CapacityError), and filtering by exact
    order. If a cofactor survives the trial division and cannot be
    certified prime, that n is flagged and its d_n is a certified lower
    bound; nothing is silently approximated.
    """
    a, z, trial_cap = check_integer(a), check_integer(z), check_integer(trial_cap)
    check_at_least("a", a, 2)
    check_at_least("z", z, 1)
    if z > DEFAULT_EXPONENT_CAP:
        raise CapacityError(f"z={z} exceeds the exponent cap {DEFAULT_EXPONENT_CAP}")
    check_at_least("trial_cap", trial_cap, 2)
    # a^n - 1 has at most one prime past isqrt(a^z - 1): the cofactor left
    # once the smaller ones are divided out
    ps = PrimeList.build(max(2, min(trial_cap, math.isqrt(a**z - 1)))).values
    entries = []
    for n in range(1, z + 1):
        m = a**n - 1
        found = ps[_residues(m, ps) == 0].tolist()
        exact = True
        for d in found:
            while m % d == 0:
                m //= d
        if m > 1:
            # composite cofactors below cap^2 are impossible, and larger ones
            # are certified by the deterministic primality test where it holds
            try:
                certified = m <= trial_cap * trial_cap or is_prime(m)
            except CapacityError:
                certified = False
            if certified:
                found.append(m)
            else:
                exact = False
        d_n = math.fsum(
            math.log(p) / p for p in found if _order_is_exactly(a, p, n)
        )
        entries.append(OrderDistributionEntry(n=n, d_n=d_n, exact=exact))
    return OrderDistribution(a=a, z=z, trial_cap=trial_cap, entries=tuple(entries))


def root_count(f: PolynomialSpec, m: int) -> int:
    """Number of x in [0, m) with f(x) = 0 (mod m), by exhaustive scan.

    Requires gcd(content(f), m) = 1, the primitivity hypothesis of the
    root-count bound rho <= c n m^(1-1/n).
    """
    check_at_least("m", m, 1)
    if m > ROOT_COUNT_MODULUS_CAP:
        raise CapacityError(f"m={m} exceeds the scan cap {ROOT_COUNT_MODULUS_CAP}")
    if math.gcd(f.content, m) != 1:
        raise DomainError(
            f"content {f.content} shares a factor with the modulus {m}"
        )
    if m == 1:
        return 1  # the empty congruence has the single root x = 0
    xs = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(f.coeffs):
        acc = (acc * xs + c % m) % m  # c reduced first: keeps int64 safe
    return int(np.count_nonzero(acc == 0))


def konyagin_ratio(f: PolynomialSpec, m: int) -> float:
    """root_count normalized by n * m^(1-1/n), n the degree (>= 1)."""
    if f.degree < 1:
        raise ParameterError("degree must be >= 1 for the normalized ratio")
    return root_count(f, m) / (f.degree * m ** (1.0 - 1.0 / f.degree))


def theorem9_report(
    a: int,
    b: int,
    x: int,
    primes: PrimeList,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[ConstantEstimate]:
    """Density of n <= x representable as p + a^(j^b), against both sides of
    the two-sided bound ~ x / (ln x)^(1-1/b) (T9); the representable n are
    the nonzero cells of the shift-add windows, counted window by window."""
    a, b, x = check_integer(a), check_integer(b), check_integer(x)
    if a < 2 or b < 2:
        raise ParameterError("need a >= 2 and b >= 2")
    check_at_least("x", x, 3)
    check_at_least("budget", budget, 0)
    terms = enumerate_terms(PowerTower(a, b), x)
    windows = _shift_add_windows(Explicit(tuple(terms)), x, primes, budget)
    representable = sum(int(np.count_nonzero(counts)) for _, counts in windows)
    n_total = len(terms)
    pi_x = primes.count_leq(x)
    scale = math.log(x) ** (1.0 - 1.0 / b) / x
    params = {
        "a": a,
        "b": b,
        "x": x,
        "N_A": n_total,
        "pi_x": pi_x,
        "representable": representable,
    }
    return [
        ConstantEstimate(
            name="c1_empirical",
            value=representable * scale,
            parameters=dict(params),
            direction="#representable >= c1 * x / (ln x)^(1-1/b)",
        ),
        ConstantEstimate(
            name="c2_upper_comparison",
            value=pi_x * n_total * scale,
            parameters=dict(params),
            direction="#representable <= c2 * x / (ln x)^(1-1/b)",
        ),
    ]
