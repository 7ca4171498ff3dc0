"""Exact point counting #E(F_p) for short-Weierstrass curves, Hasse-bound
margins, order sequences over ascending primes, and congruence-class
statistics of curve orders.

Counting is Shanks-Mestre baby-step giant-step (Cohen, GTM 138, section 7.4)
for primes of good reduction from _BSGS_MIN_PRIME up: every m in the Hasse
interval H = [p + 1 - r, p + 1 + r], r = isqrt(4p), that kills a point of E
is kept, and so is every m for which 2p + 2 - m kills a point of the
quadratic twist; the points are fixed by (A, B, p). The true order always
survives, so a single survivor is the order; for p > 229 Mestre's theorem
says points that leave one survivor exist. Cost is about p^(1/4) group
operations per point.

Everything else goes to the O(p) character sum, which stays as the oracle:
#E(F_p) = p + 1 + sum_x chi(x^3 + Ax + B) with chi the quadratic character
mod p, evaluated through a residue table rather than per-x exponentiation.
It serves primes below the switch, primes of bad reduction (p | disc), and
the rare prime that _BSGS_POINT_TRIES points per side leave ambiguous.
Only the character table is capped (_MAX_CHARACTER_PRIME): a prime above
the cap that BSGS resolves is counted, one that needs the character sum
raises CapacityError. p = 2 and p = 3 are enumerated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, RangeError
from .moments import MomentReport, _ratio_power_fsum
from .sieve import FactorSieve, PrimeList, factorize_trial, is_prime

# cap for the vectorized character table: a few p-length int64 arrays are
# live at once, so this bounds peak memory near half a GB; int64 overflow
# would only bite far later, near p ~ 3e9
_MAX_CHARACTER_PRIME = 2**24

# BSGS breaks even with the character sum between p = 1.5e3 and 2e3 on a
# 2-core x86 host (CPython 3.11) and is 1.6-1.7x faster at 4096; below the
# switch the gain is small next to timing noise, and short runs keep the
# oracle path
_BSGS_MIN_PRIME = 2**12
# points tried on E and on its twist before falling back to the character sum
_BSGS_POINT_TRIES = 4


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 = x^3 + Ax + B with nonzero discriminant 4A^3 + 27B^2."""

    A: int
    B: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise ParameterError(
                f"curve ({self.A}, {self.B}) is singular (zero discriminant)"
            )

    @property
    def discriminant(self) -> int:
        return 4 * self.A**3 + 27 * self.B**2

    def singular_primes(self) -> list[int]:
        """Primes dividing the discriminant (bad reduction)."""
        return [p for p, _ in factorize_trial(abs(self.discriminant))]


@dataclass(frozen=True)
class OrderSequence:
    """(p, #E(F_p)) for every prime p <= x, ascending in p."""

    curve: EllipticCurve
    x: float
    entries: tuple[tuple[int, int], ...]

    def orders(self) -> list[int]:
        return [order for _, order in self.entries]

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("p,order\n")
        for p, order in self.entries:
            stream.write(f"{p},{order}\n")


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic character of a mod p via Euler's criterion; p an odd prime."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"p={p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _count_points_bruteforce(curve: EllipticCurve, p: int) -> int:
    count = 1  # the point at infinity
    for x in range(p):
        rhs = (x * x * x + curve.A * x + curve.B) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                count += 1
    return count


def _count_points_character(curve: EllipticCurve, p: int) -> int:
    """The O(p) character sum for an odd prime p; the oracle of the BSGS path."""
    if p > _MAX_CHARACTER_PRIME:
        raise CapacityError(
            f"p={p} exceeds the character-table prime cap {_MAX_CHARACTER_PRIME}"
        )
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[(xs * xs) % p] = 1
    chi[0] = 0
    a = curve.A % p
    b = curve.B % p
    f = ((xs * xs) % p * xs + a * xs + b) % p
    return int(p + 1 + chi[f].sum())


# Affine points are (x, y) tuples and None is the point at infinity.


def _ec_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a: int, p: int):
    """kP for k >= 0 by double-and-add."""
    R = None
    for bit in bin(k)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _multiples_in(n: int, lo: int, hi: int) -> list[int]:
    return list(range(-(-lo // n) * n, hi + 1, n))


def _annihilators(P, a: int, p: int, lo: int, hi: int) -> list[int]:
    """Every m in [lo, hi] with mP = O, for a point P with y != 0.

    Baby steps jP (1 <= j <= s) are filed by x-coordinate; giant steps cP,
    c = lo + s, lo + 3s + 1, ..., match cP = +-jP, which covers m = c -+ j
    and so every m of [c - s, c + s]. The scan is complete only while the
    baby x-coordinates are distinct. Should some jP be O, have y = 0, or
    share its x with an earlier iP (then jP = -iP), ord(P) <= 2s is j, 2j
    or i + j exactly, and its multiples in [lo, hi] are the answer.
    """
    s = math.isqrt((hi - lo + 1) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    R = P
    for j in range(1, s + 1):
        if R is None:
            return _multiples_in(j, lo, hi)
        x, y = R
        if y == 0:
            return _multiples_in(2 * j, lo, hi)
        if x in baby:
            return _multiples_in(baby[x][0] + j, lo, hi)
        baby[x] = (j, y)
        R = _ec_add(R, P, a, p)
    step = 2 * s + 1
    G = _ec_mul(step, P, a, p)
    c = lo + s
    C = _ec_mul(c, P, a, p)
    found = []
    while c - s <= hi:
        if C is None:
            found.append(c)
        elif C[0] in baby:
            j, y = baby[C[0]]
            found.append(c - j if C[1] == y else c + j)
        C = _ec_add(C, G, a, p)
        c += step
    return [m for m in found if lo <= m <= hi]


def _count_points_bsgs(a: int, b: int, p: int) -> int | None:
    """#E(F_p) by Shanks-Mestre for a, b reduced mod a prime p of good
    reduction, or None if the points tried leave more than one candidate.

    Points come from x = 0, 1, ... with v = x^3 + ax + b nonzero:
    (vx, v^2) lies on y^2 = X^3 + av^2 X + bv^3, which is E when v is a
    square and its quadratic twist, with 2p + 2 - #E points, when it is not.
    """
    r = math.isqrt(4 * p)
    lo, hi = p + 1 - r, p + 1 + r
    half = (p - 1) // 2
    left = {1: _BSGS_POINT_TRIES, p - 1: _BSGS_POINT_TRIES}  # Euler's criterion of v
    candidates = None
    for x in range(p):
        v = (x * x * x + a * x + b) % p
        side = pow(v, half, p)
        if not left.get(side):
            if not any(left.values()):
                break
            continue
        left[side] -= 1
        found = _annihilators((v * x % p, v * v % p), a * v * v % p, p, lo, hi)
        survivors = set(found) if side == 1 else {2 * p + 2 - m for m in found}
        candidates = survivors if candidates is None else candidates & survivors
        if len(candidates) == 1:
            return candidates.pop()
    return None


def count_points(curve: EllipticCurve, p: int) -> int:
    """#E(F_p): solutions of y^2 = x^3 + Ax + B over F_p, plus infinity.

    The congruence count is computed for every prime, including primes of
    bad reduction (p | discriminant); callers that care should consult
    curve.singular_primes(). Primes of good reduction from _BSGS_MIN_PRIME
    up go to BSGS, which has no size cap; the rest, and any prime BSGS
    leaves ambiguous, go to the character sum, which raises CapacityError
    above _MAX_CHARACTER_PRIME.
    """
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    return _count_points_prime(curve, p)


def _count_points_prime(curve: EllipticCurve, p: int) -> int:
    """count_points without the primality test, for p from a PrimeList."""
    if p <= 3:
        return _count_points_bruteforce(curve, p)
    if p >= _BSGS_MIN_PRIME and curve.discriminant % p:
        order = _count_points_bsgs(curve.A % p, curve.B % p, p)
        if order is not None:
            return order
    return _count_points_character(curve, p)


def hasse_margin(curve: EllipticCurve, p: int, order: int | None = None) -> float:
    """2*sqrt(p) - |#E(F_p) - (p+1)|; positive for every prime.

    A known order #E(F_p) is used as given; otherwise it is counted.
    """
    if order is None:
        order = count_points(curve, p)
    return 2.0 * math.sqrt(p) - abs(order - (p + 1))


def order_sequence(curve: EllipticCurve, x: float, primes: PrimeList) -> OrderSequence:
    """Curve orders at every prime p <= x, assembled in ascending p."""
    primes.check_range(x)
    ps = [int(p) for p in primes.upto(x)]
    orders = [_count_points_prime(curve, q) for q in ps]
    return OrderSequence(curve=curve, x=x, entries=tuple(zip(ps, orders)))


def congruence_class_census(
    curve: EllipticCurve,
    x: float,
    t: int,
    primes: PrimeList,
    *,
    orders: OrderSequence | None = None,
) -> dict[int, int]:
    """#{p <= x : #E(F_p) = a (mod t)} for every residue a in [0, t)."""
    if t < 1:
        raise ParameterError(f"modulus t={t} must be >= 1")
    if orders is None:
        orders = order_sequence(curve, x, primes)
    census = {a: 0 for a in range(t)}
    for _, order in orders.entries:
        census[order % t] += 1
    return census


def theorem5_report(
    curve: EllipticCurve,
    x: float,
    s: int,
    sieve: FactorSieve,
    primes: PrimeList,
    *,
    orders: OrderSequence | None = None,
) -> MomentReport:
    """Moment sum of #E(F_p)/phi(#E(F_p)) over p <= x against pi(x) (T5).

    The sum is exactly >= pi(x) (each term >= 1); the implied constant is the
    plain ratio lhs/pi(x), the measured constant of the matching upper bound.
    A gathered phi outside [1, #E(F_p)] raises TableIntegrityError.
    The absence of complex multiplication is a hypothesis of that upper
    bound; it is not checked here, and the report records that.
    """
    if s < 1:
        raise ParameterError(f"s={s} must be >= 1")
    if x < 2:
        raise ParameterError(f"x={x} must be >= 2")
    if 1 + 2 * x > sieve.limit:
        raise RangeError(
            f"orders up to 1+2x = {1 + 2 * x:g} exceed sieve limit {sieve.limit}"
        )
    if orders is None:
        orders = order_sequence(curve, x, primes)
    lhs = _ratio_power_fsum(orders.orders(), s, sieve)
    pi_x = len(orders.entries)
    disc = curve.discriminant
    return MomentReport(
        lhs=lhs,
        rhs_core=float(pi_x),
        implied_constant=lhs / pi_x,
        parameters={
            "A": curve.A,
            "B": curve.B,
            "x": x,
            "s": s,
            "pi_x": pi_x,
            "cm_checked": False,
            "singular_primes": [p for p, _ in orders.entries if disc % p == 0],
        },
    )
