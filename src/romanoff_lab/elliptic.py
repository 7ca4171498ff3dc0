"""Exact point counting #E(F_p) for short-Weierstrass curves, Hasse-bound
margins, order sequences over ascending primes, and congruence-class
statistics of curve orders.

Counting is the O(p) character-sum method: for odd p,
#E(F_p) = p + 1 + sum_x chi(x^3 + Ax + B) with chi the quadratic character
mod p, evaluated through a residue table rather than per-x exponentiation.
p = 2 and p = 3 are enumerated directly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


def count_points(curve: EllipticCurve, p: int) -> int:
    """#E(F_p): solutions of y^2 = x^3 + Ax + B over F_p, plus infinity.

    The congruence count is computed for every prime, including primes of
    bad reduction (p | discriminant); callers that care should consult
    curve.singular_primes().
    """
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    if p <= 3:
        return _count_points_bruteforce(curve, p)
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


def hasse_margin(curve: EllipticCurve, p: int) -> float:
    """2*sqrt(p) - |#E(F_p) - (p+1)|; positive for every prime."""
    order = count_points(curve, p)
    return 2.0 * math.sqrt(p) - abs(order - (p + 1))


def order_sequence(
    curve: EllipticCurve, x: float, primes: PrimeList, *, threads: int = 1
) -> OrderSequence:
    """Curve orders at every prime p <= x, assembled in ascending p."""
    primes.check_range(x)
    ps = [int(p) for p in primes.upto(x)]
    if threads > 1 and len(ps) > 64:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            orders = list(pool.map(lambda q: count_points(curve, q), ps, chunksize=64))
    else:
        orders = [count_points(curve, q) for q in ps]
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
            "singular_primes": [
                p for p in curve.singular_primes() if p <= x
            ],
        },
    )
