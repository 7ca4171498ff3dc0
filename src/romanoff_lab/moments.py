"""Both sides of the moment-sum inequalities T1 (congruence-count bound),
T3 (polynomial values), and T4 (linear-system discriminants), plus the three
totient-product lemmas they rest on.

The bounds involve constants that are not effective, so every report returns
the *implied constant*: the measured value C making lhs = C^s * rhs_core tight
on the given input.

The T1/T3/T4 reports here, and T5 and the extremal mean in their modules,
sum totient-ratio powers one way (``_ratio_power_fsum``): phi is gathered for
the listed values by ``FactorSieve.totient_route`` (a table or the spf walk),
each term (n/phi(n))^s is formed in float64, and ``exact.float_sum`` adds the
term arrays exactly and rounds once, correctly: the bits ``math.fsum`` gives.
Against the exact sum, the result is within a relative (s + 3) * 2^-53, and
it never falls below the term count, because n >= phi(n) makes every term
round to >= 1.0.  ``moment_sum`` keeps the exact ``Fraction`` value and
serves as the oracle for that bound.  A term, sum or bound that s takes
beyond float64 raises CapacityError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, check_at_least, check_finite, float64_range
from .exact import exact_fraction_sum, float_sum
from .sieve import (
    FactorSieve,
    PrimeList,
    check_integer,
    int64_values,
    totient_ratio,
)


@dataclass(frozen=True)
class MomentReport:
    """One measured inequality instance.

    lhs is the moment sum, rhs_core the bracketed comparison quantity, and
    implied_constant the measured C with lhs ~ C^s * rhs_core (reports whose
    bound is not of power form store the plain ratio; see each builder).
    """

    lhs: float
    rhs_core: float
    implied_constant: float
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PolynomialSpec:
    """Integer polynomial a_k n^k + ... + a_0, stored ascending (a_0 first)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ParameterError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.coeffs[-1] == 0:
            raise ParameterError("leading coefficient must be nonzero")

    @classmethod
    def from_descending(cls, coeffs: Sequence[int]) -> "PolynomialSpec":
        return cls(tuple(reversed([int(c) for c in coeffs])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def content(self) -> int:
        return reduce(math.gcd, (abs(c) for c in self.coeffs))

    def evaluate(self, n):
        """R(n) by Horner for an int n, or in place for an int64 or object array n."""
        acc = np.full_like(n, self.coeffs[-1]) if isinstance(n, np.ndarray) else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc *= n
            acc += c
        return acc

    def horner_dtype(self, top: int):
        """int64 while sum |c_i| max(top, 1)^i < 2^63, which bounds every Horner
        partial sum at |n| <= top; object (Python ints) past that."""
        bound = sum(abs(c) * max(top, 1) ** i for i, c in enumerate(self.coeffs))
        return np.int64 if bound < 2**63 else object


# values per gather block: bounds the temporary arrays whatever the list size.
# At 2^14 the 128 KB int64 and float64 blocks cost about 350 minor faults a T1
# op on 10^5 values (glibc trims the heap top they leave), none at 2^13, yet
# the walk's passes halve and a T1 op measured 8-10 % faster (4 of 4 runs)
_FSUM_BLOCK = 1 << 14


def omega_count(values: Sequence[int], d: int) -> int:
    """omega(d) = number of list entries divisible by d; an array is
    counted in blocks, so the temporaries stay small."""
    if len(values) == 0:
        raise DomainError("omega_count needs a nonempty list")
    if not d >= 1:
        raise DomainError(f"modulus d={d} must be >= 1")
    if isinstance(values, np.ndarray):
        return sum(
            int(np.count_nonzero(values[start : start + _FSUM_BLOCK] % d == 0))
            for start in range(0, len(values), _FSUM_BLOCK)
        )
    return sum(1 for v in values if v % d == 0)


def _ratio_power(n: int, s: int, sieve: FactorSieve, cache: dict) -> Fraction:
    f = cache.get(n)
    if f is None:
        f = totient_ratio(n, sieve)
        cache[n] = f
    return Fraction(f.numerator**s, f.denominator**s)


def moment_sum(values: Sequence[int], s: int, sieve: FactorSieve) -> Fraction:
    """Exact value of sum (a_n / phi(a_n))^s over the list; always >= len."""
    check_at_least("s", s, 1)
    cache: dict[int, Fraction] = {}
    return exact_fraction_sum(
        _ratio_power(check_integer(v), s, sieve, cache) for v in values
    )


def _ratio_power_fsum(values: Sequence[int], s: int, sieve: FactorSieve) -> float:
    """sum (n/phi(n))^s over the list, correctly rounded from the float terms
    by ``float_sum``; CapacityError when a term or the sum is beyond float64.

    ``FactorSieve.totient_route`` raises TableIntegrityError for an spf entry
    that is not the least prime of its n; valid entries put phi(n) in [1, n].
    """
    arr = int64_values(values)
    phi = sieve.totient_route(arr)  # one route for the whole list

    def terms(start: int) -> np.ndarray:
        block = arr[start : start + _FSUM_BLOCK]
        ratio = block / phi(block)
        ratio **= s
        return ratio

    with float64_range(s), np.errstate(over="ignore"):
        return float_sum(map(terms, range(0, len(arr), _FSUM_BLOCK)))


def check_theorem1_parameters(s: int, alpha: float, M: float) -> None:
    """theorem1_report's checks that need no term, for a caller to run before it enumerates."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha={alpha} must lie in (0, 1)")
    check_at_least("s", s, 1)
    check_finite("M", M)


def theorem1_report(
    values: Sequence[int],
    s: int,
    alpha: float,
    M: float,
    sieve: FactorSieve,
) -> MomentReport:
    """Moment sum vs. its congruence-count bound (T1).

    rhs_core = N + sum_{p <= (ln M)^alpha} omega(p) (ln p)^s / p; the implied
    constant is (lhs / rhs_core)^(1/s).
    """
    check_theorem1_parameters(s, alpha, M)
    if len(values) == 0:
        raise DomainError("theorem1_report needs a nonempty list")
    arr = int64_values(values)
    if M < int(arr.max()):
        raise ParameterError(f"M={M} must be >= max of the list")
    n_terms = len(arr)
    lhs = _ratio_power_fsum(arr, s, sieve)
    cutoff = math.log(M) ** alpha if M > 1 else 0.0
    small = PrimeList.build(math.floor(cutoff)).ints(math.floor(cutoff)) if cutoff >= 2 else ()
    with float64_range(s):
        prime_part = math.fsum(omega_count(arr, p) * math.log(p) ** s / p for p in small)
    rhs_core = n_terms + prime_part
    implied = (lhs / rhs_core) ** (1.0 / s)
    return MomentReport(
        lhs=lhs,
        rhs_core=rhs_core,
        implied_constant=implied,
        parameters={
            "s": s,
            "alpha": alpha,
            "M": M,
            "N": n_terms,
            "prime_cutoff": cutoff,
        },
    )


def _plus_product(ps) -> float:
    """prod (1 + 1/p) over ps, exact in rationals and rounded once."""
    return float(math.prod(Fraction(p + 1, p) for p in ps))


def lemma1_product(n: int, y: float, sieve: FactorSieve) -> tuple[float, float]:
    """prod_{p|n, p>y} (1 + 1/p) together with its bound exp(nu(n)/y)."""
    if n <= 1:
        raise ParameterError(f"n={n} must exceed 1")
    if not y > 0:
        raise ParameterError(f"y={y} must be positive")
    primes = sieve.distinct_primes(n)
    product = _plus_product(p for p in primes if p > y)
    bound = math.exp(len(primes) / y)
    return (product, bound)


def lemma2_check(n: int, sieve: FactorSieve) -> float:
    """prod_{p|n, p>ln n} (1 + 1/p); classically bounded by e^(1/ln 2) < 5."""
    sieve.check_range(n)
    if n == 1:
        return 1.0
    log_n = math.log(n)
    return _plus_product(p for p in sieve.distinct_primes(n) if p > log_n)


def lemma2_product_table(limit: int, primes: PrimeList) -> np.ndarray:
    """Vectorized lemma2_check for every n <= limit (entry 0 is unused 1.0).

    Sweeps primes instead of n: p contributes (1 + 1/p) to each multiple
    m with p > ln m, i.e. to all multiples below e^p.
    """
    primes.check_range(limit)
    table = np.ones(limit + 1, dtype=np.float64)
    log_limit = math.log(limit) if limit > 1 else 0.0
    for p in primes.ints(limit):  # e^p - 1 >= p; past log_limit, e^p may overflow
        hi = limit if p > log_limit else min(limit, math.ceil(math.exp(p)) - 1)
        table[p : hi + 1 : p] *= 1.0 + 1.0 / p
    return table


class Lemma3Report(NamedTuple):
    ratio: float
    product: float
    implied_constant: float


def lemma3_report(n: int, alpha: float, sieve: FactorSieve) -> Lemma3Report:
    """n/phi(n) against prod_{p|n, p <= (ln n)^alpha} (1 + 1/p)."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha={alpha} must lie in (0, 1)")
    ratio = float(totient_ratio(n, sieve))
    if n == 1:
        return Lemma3Report(1.0, 1.0, 1.0)
    cutoff = math.log(n) ** alpha
    product = _plus_product(p for p in sieve.distinct_primes(n) if p <= cutoff)
    return Lemma3Report(ratio, product, ratio / product)


def read_blocks(blocks: Iterable[np.ndarray], check: Callable) -> Iterator[tuple]:
    """(largest, block) for each array of positive values (largest 0 if empty) once
    check(largest) returns: a check that raises refuses the first block past a bound."""
    for block in blocks:
        largest = block.max(initial=0)
        check(largest)
        yield largest, block


def _family_report(blocks, what, lead, k, z, s, sieve, parameters) -> MomentReport:
    """T3/T4 from the blocks of their values: the moment sum against rhs_core =
    (lead/phi(lead) * ln(k+1))^s * s! * z, and the implied constant that
    strips those factors from the lhs. ``what`` names the values in the
    capacity error, and the report's parameters gain the term count."""

    def check(largest) -> None:
        if largest > sieve.limit:
            raise CapacityError(f"max {what} exceeds sieve limit {sieve.limit}")

    values = np.concatenate([block for _, block in read_blocks(blocks, check)])
    lhs = _ratio_power_fsum(values, s, sieve)
    lead_ratio = float(totient_ratio(lead, sieve))
    log_k1 = math.log(k + 1)
    with float64_range(s):
        rhs_core = (lead_ratio * log_k1) ** s * math.factorial(s) * z
        scale = math.factorial(s) * z
        if math.inf in (rhs_core, scale):  # float products overflow to inf
            raise OverflowError
    implied = (lhs / scale) ** (1.0 / s) / (lead_ratio * log_k1)
    return MomentReport(
        lhs=lhs,
        rhs_core=rhs_core,
        implied_constant=implied,
        parameters={**parameters, "terms": len(values)},
    )


def poly_values(poly: PolynomialSpec, z: float) -> list[int]:
    """|R(n)| over -z <= n <= z, skipping the roots of R."""
    return [v for block in iter_poly_values(poly, z) for v in block.tolist()]


def iter_poly_values(poly: PolynomialSpec, z: float) -> Iterator[np.ndarray]:
    """poly_values as arrays, one for each 2^16 values of n from n = -z up (some may be empty)."""
    check_finite("z", z)
    half = math.floor(z)
    dtype = poly.horner_dtype(half)
    for start in range(-half, half + 1, 1 << 16):
        values = poly.evaluate(np.arange(start, min(start + (1 << 16), half + 1), dtype=dtype))
        yield np.abs(values[values != 0])


def poly_moment_report(
    poly: PolynomialSpec, z: float, s: int, sieve: FactorSieve
) -> MomentReport:
    """Moment sum of |R(n)|/phi(|R(n)|) over -z <= n <= z, R(n) != 0 (T3).

    rhs_core = (delta/phi(delta) * ln(k+1))^s * s! * z with delta the content
    and k the degree; the implied constant strips those factors from the lhs.
    """
    check_at_least("z", z, 1)
    check_at_least("s", s, 1)
    if poly.degree < 1:
        raise ParameterError("degree must be >= 1")
    parameters = {
        "coeffs_descending": list(reversed(poly.coeffs)),
        "degree": poly.degree,
        "content": poly.content,
        "z": z,
        "s": s,
    }
    return _family_report(
        iter_poly_values(poly, z), "|R(n)|", poly.content, poly.degree, z, s, sieve, parameters
    )


def delta_L(a: int, b: int, bs: Sequence[int]) -> int:
    """Discriminant a^(k+1) * prod |b_i - b| of L(n) = an + b against the
    family {an + b_i}; zero exactly when b collides with some b_i."""
    check_at_least("a", a, 1)
    k = len(bs)
    return a ** (k + 1) * math.prod(abs(bi - b) for bi in bs)


def delta_values(a: int, bs: Sequence[int], z: float) -> list[int]:
    """Delta_L for every L(n) = an + b with b in [-z, z] outside the family."""
    return [v for block in iter_delta_values(a, bs, z) for v in block.tolist()]


def iter_delta_values(a: int, bs: Sequence[int], z: float) -> Iterator[np.ndarray]:
    """delta_values as the |P(b)| of P(b) = a^(k+1) prod (b_i - b), zero exactly on the family."""
    check_at_least("a", a, 1)
    coeffs = [check_integer(a) ** (len(bs) + 1)]
    for b in map(check_integer, bs):  # times (b_i - b), ascending coefficients
        coeffs = [b * c - lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    return iter_poly_values(PolynomialSpec(tuple(coeffs)), z)


def delta_moment_report(
    a: int,
    bs: Sequence[int],
    z: float,
    s: int,
    x: float,
    sieve: FactorSieve,
) -> MomentReport:
    """Moment sum of Delta_L/phi(Delta_L) over b in [-z, z], L not in the
    family (T4); rhs_core = (a/phi(a) * ln(k+1))^s * s! * z.

    The window (ln x)^0.5 <= z <= x is advisory: runs outside it warn but
    proceed, so exploratory parameter scans stay possible.
    """
    check_at_least("a", a, 1)
    if z <= 0:
        raise ParameterError(f"z={z} must be positive")
    check_at_least("s", s, 1)
    if len(bs) == 0:
        raise ParameterError("the linear family must be nonempty")
    check_finite("x", x)
    if any(abs(b) > x for b in bs):
        raise ParameterError(f"all |b_i| must be <= x={x}")
    if x >= 3 and not (math.log(x) ** 0.5 <= z <= x):
        warnings.warn(
            f"z={z} outside the window [(ln x)^0.5, x]; "
            "the measured constant is exploratory",
            stacklevel=2,
        )
    k = len(bs)
    parameters = {
        "a": a,
        "shifts": [int(b) for b in bs],
        "k": k,
        "z": z,
        "s": s,
        "x": x,
    }
    return _family_report(iter_delta_values(a, bs, z), "Delta_L", a, k, z, s, sieve, parameters)
