"""Declarative sequence families A = {a_j} and their counting statistics
N_A(x), ord_A(n), rho_A(x), plus the two hypothesis quantities every
Romanoff-type run needs: the halving ratio N_A(x/2)/N_A(x) and the
congruence pair sum over small primes.

Each family has a canonical textual form used by the CLI:

    geom:2:start=0       powers 2^j, j >= start (start is 0 or 1)
    tower:2:3            2^(j^3), j >= 0
    poly:1,0,0           polynomial values R(j) > 0, coefficients a_k..a_0
    ecorders:1,1         #E(F_q) for the curve y^2 = x^3 + x + 1, q ascending
    explicit:1,2,2       a literal multiset, or explicit:@file (one per line)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, RangeError, check_at_least, check_finite
from .moments import PolynomialSpec
from .sieve import PrimeList

if TYPE_CHECKING:
    from .elliptic import EllipticCurve

# generation guard: no family may expand to more terms than this
MAX_GENERATED_TERMS = 10**8
# polynomial values evaluated by one Horner pass (its terms go out 2^16 at a time)
_TERM_BLOCK = 1 << 20


@dataclass(frozen=True)
class Geometric:
    base: int
    start_exponent: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise ParameterError(f"geometric base must be >= 2, got {self.base}")
        if self.start_exponent not in (0, 1):
            raise ParameterError("start_exponent must be 0 or 1")


@dataclass(frozen=True)
class PowerTower:
    """Terms base^(j^power), j >= 0."""

    base: int
    power: int

    def __post_init__(self):
        if self.base < 2 or self.power < 2:
            raise ParameterError("power tower needs base >= 2 and power >= 2")


@dataclass(frozen=True)
class Polynomial:
    """Positive values R(j) over j >= 1 (non-positive values are skipped)."""

    poly: PolynomialSpec


@dataclass(frozen=True)
class EllipticOrders:
    curve: EllipticCurve


@dataclass(frozen=True)
class Explicit:
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 1 for v in self.values):
            raise ParameterError("explicit sequences must be positive integers")


SequenceSpec = Union[Geometric, PowerTower, Polynomial, EllipticOrders, Explicit]


def parse_curve(text: str) -> EllipticCurve:
    """The curve of the text "A,B" (``--curve``, ``ecorders:A,B``)."""
    from .elliptic import EllipticCurve  # elliptic loads only where curves are read

    try:
        A, B = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"malformed curve {text!r}: {exc}") from exc
    return EllipticCurve(A, B)


def format_curve(curve: EllipticCurve) -> str:  # inverse of parse_curve
    return f"{curve.A},{curve.B}"


def parse_sequence_spec(text: str) -> SequenceSpec:
    """Parse the canonical textual form; inverse of format_sequence_spec."""
    kind, _, rest = text.partition(":")
    if kind == "ecorders":
        return EllipticOrders(parse_curve(rest))
    try:
        if kind == "geom":
            parts = rest.split(":")
            base = int(parts[0])
            start = 0
            if len(parts) > 1:
                key, _, value = parts[1].partition("=")
                if key != "start":
                    raise ParameterError(f"unknown geometric option {parts[1]!r}")
                start = int(value)
            return Geometric(base, start)
        if kind == "tower":
            base_text, power_text = rest.split(":")
            return PowerTower(int(base_text), int(power_text))
        if kind == "poly":
            coeffs = [int(c) for c in rest.split(",")]
            return Polynomial(PolynomialSpec.from_descending(coeffs))
        if kind == "explicit":
            if rest.startswith("@"):
                with open(rest[1:], "r", encoding="utf-8") as fh:
                    values = tuple(
                        int(line) for line in fh if line.strip()
                    )
            else:
                values = tuple(int(v) for v in rest.split(",")) if rest else ()
            return Explicit(values)
    except (ValueError, IndexError) as exc:
        raise ParameterError(f"malformed sequence spec {text!r}: {exc}") from exc
    raise ParameterError(f"unknown sequence kind {kind!r}")


def format_sequence_spec(spec: SequenceSpec) -> str:
    if isinstance(spec, Geometric):
        return f"geom:{spec.base}:start={spec.start_exponent}"
    if isinstance(spec, PowerTower):
        return f"tower:{spec.base}:{spec.power}"
    if isinstance(spec, Polynomial):
        coeffs = ",".join(str(c) for c in reversed(spec.poly.coeffs))
        return f"poly:{coeffs}"
    if isinstance(spec, EllipticOrders):
        return f"ecorders:{format_curve(spec.curve)}"
    if isinstance(spec, Explicit):
        return "explicit:" + ",".join(str(v) for v in spec.values)
    raise ParameterError(f"not a sequence spec: {spec!r}")


def _least(holds, j: int) -> int:
    """The least i >= j for which holds(i), where holds is monotone from j."""
    hi = j
    while not holds(hi):
        j, hi = hi + 1, 2 * hi
    while j < hi:
        mid = (j + hi) // 2
        j, hi = (j, mid) if holds(mid) else (mid + 1, hi)
    return j


def _blocks(values: list[int] | np.ndarray) -> Iterator[np.ndarray]:
    """The positive values in blocks of 2^16, int64 unless a value is beyond it."""
    for i in range(0, len(values), 1 << 16):
        try:
            block = np.asarray(values[i : i + (1 << 16)], dtype=np.int64)
        except OverflowError:  # Python ints, object dtype
            block = np.array(values[i : i + (1 << 16)], dtype=object)
        yield block


def _polynomial_terms(poly: PolynomialSpec, x: float) -> Iterator[np.ndarray]:
    """The values 0 < R(j) <= x in the order of j = 1, ..., J, the first j at
    which |R(j)| >= j^(k-1) (lead*j - k*max|c_i|) exceeds x, or the Cauchy
    root bound when the leading coefficient is negative. Horner runs in the
    pass's ``horner_dtype`` (int64, or Python ints past it) and skips a pass
    whose bounds on R (each c_i j^i is monotone) hold no value in (0, x]; more
    than MAX_GENERATED_TERMS values, or none in the first MAX_GENERATED_TERMS
    values of j, raise."""
    k = poly.degree
    if k == 0:
        value = poly.coeffs[0]
        if 0 < value <= x:
            raise CapacityError(
                "constant polynomial has unbounded multiplicity below x"
            )
        return
    lead = abs(poly.coeffs[-1])
    top = max((abs(c) for c in poly.coeffs[:-1]), default=0)
    tail = k * top
    # the bound is positive and increasing from j = tail // lead + 1 on
    last = _least(lambda j: j ** (k - 1) * (lead * j - tail) > x, tail // lead + 1)
    if poly.coeffs[-1] < 0:  # R(j) < 0 past the Cauchy root bound 1 + top/lead
        last = min(last, 1 + top // lead)
    # c_i j^i is monotone in j, so R <= sum max(c_i, c_i j^i) on [1, j]; that grows with j,
    # so no term lies below the first j where it is positive, nor in a pass (from 1) below it
    first = _least(lambda j: j > last or sum(max(c, c * j**i) for i, c in enumerate(poly.coeffs)) > 0, 1)
    if min(first - 1, last) > MAX_GENERATED_TERMS:
        raise CapacityError(f"no polynomial term among the first {MAX_GENERATED_TERMS} values of j")
    cap = math.floor(x)  # compared with the float x, an int64 would be rounded
    count = 0
    for start in range(1 + (first - 1) // _TERM_BLOCK * _TERM_BLOCK, last + 1, _TERM_BLOCK):
        stop = min(start + _TERM_BLOCK, last + 1)
        ends = [(c * start**i, c * (stop - 1) ** i) for i, c in enumerate(poly.coeffs)]
        if sum(map(max, ends)) > 0 and sum(map(min, ends)) <= cap:  # else no term in the pass
            value = poly.evaluate(np.arange(start, stop, dtype=poly.horner_dtype(stop - 1)))
            value = value[(value > 0) & (value <= cap)]
            count += len(value)
            if count > MAX_GENERATED_TERMS:
                raise CapacityError("polynomial term generation exceeded the guard")
            yield from _blocks(value)
        if not count and stop - 1 > MAX_GENERATED_TERMS:  # the same rule, where first falls short
            raise CapacityError(f"no polynomial term among the first {MAX_GENERATED_TERMS} values of j")


def elliptic_prime_bound(x: float) -> int:
    """Primes q an EllipticOrders enumeration up to x visits: #E(F_q) <= x
    forces (sqrt(q)-1)^2 < x, i.e. q <= x + 2 sqrt(x) + 1. The bound is
    returned as an integer table limit."""
    return math.floor(x + 2 * math.sqrt(x) + 1)


def _elliptic_order_terms(
    curve: EllipticCurve, x: float, primes: PrimeList | None
) -> np.ndarray:
    from .elliptic import order_sequence

    if primes is None:
        raise RangeError("EllipticOrders enumeration needs a prime table")
    q_bound = elliptic_prime_bound(x)
    primes.check_range(q_bound)
    counts = order_sequence(curve, q_bound, primes).counts
    return counts[counts <= x]


def enumerate_terms(
    spec: SequenceSpec, x: float, primes: PrimeList | None = None
) -> list[int]:
    """All terms a_j <= x, with multiplicity, in ascending order."""
    blocks = list(iter_terms(spec, x, primes))
    return np.sort(np.concatenate(blocks)).tolist() if blocks else []


def iter_terms(
    spec: SequenceSpec, x: float, primes: PrimeList | None = None
) -> Iterator[np.ndarray]:
    """The terms of enumerate_terms in generation order (in j for a polynomial), 2^16 at
    a time as the arrays of _blocks, so that a caller can stop before the last is built.
    Bounds on j come from _least; a polynomial walk past j = 10^8 with no term raises."""
    check_finite("x", x)
    check_at_least("x", x, 1)
    if isinstance(spec, Geometric):  # base^e <= x for e < stop; x >= 1, so stop >= 1
        stop = _least(lambda e: spec.base**e > x, 1)
        return _blocks([spec.base**e for e in range(spec.start_exponent, stop)])
    if isinstance(spec, PowerTower):  # b^(j^p) <= x for j < stop
        b, p = spec.base, spec.power
        bound = math.log(x) / math.log(b) + 2  # float guard: j^p > bound gives b^(j^p) > x
        # j >= 2 and p >= bound give j^p >= 2^p > p >= bound, decided before a huge j^p is built
        stop = _least(lambda j: (j >= 2 and p >= bound) or j**p > bound or b ** (j**p) > x, 1)
        return _blocks([b ** (j**p) for j in range(stop)])
    if isinstance(spec, Polynomial):
        return _polynomial_terms(spec.poly, x)
    if isinstance(spec, EllipticOrders):
        return _blocks(_elliptic_order_terms(spec.curve, x, primes))
    if isinstance(spec, Explicit):
        if len(spec.values) > MAX_GENERATED_TERMS:
            raise CapacityError("explicit sequence exceeds the term guard")
        return _blocks([v for v in spec.values if v <= x])
    raise ParameterError(f"not a sequence spec: {spec!r}")


def count_terms(
    spec: SequenceSpec, x: float, primes: PrimeList | None = None
) -> int:
    """N_A(x) = #{j : a_j <= x}, with multiplicity."""
    return len(enumerate_terms(spec, x, primes))


def term_multiplicity(
    spec: SequenceSpec, n: int, primes: PrimeList | None = None
) -> int:
    """ord_A(n) = #{j : a_j = n}."""
    check_at_least("n", n, 1)
    return sum(1 for v in enumerate_terms(spec, n, primes) if v == n)


def max_multiplicity(
    spec: SequenceSpec, x: float, primes: PrimeList | None = None
) -> int:
    """rho_A(x) = max over n <= x of ord_A(n); 0 for an empty range."""
    counts = Counter(enumerate_terms(spec, x, primes))
    return max(counts.values(), default=0)


def doubling_ratio(
    spec: SequenceSpec, x: float, primes: PrimeList | None = None
) -> float:
    """N_A(x/2) / N_A(x): the empirical halving constant gamma_1."""
    terms = enumerate_terms(spec, x, primes)
    if not terms:
        raise DomainError(f"sequence has no terms <= {x}")
    return bisect_right(terms, x / 2) / len(terms)


def pair_cutoff(x: float, alpha: float, primes: PrimeList) -> float:
    """The prime cutoff (ln x)^alpha of congruence_pair_sum, checked before any term."""
    if not alpha > 0:  # nan too
        raise ParameterError(f"alpha={alpha} must be positive")
    if x <= 1:
        raise ParameterError(f"x={x} must exceed 1")
    try:
        cutoff = math.log(x) ** alpha
    except OverflowError:
        raise RangeError(f"(ln x)^alpha overflows a float at x={x}, alpha={alpha}") from None
    primes.check_range(cutoff, "cutoff (ln x)^alpha")  # nan and inf x too
    return cutoff


def congruence_pair_sum(
    spec: SequenceSpec,
    x: float,
    alpha: float,
    primes: PrimeList,
) -> tuple[float, float]:
    """Weighted count of congruent pairs a_k < a_j <= x modulo small primes.

    raw = sum over primes p <= (ln x)^alpha of ln(p)/p times the number of
    pairs a_k < a_j <= x with a_j = a_k (mod p): sum_r C(m_r, 2) over the
    residue classes r, less sum_v C(c_v, 2) over the values v, c_v = ord_A(v).
    normalized = raw / N_A(x)^2, the empirical gamma_2.
    """
    cutoff = pair_cutoff(x, alpha, primes)
    terms = enumerate_terms(spec, x, primes)
    if not terms:
        raise DomainError(f"sequence has no terms <= {x}")
    equal_pairs = sum(c * (c - 1) // 2 for c in Counter(terms).values())
    raw_parts = []
    for p in primes.ints(cutoff):
        # residues taken on Python ints, exact for terms beyond int64
        m = np.bincount([v % p for v in terms])
        pair_count = int((m * (m - 1) // 2).sum()) - equal_pairs
        raw_parts.append(pair_count * math.log(p) / p)
    raw = math.fsum(raw_parts)
    return (raw, raw / len(terms) ** 2)
