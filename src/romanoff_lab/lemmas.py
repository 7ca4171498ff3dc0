"""Numeric verification of the analytic toolbox: the integer-shape incomplete
gamma bound, the prime log-power sums and the min(p,k) split sum (both from
the one walk of ``prime_sums``), and the partial summation identity."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (CapacityError, DomainError, ParameterError, check_at_least, check_finite, check_integer,
                     float64_range)

if TYPE_CHECKING:
    from .sieve import PrimeList


@dataclass(frozen=True)
class GammaValue:
    """Upper incomplete gamma Gamma(s, x) at integer s, with the comparison
    bound s! * x^(s-1) * e^(-x) populated when x >= 1."""

    s: int
    x: float
    value: float
    bound: float | None

    @property
    def within_bound(self) -> bool | None:
        if self.bound is None:
            return None
        return self.value <= self.bound


def incomplete_gamma(s: int, x: float) -> GammaValue:
    """Gamma(s, x) = integral_x^inf t^(s-1) e^(-t) dt for integer s >= 1.

    Uses the exact closed form (s-1)! e^(-x) sum_{i<s} x^i / i!, equivalent
    to unrolling the recurrence Gamma(s, x) = x^(s-1) e^(-x) + (s-1) Gamma(s-1, x).
    """
    s = check_integer("s", s, 1)
    check_finite("x", x)
    check_at_least("x", x, 0)
    term = 1.0
    terms = [1.0]
    for i in range(1, s):
        term *= x / i
        terms.append(term)
    try:
        value = math.factorial(s - 1) * math.exp(-x) * math.fsum(terms)
        bound = math.factorial(s) * x ** (s - 1) * math.exp(-x) if x >= 1 else None
        if bound == math.inf:  # s! x^(s-1) overflowed on the way
            bound = math.exp(math.lgamma(s + 1) + (s - 1) * math.log(x) - x)
    except OverflowError:
        raise CapacityError(f"Gamma(s, x) or its bound overflows a float at s={s}, x={x}") from None
    return GammaValue(s=s, x=x, value=value, bound=bound)


GAMMA_GRID_X_MIN = 1.0
GAMMA_GRID_STEP = 0.25
_GAMMA_GRID_X_LIMIT = -math.log(sys.float_info.min)


def gamma_bound_grid(s: int, x_max: float) -> tuple[float, bool]:
    """Largest Gamma(s, x)/bound over the grid x = GAMMA_GRID_X_MIN + i *
    GAMMA_GRID_STEP <= x_max, and whether the bound holds at every point."""
    check_finite("x_max", x_max)
    if x_max < GAMMA_GRID_X_MIN:  # an empty grid would pass
        raise ParameterError(f"x_max={x_max} is below the grid's start {GAMMA_GRID_X_MIN}")
    if x_max > _GAMMA_GRID_X_LIMIT:
        raise CapacityError(f"x_max={x_max} exceeds {_GAMMA_GRID_X_LIMIT:.2f}: e^-x is subnormal")
    worst = 0.0
    ok = True
    for i in range(int((x_max - GAMMA_GRID_X_MIN) / GAMMA_GRID_STEP) + 1):
        gv = incomplete_gamma(s, GAMMA_GRID_X_MIN + GAMMA_GRID_STEP * i)
        worst = max(worst, gv.value / gv.bound)
        ok = ok and gv.value <= gv.bound
    return worst, ok


class PrimeLogPowerSums(NamedTuple):
    head: float
    tail_partial: float
    head_ratio: float
    tail_ratio: float


class MinPkSum(NamedTuple):
    value: float
    tail_bound: float
    normalized: float


def prime_sums(
    power_ks: Sequence[int], min_ks: Sequence[int], ss: Sequence[int], primes: PrimeList, tail_limit: float
) -> tuple[dict[tuple[int, int], PrimeLogPowerSums], dict[tuple[int, int], MinPkSum]]:
    """Both lemma prime sums at each (k, s) of power_ks x ss and of min_ks x ss,
    keyed and ordered by (k, s), from one walk over the primes p <= tail_limit.

    powers: head = sum_{p<=k} (ln p)^s / p, tail = sum_{k<p} (ln p)^s / p^2 and the
    empirical constants of their classical bounds, head_ratio = head / (ln k)^s (0
    for k=1, an empty head) and tail_ratio = tail * k / (s! * (ln(k+2))^(s-1)).
    mins: value = 1 + sum_p min(p, k) (ln p)^s / p^2, the bound k * Gamma(s+1, ln
    tail_limit) on its remainder over p > tail_limit (monotone comparison with the
    integral), and normalized = (value + tail_bound) / (s! * (ln(k+1))^s).

    Before the walk, each record in turn checks its k, its s, the tail limit and its own
    bounds. A step takes ln p once a prime and (ln p)^s by Python's float pow, and
    float_sums adds each series exactly, to the bits of math.fsum over the primes.
    """
    import numpy as np

    from .exact import float_sums

    # s! refuses s >= 171, and below that (ln p)^s is finite for p < 10^28
    power_scales, min_scales = {}, {}
    for k, s in product(power_ks, ss):
        k, s = check_integer("k", k, 1), check_integer("s", s, 1)
        primes.check_range(tail_limit)
        if k > tail_limit:
            raise ParameterError(f"k={k} exceeds tail_limit={tail_limit}")
        with float64_range(s):
            power_scales[k, s] = math.log(k) ** s, math.factorial(s) * math.log(k + 2) ** (s - 1)
    for k, s in product(min_ks, ss):
        k, s = check_integer("k", k, 1), check_integer("s", s, 1)
        primes.check_range(tail_limit)
        with float64_range(s):
            if tail_limit < max(100.0, math.exp(s / 2)):
                # (ln t)^s / t^2 must be decreasing beyond the cutoff for the bound
                raise ParameterError(f"tail_limit={tail_limit} too small for s={s}")
            tail_bound = k * incomplete_gamma(s + 1, math.log(tail_limit)).value
            min_scales[k, s] = tail_bound, math.factorial(s) * math.log(k + 1) ** s
    ss = {s for _, s in [*power_scales, *min_scales]}  # as checked, each once

    def row(step):
        p, logs = step.astype(np.float64), list(map(math.log, step.tolist()))
        ls = {s: np.array([v**s for v in logs]) for s in ss}
        for k, s in power_scales:
            yield from ((p <= k) * (ls[s] / p), (p > k) * (ls[s] / (p * p)))
        for k, s in min_scales:
            yield np.minimum(p, k) * ls[s] / (p * p)

    n = 2 * len(power_scales) + len(min_scales)  # the series, in record order; no walk for none
    sums = iter(float_sums(map(row, primes.steps(tail_limit) if n else ()), n))
    powers, mins = {}, {}
    for (k, s), (log_power, scale) in power_scales.items():
        head, tail = next(sums), next(sums)
        powers[k, s] = PrimeLogPowerSums(head, tail, head / log_power if k >= 2 else 0.0, tail * k / scale)
    for (k, s), (tail_bound, scale) in min_scales.items():
        value = 1.0 + next(sums)
        mins[k, s] = MinPkSum(value, tail_bound, (value + tail_bound) / scale)
    return powers, mins


_ABEL_FUNCTIONS = {
    "reciprocal": lambda t: 1.0 / t,
    "reciprocal_square": lambda t: 1.0 / (t * t),
}


def abel_check(weights: Sequence[float], f_kind: str) -> tuple[float, float]:
    """Evaluate sum a_n f(n) directly and by partial summation.

    With A(t) the step partial-sum function, the two agree exactly:
    sum_{n<=N} a_n f(n) = A(N) f(N) - integral_1^N A(t) f'(t) dt, and the
    integral is evaluated exactly on each unit interval where A is constant,
    so the identity is a machine-checkable equality up to rounding.
    """
    if f_kind not in _ABEL_FUNCTIONS:
        raise DomainError(f"unknown f_kind {f_kind!r}")
    f = _ABEL_FUNCTIONS[f_kind]
    n_terms = len(weights)
    if n_terms == 0:
        return (0.0, 0.0)
    direct = math.fsum(w * f(n) for n, w in enumerate(weights, start=1))
    partial = 0.0
    partials = []
    for w in weights:
        partial += w
        partials.append(partial)
    # integral_m^(m+1) A(t) f'(t) dt = A(m) (f(m+1) - f(m)) since A is constant there
    integral = math.fsum(
        partials[m - 1] * (f(m + 1) - f(m)) for m in range(1, n_terms)
    )
    abel = partials[-1] * f(n_terms) - integral
    return (direct, abel)
