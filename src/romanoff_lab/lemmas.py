"""Numeric verification of the analytic toolbox: the integer-shape incomplete gamma
bound, the prime log-power sums at k in POWER_KS and the min(p,k) split sum at k in
MIN_KS, both at s in SS from one walk (``prime_sums``), and partial summation."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, product
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import CapacityError, DomainError, ParameterError, check_at_least, check_finite, check_integer

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
    try:
        if s >= 172:  # (s - 1)! alone is past the float range: refused before the terms
            raise OverflowError
        terms = accumulate((x / i for i in range(1, s)), mul, initial=1.0)  # x^i / i!
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
# the grid of the lemma prime sums: k of the power sums, k of the min(p, k) sum, and s of both
POWER_KS = (2, 10, 100, 1000)
MIN_KS = (1, 2, 10, 100)
SS = (1, 2, 3)


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
    primes: PrimeList, tail_limit: float, *, powers: bool = True, mins: bool = True
) -> tuple[dict[tuple[int, int], PrimeLogPowerSums], dict[tuple[int, int], MinPkSum]]:
    """The power sums at (k, s) in POWER_KS x SS if ``powers`` and the min(p, k) sum
    at (k, s) in MIN_KS x SS if ``mins``, keyed and ordered by (k, s), from one walk
    over the primes p <= tail_limit.

    powers: head = sum_{p<=k} (ln p)^s / p, tail = sum_{k<p} (ln p)^s / p^2 and the
    empirical constants of their classical bounds, head_ratio = head / (ln k)^s and
    tail_ratio = tail * k / (s! * (ln(k+2))^(s-1)).
    mins: value = 1 + sum_p min(p, k) (ln p)^s / p^2, the bound k * Gamma(s+1, ln
    tail_limit) on its remainder over p > tail_limit (monotone comparison with the
    integral), and normalized = (value + tail_bound) / (s! * (ln(k+1))^s).

    A step takes ln p once a prime, (ln p)^s by Python's float pow and p^2 once, and
    splits at each k: a head sums its p <= k, a tail its p > k. float_sums adds each
    series exactly, to the bits of math.fsum over the primes.
    """
    import numpy as np

    from .exact import float_sums

    power_grid = list(product(POWER_KS, SS)) if powers else []
    min_grid = list(product(MIN_KS, SS)) if mins else []
    if not (power_grid or min_grid):  # no walk for no record
        return {}, {}
    primes.check_range(tail_limit)
    if too_big := [k for k in POWER_KS if powers and k > tail_limit]:
        raise ParameterError(f"k={too_big[0]} exceeds tail_limit={tail_limit}")
    if min_grid and tail_limit < 100:  # the bound needs (ln t)^s / t^2 decreasing past max(100, e^(s/2))
        raise ParameterError(f"tail_limit={tail_limit} too small for s=1")

    def row(step):
        p, logs = step.astype(np.float64), list(map(math.log, step.tolist()))
        pp, ls = p * p, {s: np.array([v**s for v in logs]) for s in SS}
        cut = {k: np.searchsorted(step, k, side="right") for k in POWER_KS}
        for k, s in power_grid:
            yield from (ls[s][: cut[k]] / p[: cut[k]], ls[s][cut[k] :] / pp[cut[k] :])
        for k, s in min_grid:
            yield np.minimum(p, k) * ls[s] / pp

    sums = iter(float_sums(map(row, primes.steps(tail_limit)), 2 * len(power_grid) + len(min_grid)))
    power_sums, min_sums = {}, {}
    for k, s in power_grid:
        head, tail = next(sums), next(sums)
        scale = math.factorial(s) * math.log(k + 2) ** (s - 1)
        power_sums[k, s] = PrimeLogPowerSums(head, tail, head / math.log(k) ** s, tail * k / scale)
    for k, s in min_grid:
        value = 1.0 + next(sums)
        tail_bound = k * incomplete_gamma(s + 1, math.log(tail_limit)).value
        scale = math.factorial(s) * math.log(k + 1) ** s
        min_sums[k, s] = MinPkSum(value, tail_bound, (value + tail_bound) / scale)
    return power_sums, min_sums


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
