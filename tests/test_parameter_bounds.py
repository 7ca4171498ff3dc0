"""Every lower bound that errors.check_at_least owns, one row per call site:
one below the bound raises ParameterError with the exact message the site
always gave, and the bound itself passes. A nan passes the comparison, so a
float bound still reaches check_finite's message."""

import math

import pytest

from romanoff_lab.elliptic import EllipticCurve, congruence_class_census, hasse_margin, theorem5_report
from romanoff_lab.errors import CapacityError, ParameterError
from romanoff_lab.extremal import construct_extremal_set
from romanoff_lab.lemmas import incomplete_gamma
from romanoff_lab.moments import (
    PolynomialSpec,
    check_theorem1_parameters,
    delta_L,
    delta_moment_report,
    moment_sum,
    poly_moment_report,
)
from romanoff_lab.romanoff import (
    multiplicative_order,
    order_distribution,
    representation_counts,
    root_count,
    schnirelmann_pi2,
    theorem9_report,
)
from romanoff_lab.sequences import Geometric, enumerate_terms
from romanoff_lab.sieve import PrimeList, build_sieve, chebyshev_theta, mertens_products

PRIMES = PrimeList.build(10**4)
SIEVE = build_sieve(1000)
CURVE = EllipticCurve(1, 1)
POLY = PolynomialSpec((1, 0, 1))

# (site, call of the bounded value, low, message one below low)
SITES = [
    ("theorem5_report-s", lambda v: theorem5_report(CURVE, 10, v, SIEVE, PRIMES), 1, "s=0 must be >= 1"),
    ("theorem5_report-x", lambda v: theorem5_report(CURVE, v, 1, SIEVE, PRIMES), 2, "x=1 must be >= 2"),
    ("congruence_class_census-t", lambda v: congruence_class_census(CURVE, 100, v, PRIMES), 1, "modulus t=0 must be >= 1"),
    ("construct_extremal_set-M", lambda v: construct_extremal_set(v, 2.5, 10.0, SIEVE), 1, "M=0 must be >= 1"),
    ("incomplete_gamma-x", lambda v: incomplete_gamma(2, v), 0, "x=-1 must be >= 0"),
    ("hasse_margin-order", lambda v: hasse_margin(CURVE, 7, v), 1, "order=0 must be >= 1"),
    ("moment_sum-s", lambda v: moment_sum([1, 2, 3], v, SIEVE), 1, "s=0 must be >= 1"),
    ("check_theorem1_parameters-s", lambda v: check_theorem1_parameters(v, 0.5, 10.0), 1, "s=0 must be >= 1"),
    ("poly_moment_report-z", lambda v: poly_moment_report(POLY, v, 1, SIEVE), 1, "z=0 must be >= 1"),
    ("poly_moment_report-s", lambda v: poly_moment_report(POLY, 10, v, SIEVE), 1, "s=0 must be >= 1"),
    ("delta_L-a", lambda v: delta_L(v, 0, [1]), 1, "a=0 must be >= 1"),
    ("delta_moment_report-a", lambda v: delta_moment_report(v, [1, 3], 10.0, 2, 100.0, SIEVE), 1, "a=0 must be >= 1"),
    ("delta_moment_report-s", lambda v: delta_moment_report(1, [1, 3], 10.0, v, 100.0, SIEVE), 1, "s=0 must be >= 1"),
    ("representation_counts-x", lambda v: representation_counts(Geometric(2), v, PRIMES), 1, "x=0 must be >= 1"),
    ("representation_counts-budget", lambda v: representation_counts(Geometric(2), 2, PRIMES, budget=v), 0, "budget=-1 must be >= 0"),
    ("schnirelmann_pi2-a", lambda v: schnirelmann_pi2(100, v, PRIMES), 1, "shift a=0 must be >= 1"),
    ("schnirelmann_pi2-x", lambda v: schnirelmann_pi2(v, 2, PRIMES), 2, "x=1 must be >= 2"),
    ("multiplicative_order-a", lambda v: multiplicative_order(v, 7), 2, "a=1 must be >= 2"),
    ("order_distribution-a", lambda v: order_distribution(v, 3, 10), 2, "a=1 must be >= 2"),
    ("order_distribution-z", lambda v: order_distribution(2, v, 10), 1, "z=0 must be >= 1"),
    ("order_distribution-trial_cap", lambda v: order_distribution(2, 3, v), 2, "trial_cap=1 must be >= 2"),
    ("root_count-m", lambda v: root_count(POLY, v), 1, "m=0 must be >= 1"),
    ("theorem9_report-x", lambda v: theorem9_report(2, 2, v, PRIMES), 3, "x=2 must be >= 3"),
    ("iter_terms-x", lambda v: enumerate_terms(Geometric(2), v), 1, "x=0 must be >= 1"),
    ("mertens_products-x", lambda v: mertens_products(v, PRIMES), 2, "x=1 must be >= 2"),
    ("chebyshev_theta-x", lambda v: chebyshev_theta(v, PRIMES), 2, "x=1 must be >= 2"),
]


@pytest.mark.parametrize("call,low,message", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_one_below_the_bound_is_refused_and_the_bound_passes(call, low, message):
    with pytest.raises(ParameterError) as refused:
        call(low - 1)
    assert str(refused.value) == message
    call(low)


def test_theorem9_budget():
    # 0 passes the check and is a cap that any term exceeds
    with pytest.raises(ParameterError) as refused:
        theorem9_report(2, 2, 10, PRIMES, budget=-1)
    assert str(refused.value) == "budget=-1 must be >= 0"
    with pytest.raises(CapacityError, match="above budget 0"):
        theorem9_report(2, 2, 10, PRIMES, budget=0)


@pytest.mark.parametrize(
    "call",
    [lambda v: mertens_products(v, PRIMES), lambda v: chebyshev_theta(v, PRIMES), lambda v: incomplete_gamma(2, v)],
    ids=["mertens_products", "chebyshev_theta", "incomplete_gamma"],
)
def test_nan_meets_the_finite_check(call):
    with pytest.raises(ParameterError) as refused:
        call(math.nan)
    assert str(refused.value) == "x=nan is not a finite number"
