"""Every library call with a float bound refuses nan and +-inf with
ParameterError, at once: none hangs, and none raises OverflowError or a bare
ValueError from int() or math.floor. Finite inputs that once ran out of
memory or time are refused within a second too."""

import math
import signal

import pytest

from romanoff_lab.elliptic import EllipticCurve, theorem5_report
from romanoff_lab.errors import CapacityError, ParameterError
from romanoff_lab.extremal import construct_extremal_set
from romanoff_lab.lemmas import gamma_bound_grid, incomplete_gamma
from romanoff_lab.moments import (
    PolynomialSpec,
    delta_moment_report,
    delta_values,
    poly_moment_report,
    poly_values,
)
from romanoff_lab.romanoff import order_weighted_sum, schnirelmann_pi2
from romanoff_lab.sequences import (
    EllipticOrders,
    Geometric,
    Polynomial,
    PowerTower,
    congruence_pair_sum,
    enumerate_terms,
)
from romanoff_lab.sieve import PrimeList, build_sieve, chebyshev_theta, mertens_products

PRIMES = PrimeList.build(10**4)
SIEVE = build_sieve(1000)
SQUARES = PolynomialSpec.from_descending([1, 0, 0])

CALLS = {
    "PrimeList.upto": lambda v: PRIMES.upto(v),
    "enumerate_terms tower": lambda v: enumerate_terms(PowerTower(2, 2), v),
    "enumerate_terms poly": lambda v: enumerate_terms(Polynomial(SQUARES), v),
    "enumerate_terms geom": lambda v: enumerate_terms(Geometric(2), v),
    "enumerate_terms ecorders": lambda v: enumerate_terms(
        EllipticOrders(EllipticCurve(1, 1)), v, PRIMES
    ),
    "congruence_pair_sum x": lambda v: congruence_pair_sum(Geometric(2), v, 1.0, PRIMES),
    "congruence_pair_sum alpha": lambda v: congruence_pair_sum(Geometric(2), 100, v, PRIMES),
    "order_weighted_sum": lambda v: order_weighted_sum(2, 2, v, PRIMES),
    "schnirelmann_pi2": lambda v: schnirelmann_pi2(v, 2, PRIMES),
    "chebyshev_theta": lambda v: chebyshev_theta(v, PRIMES),
    "mertens_products": lambda v: mertens_products(v, PRIMES),
    "incomplete_gamma": lambda v: incomplete_gamma(2, v),
    "gamma_bound_grid": lambda v: gamma_bound_grid(2, v),
    "poly_values": lambda v: poly_values(SQUARES, v),
    "delta_values": lambda v: delta_values(1, [0], v),
    "construct_extremal_set y": lambda v: construct_extremal_set(100, v, 10.0, SIEVE),
    "construct_extremal_set z": lambda v: construct_extremal_set(100, 2.5, v, SIEVE),
    "theorem5_report": lambda v: theorem5_report(EllipticCurve(1, 1), v, 1, SIEVE, PRIMES),
}


@pytest.fixture
def within_a_second():
    """Turns a hang into a failure: SIGALRM raises after one second."""

    def expire(signum, frame):
        raise TimeoutError("the call did not return within a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(CALLS))
def test_nonfinite_bound_is_a_parameter_error(call, value, within_a_second):
    with pytest.raises(ParameterError):
        CALLS[call](value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_delta_moment_report_refuses_nonfinite_x(value, within_a_second):
    # x bounds the shifts and the advisory z window; nan passed both unseen
    with pytest.raises(ParameterError, match="x="):
        delta_moment_report(2, [1, 3], 10.0, 2, value, SIEVE)


# values far past a 1000 table from the first block on: the reports read their
# values 2^16 at a time and refuse the first block past the table, where
# building all 2 * 10^9 + 1 of them raised MemoryError under 2 GB
@pytest.mark.parametrize(
    "report",
    [
        lambda: poly_moment_report(PolynomialSpec((1, 0, 1)), 1e9, 1, SIEVE),
        lambda: delta_moment_report(6, [1], 1e9, 1, 1e9, SIEVE),
    ],
    ids=["T3", "T4"],
)
def test_family_reports_refuse_the_first_block_past_the_table(report, within_a_second):
    with pytest.raises(CapacityError, match="exceeds sieve limit 1000"):
        report()


def test_polynomial_whose_terms_start_far_out_is_refused(within_a_second):
    # R(j) = j - 2^70 is not positive below j = 2^70 + 1; those j were walked
    with pytest.raises(CapacityError):
        enumerate_terms(Polynomial(PolynomialSpec((-(2**70), 1))), 2.0**71)


@pytest.mark.parametrize(
    "coeffs,x",
    [
        ((0, -(2**40), 1), 10),  # j^2 - 2^40 j: not positive below j = 2^40 + 1
        ((10**30, 0, 1), 10**20),  # j^2 + 10^30: above x at every j
    ],
)
def test_polynomial_passes_that_hold_no_term_are_not_evaluated(coeffs, x, within_a_second):
    with pytest.raises(CapacityError, match="no polynomial term among the first"):
        enumerate_terms(Polynomial(PolynomialSpec(coeffs)), x)
