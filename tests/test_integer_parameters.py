"""Every integer parameter that errors.check_integer owns, one row per call
site: a float, integral or not, raises ParameterError naming the parameter,
and a numpy integer gives what the Python int gives (compared by repr, so a
numpy scalar that leaks into the result shows too)."""

import re

import numpy as np
import pytest

from romanoff_lab.cli import run
from romanoff_lab.elliptic import (
    EllipticCurve,
    congruence_class_census,
    count_points,
    hasse_margin,
    legendre_symbol,
    theorem5_report,
)
from romanoff_lab.errors import ParameterError, check_integer
from romanoff_lab.extremal import alpha_sweep, construct_extremal_set
from romanoff_lab.lemmas import gamma_bound_grid, incomplete_gamma
from romanoff_lab.moments import (
    PolynomialSpec,
    check_theorem1_parameters,
    delta_L,
    delta_moment_report,
    delta_values,
    lemma1_product,
    lemma2_check,
    lemma2_product_table,
    lemma3_report,
    moment_sum,
    omega_count,
    poly_moment_report,
    theorem1_report,
)
from romanoff_lab.romanoff import (
    konyagin_ratio,
    multiplicative_order,
    order_distribution,
    order_weighted_sum,
    representation_counts,
    root_count,
    schnirelmann_pi2,
    theorem6_report,
    theorem9_report,
)
from romanoff_lab.sequences import Explicit, Geometric, PowerTower, enumerate_terms
from romanoff_lab.sieve import (
    PrimeList,
    build_sieve,
    factorize_trial,
    is_prime,
    is_squarefree,
    nu,
    p_minus,
    p_plus,
    totient,
    totient_ratio,
    totient_table,
    totient_trial,
)

PRIMES = PrimeList.build(10**4)
SIEVE = build_sieve(1000)
CURVE = EllipticCurve(1, 1)
POLY = PolynomialSpec((1, 0, 1))

# (site, parameter name, call of the integer value, an integer the call takes)
SITES = [
    ("is_prime-n", "n", lambda v: is_prime(v), 7),
    ("factorize_trial-n", "n", lambda v: factorize_trial(v), 12),
    ("totient_trial-n", "n", lambda v: totient_trial(v), 12),
    ("factorize-n", "n", lambda v: SIEVE.factorize(v), 12),
    ("totient-n", "n", lambda v: totient(v, SIEVE), 12),
    ("totient_ratio-n", "n", lambda v: totient_ratio(v, SIEVE) ** 20, 997),
    ("nu-n", "n", lambda v: nu(v, SIEVE), 12),
    ("p_plus-n", "n", lambda v: p_plus(v, SIEVE), 12),
    ("p_minus-n", "n", lambda v: p_minus(v, SIEVE), 12),
    ("is_squarefree-n", "n", lambda v: is_squarefree(v, SIEVE), 12),
    ("build_sieve-limit", "sieve limit", lambda v: build_sieve(v), 100),
    ("PrimeList.build-limit", "prime table limit", lambda v: PrimeList.build(v), 100),
    ("PrimeList.contains-n", "n", lambda v: PRIMES.contains(v), 7),
    ("totient_table-limit", "limit", lambda v: totient_table(v).tolist(), 100),
    ("PolynomialSpec-coefficient", "coefficient", lambda v: PolynomialSpec((v, 1)).coeffs, 3),
    ("from_descending-coefficient", "coefficient", lambda v: PolynomialSpec.from_descending([1, v]).coeffs, 3),
    ("omega_count-d", "d", lambda v: omega_count([2, 4, 5], v), 2),
    ("moment_sum-s", "s", lambda v: moment_sum([1, 2, 3], v, SIEVE), 2),
    ("moment_sum-n", "n", lambda v: moment_sum([1, v, 3], 2, SIEVE), 2),
    ("check_theorem1_parameters-s", "s", lambda v: check_theorem1_parameters(v, 0.5, 10.0), 2),
    ("theorem1_report-s", "s", lambda v: theorem1_report([2, 3, 4], v, 0.5, 10.0, SIEVE), 2),
    ("lemma1_product-n", "n", lambda v: lemma1_product(v, 1.5, SIEVE), 12),
    ("lemma2_check-n", "n", lambda v: lemma2_check(v, SIEVE), 12),
    ("lemma2_product_table-limit", "limit", lambda v: lemma2_product_table(v, PRIMES).tolist(), 100),
    ("lemma3_report-n", "n", lambda v: lemma3_report(v, 0.5, SIEVE), 12),
    ("poly_moment_report-s", "s", lambda v: poly_moment_report(POLY, 10, v, SIEVE), 2),
    ("delta_L-a", "a", lambda v: delta_L(v, 0, [3]), 2),
    ("delta_L-b", "b", lambda v: delta_L(2, v, [3]), 1),
    ("delta_L-b_i", "b_i", lambda v: delta_L(2, 0, [v]), 3),
    ("delta_values-a", "a", lambda v: delta_values(v, [1], 10), 2),
    ("delta_values-b_i", "b_i", lambda v: delta_values(2, [v], 10), 1),
    ("delta_moment_report-a", "a", lambda v: delta_moment_report(v, [1, 3], 3.0, 2, 100.0, SIEVE), 2),
    ("delta_moment_report-s", "s", lambda v: delta_moment_report(2, [1, 3], 3.0, v, 100.0, SIEVE), 2),
    ("Geometric-base", "base", lambda v: enumerate_terms(Geometric(v), 100), 3),
    ("Geometric-start_exponent", "start_exponent", lambda v: Geometric(2, v), 1),
    ("PowerTower-base", "base", lambda v: enumerate_terms(PowerTower(v, 2), 10**6), 2),
    ("PowerTower-power", "power", lambda v: enumerate_terms(PowerTower(2, v), 10**6), 2),
    ("Explicit-term", "term", lambda v: enumerate_terms(Explicit((1, v, 3)), 100), 2),
    ("EllipticCurve-A", "A", lambda v: EllipticCurve(v, 1), 2),
    ("EllipticCurve-B", "B", lambda v: EllipticCurve(1, v), 2),
    ("legendre_symbol-a", "a", lambda v: legendre_symbol(v, 7), 3),
    ("legendre_symbol-p", "p", lambda v: legendre_symbol(2, v), 1000003),
    ("count_points-p", "p", lambda v: count_points(CURVE, v), 10007),
    ("hasse_margin-p", "p", lambda v: hasse_margin(CURVE, v, 5), 7),
    ("hasse_margin-order", "order", lambda v: hasse_margin(CURVE, 7, v), 5),
    ("congruence_class_census-t", "modulus t", lambda v: congruence_class_census(CURVE, 100, v, PRIMES), 4),
    ("theorem5_report-s", "s", lambda v: theorem5_report(CURVE, 100, v, SIEVE, PRIMES), 2),
    ("incomplete_gamma-s", "s", lambda v: incomplete_gamma(v, 1.0), 3),
    ("gamma_bound_grid-s", "s", lambda v: gamma_bound_grid(v, 5.0), 3),
    ("representation_counts-x", "x", lambda v: representation_counts(Geometric(2), v, PRIMES).r.tolist(), 100),
    (
        "representation_counts-budget",
        "budget",
        lambda v: representation_counts(Geometric(2), 100, PRIMES, budget=v).r.tolist(),
        10**6,
    ),
    ("theorem6_report-x", "x", lambda v: theorem6_report(Geometric(2), v, 1.0, PRIMES), 4096),
    ("schnirelmann_pi2-a", "shift a", lambda v: schnirelmann_pi2(100, v, PRIMES), 2),
    ("multiplicative_order-a", "a", lambda v: multiplicative_order(v, 1000003), 3),
    ("multiplicative_order-p", "p", lambda v: multiplicative_order(2, v), 1000003),
    ("order_weighted_sum-a", "a", lambda v: order_weighted_sum(v, 2, 100, PRIMES), 3),
    ("order_weighted_sum-b", "b", lambda v: order_weighted_sum(2, v, 100, PRIMES), 3),
    ("order_distribution-a", "a", lambda v: order_distribution(v, 10, 100), 3),
    ("order_distribution-z", "z", lambda v: order_distribution(2, v, 100), 10),
    ("order_distribution-trial_cap", "trial_cap", lambda v: order_distribution(2, 10, v), 100),
    ("root_count-m", "m", lambda v: root_count(POLY, v), 10),
    ("konyagin_ratio-m", "m", lambda v: konyagin_ratio(POLY, v), 10),
    ("theorem9_report-a", "a", lambda v: theorem9_report(v, 2, 4096, PRIMES), 3),
    ("theorem9_report-b", "b", lambda v: theorem9_report(2, v, 4096, PRIMES), 3),
    ("theorem9_report-x", "x", lambda v: theorem9_report(2, 2, v, PRIMES), 4096),
    ("theorem9_report-budget", "budget", lambda v: theorem9_report(2, 2, 4096, PRIMES, budget=v), 10**9),
    ("construct_extremal_set-M", "M", lambda v: construct_extremal_set(v, 2.5, 10.0, SIEVE), 1000),
    ("alpha_sweep-M", "M", lambda v: alpha_sweep(v, [0.5], SIEVE), 1000),
]


@pytest.mark.parametrize("name,call,good", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_float_is_refused_and_numpy_integer_reads_as_int(name, call, good):
    for value in (2.5, 2.0):
        with pytest.raises(ParameterError, match=f"^{re.escape(f'{name}={value!r} is not an integer')}$"):
            call(value)
    assert repr(call(np.int64(good))) == repr(call(good))


@pytest.mark.parametrize("value", [None, "3", 3.0, np.float64(3.0)])
def test_check_integer_refuses_what_has_no_index(value):
    with pytest.raises(ParameterError) as refused:
        check_integer("k", value)
    assert str(refused.value) == f"k={value!r} is not an integer"


@pytest.mark.parametrize("value", [3, True, np.int64(3), np.uint8(3), np.int32(-3)])
def test_check_integer_reads_the_int_it_holds(value):
    got = check_integer("k", value)
    assert type(got) is int and got == int(value)


def test_check_integer_checks_the_bound_after_the_type():
    assert check_integer("k", np.int64(2), 2) == 2
    with pytest.raises(ParameterError, match="^k=1 must be >= 2$"):
        check_integer("k", np.int64(1), 2)
    with pytest.raises(ParameterError, match="is not an integer"):
        check_integer("k", 1.0, 2)


def test_bool_limit_is_the_limit_it_holds():
    from romanoff_lab.errors import CapacityError

    with pytest.raises(CapacityError, match=r"^sieve limit 1 outside \[2, "):
        build_sieve(True)


class TestNumpyIntegersDoNotWrap:
    """A spec stores the Python int, so its arithmetic is exact past int64."""

    def test_curve_discriminant(self):
        curve = EllipticCurve(np.int64(10**7), 1)
        assert curve.discriminant == 4 * 10**21 + 27
        assert type(curve.A) is int and type(curve.B) is int

    def test_power_tower_terms(self):
        terms = enumerate_terms(PowerTower(np.int64(3), np.int64(2)), 10**40)
        assert terms[-1] == 3**81 == 443426488243037769948249630619149892803
        assert terms == enumerate_terms(PowerTower(3, 2), 10**40)

    def test_geometric_terms(self):
        base = np.int64(10**9)
        assert enumerate_terms(Geometric(base), 10**30) == [10 ** (9 * e) for e in range(4)]


@pytest.mark.parametrize(
    "argv,message",
    [
        ("elliptic --curve 1,1 --x 1.5", "--x must be >= 2, got 1.5"),
        ("elliptic --report orders --curve 1,1 --x 1", "--x must be >= 2, got 1.0"),
        ("elliptic --curve 1,1 --x 100 --s 0", "--s must be >= 1, got 0"),
        ("elliptic --curve 1,1 --x 100 --census-mod 0", "--census-mod must be >= 1, got 0"),
        ("romanoff --report order-sum --P 1.5", "--P must be >= 2, got 1.5"),
        ("lemmas --gamma --s-max 0", "--s-max must be >= 1, got 0"),
    ],
)
def test_cli_bound_is_refused_with_exit_2(argv, message, capsys):
    assert run(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
