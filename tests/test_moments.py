import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romanoff_lab import moments
from romanoff_lab.errors import CapacityError, DomainError, ParameterError, TableIntegrityError
from romanoff_lab.moments import (
    MomentReport,
    PolynomialSpec,
    delta_L,
    delta_moment_report,
    lemma1_product,
    lemma2_check,
    lemma2_product_table,
    lemma3_report,
    moment_sum,
    omega_count,
    poly_moment_report,
    theorem1_report,
)
from romanoff_lab.sieve import FactorSieve, build_sieve, totient, totient_ratio

# hypothesis tests cannot take pytest fixtures; a small shared sieve is cheap
HYP_SIEVE = build_sieve(10**4)


class TestOmegaCount:
    def test_examples(self):
        assert omega_count([2, 4, 5], 2) == 2
        assert omega_count([2, 4, 5], 1) == 3
        assert omega_count([6, 10, 15], 5) == 2

    def test_divisor_monotonicity(self):
        values = [6, 10, 15, 30, 45]
        # d | d' implies omega(d') <= omega(d)
        assert omega_count(values, 15) <= omega_count(values, 5)
        assert omega_count(values, 30) <= omega_count(values, 15)

    def test_numpy_input(self):
        assert omega_count(np.array([4, 8, 9]), 4) == 2

    def test_blocked_count_matches_unblocked(self):
        # more than two 2^16 blocks, with a partial last block
        rng = np.random.default_rng(5)
        arr = rng.integers(1, 10**7, size=2 * moments._FSUM_BLOCK + 123, dtype=np.int64)
        for d in (1, 2, 3, 7, 97, 65537):
            assert omega_count(arr, d) == int(np.count_nonzero(arr % d == 0))
            assert omega_count(arr, d) == omega_count(arr.tolist(), d)

    def test_errors(self):
        with pytest.raises(DomainError):
            omega_count([], 2)
        with pytest.raises(DomainError):
            omega_count([1, 2], 0)


class TestMomentSum:
    def test_all_ones(self, sieve10k):
        assert moment_sum([1, 1, 1], 5, sieve10k) == 3

    def test_two_three(self, sieve10k):
        assert moment_sum([2, 3], 1, sieve10k) == Fraction(7, 2)

    def test_square(self, sieve10k):
        assert moment_sum([2], 2, sieve10k) == 4

    @given(
        st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_at_least_list_length(self, values, s):
        assert moment_sum(values, s, HYP_SIEVE) >= len(values)

    def test_root_tends_to_max_ratio(self, sieve10k):
        rng = random.Random(4)
        for _ in range(20):
            values = [rng.randint(1, 10**4) for _ in range(30)]
            max_ratio = max(totient_ratio(v, sieve10k) for v in values)
            roots = [
                float(moment_sum(values, s, sieve10k)) ** (1.0 / s)
                for s in range(1, 7)
            ]
            # bounded above by N^(1/s) * max and below by max itself
            for s, r in enumerate(roots, start=1):
                assert r <= float(max_ratio) * len(values) ** (1.0 / s) + 1e-9
            assert roots[-1] <= roots[0] + 1e-9 or roots[-1] >= float(max_ratio) - 1e-9
            # approaching the max ratio from above as s grows
            assert roots[-1] >= float(max_ratio) * 0.999
            assert roots[-1] <= float(max_ratio) * len(values) ** (1 / 6) + 1e-9


class TestTheorem1Report:
    def test_single_one(self, sieve10k):
        for s in (1, 2, 5):
            rep = theorem1_report([1], s, 0.5, 10, sieve10k)
            assert rep.lhs == 1.0
            assert rep.rhs_core >= 1.0
            assert rep.implied_constant <= 1.0

    def test_alpha_monotone_rhs(self, sieve10k):
        values = list(range(1, 1001))
        low = theorem1_report(values, 1, 0.9, 1000, sieve10k)
        high = theorem1_report(values, 1, 0.95, 1000, sieve10k)
        assert high.rhs_core >= low.rhs_core
        assert low.implied_constant > 0

    def test_primorial_copies(self, sieve10k):
        primorial = 2 * 3 * 5 * 7 * 11  # 2310, phi = 480
        assert totient(primorial, sieve10k) == 480
        rep = theorem1_report([primorial] * 1000, 1, 0.5, primorial, sieve10k)
        assert rep.lhs == pytest.approx(1000 * 2310 / 480, rel=1e-12)

    def test_parameter_errors(self, sieve10k):
        with pytest.raises(ParameterError):
            theorem1_report([1], 1, 1.0, 10, sieve10k)
        with pytest.raises(ParameterError):
            theorem1_report([100], 1, 0.5, 50, sieve10k)


class TestLemma1Product:
    def test_no_large_factor(self, sieve10k):
        product, bound = lemma1_product(6, 10, sieve10k)
        assert product == 1.0
        assert bound == pytest.approx(math.exp(0.2), rel=1e-12)

    def test_one_large_factor(self, sieve10k):
        product, bound = lemma1_product(6, 2, sieve10k)
        assert product == pytest.approx(4 / 3, rel=1e-12)
        assert bound == pytest.approx(math.e, rel=1e-12)

    def test_primorial(self, sieve10k):
        product, bound = lemma1_product(210, 1, sieve10k)
        assert product == pytest.approx((3 / 2) * (4 / 3) * (6 / 5) * (8 / 7), rel=1e-12)
        assert bound == pytest.approx(math.exp(4), rel=1e-12)

    def test_bound_holds_exhaustively(self, sieve10k):
        for n in range(2, 10**4 + 1):
            for y in (0.5, 1.0, 2.0, 5.0, math.log(n)):
                product, bound = lemma1_product(n, y, sieve10k)
                assert product <= bound + 1e-12

    def test_rejects_n_one(self, sieve10k):
        with pytest.raises(ParameterError):
            lemma1_product(1, 2.0, sieve10k)


class TestLemma2:
    def test_one(self, sieve10k):
        assert lemma2_check(1, sieve10k) == 1.0

    def test_two(self, sieve10k):
        assert lemma2_check(2, sieve10k) == pytest.approx(1.5, rel=1e-12)

    def test_table_matches_per_n(self, sieve10k, primes100k):
        table = lemma2_product_table(10**4, primes100k)
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 10**4)
            assert table[n] == pytest.approx(lemma2_check(n, sieve10k), rel=1e-9)

    def test_max_below_five_small(self, sieve10k, primes100k):
        table = lemma2_product_table(10**4, primes100k)
        assert float(table[1:].max()) < 5.0


class TestLemma3Report:
    def test_one(self, sieve10k):
        assert lemma3_report(1, 0.5, sieve10k) == (1.0, 1.0, 1.0)

    def test_two(self, sieve10k):
        ratio, product, constant = lemma3_report(2, 0.5, sieve10k)
        assert ratio == 2.0
        assert product == 1.0  # (ln 2)^0.5 < 2, no admissible prime
        assert constant == 2.0

    def test_sweep_finite(self, sieve10k):
        worst = max(
            lemma3_report(n, 0.5, sieve10k).implied_constant
            for n in range(1, 10**4 + 1)
        )
        assert math.isfinite(worst)
        assert worst >= 2.0


class TestPolyMomentReport:
    def test_identity_poly(self, sieve10k):
        poly = PolynomialSpec((0, 1))  # R(n) = n
        rep = poly_moment_report(poly, 3, 1, sieve10k)
        # n in {-3..3}\{0}: ratios 1, 2, 3/2 doubled
        assert rep.lhs == pytest.approx(9.0, rel=1e-12)

    def test_square_poly_z1(self, sieve10k):
        poly = PolynomialSpec((0, 0, 1))  # R(n) = n^2
        rep = poly_moment_report(poly, 1, 1, sieve10k)
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)

    def test_scaled_poly_term_dominance(self, sieve10k):
        # each term of 2R vs R obeys the submultiplicative totient comparison
        base = PolynomialSpec((0, 1))
        c = 2
        for n in range(-10, 11):
            if n == 0:
                continue
            r = abs(base.evaluate(n))
            scaled = c * r
            lhs_term = totient_ratio(scaled, sieve10k)
            rhs_term = totient_ratio(c, sieve10k) * totient_ratio(r, sieve10k)
            assert lhs_term <= rhs_term

    def test_content_enters_rhs(self, sieve10k):
        plain = poly_moment_report(PolynomialSpec((0, 1)), 10, 1, sieve10k)
        doubled = poly_moment_report(PolynomialSpec((0, 2)), 10, 1, sieve10k)
        assert doubled.parameters["content"] == 2
        assert doubled.rhs_core == pytest.approx(2 * plain.rhs_core, rel=1e-12)
        assert doubled.implied_constant > 0

    def test_capacity_error(self, sieve10k):
        poly = PolynomialSpec((0, 0, 0, 1))  # n^3
        with pytest.raises(CapacityError):
            poly_moment_report(poly, 500, 1, sieve10k)

    def test_horner_evaluation(self):
        poly = PolynomialSpec.from_descending([2, -1, 0, 7])  # 2n^3 - n^2 + 7
        assert poly.evaluate(3) == 2 * 27 - 9 + 7
        assert poly.degree == 3
        assert poly.content == 1
        assert PolynomialSpec((4, 6, 8)).content == 2


class TestDeltaL:
    def test_examples(self):
        assert delta_L(1, 1, [0]) == 1
        assert delta_L(2, 0, [1, 3]) == 24
        assert delta_L(1, 5, [5]) == 0

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=-100, max_value=100),
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, a, b, bs):
        rng = random.Random(a + b)
        shuffled = list(bs)
        rng.shuffle(shuffled)
        assert delta_L(a, b, bs) == delta_L(a, b, shuffled)


class TestDeltaMomentReport:
    def test_single_shift(self, sieve10k):
        rep = delta_moment_report(1, [0], 1, 1, 2, sieve10k)
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)

    def test_six_term_oracle(self, sieve10k):
        rep = delta_moment_report(1, [0, 2], 3, 1, 10, sieve10k)
        expected = 0.0
        for b in (-3, -2, -1, 1, 3):
            d = abs(0 - b) * abs(2 - b)
            expected += d / totient(d, sieve10k)
        assert rep.lhs == pytest.approx(expected, rel=1e-12)

    def test_a_ratio_in_rhs(self, sieve10k):
        rep = delta_moment_report(6, [1], 5, 1, 10, sieve10k)
        # a/phi(a) = 3 and ln(k+1) = ln 2
        assert rep.rhs_core == pytest.approx(3 * math.log(2) * 5, rel=1e-12)
        assert rep.implied_constant > 0

    def test_window_warning(self, sieve10k):
        with pytest.warns(UserWarning):
            delta_moment_report(1, [0], 50, 1, 10, sieve10k)

    def test_shift_bound_enforced(self, sieve10k):
        with pytest.raises(ParameterError):
            delta_moment_report(1, [100], 5, 1, 10, sieve10k)


def assert_within_fsum_bound(fast: float, exact: Fraction, s: int) -> None:
    """The reports' stated error: relative (s + 3) * 2^-53 from the exact sum."""
    assert abs(Fraction(fast) - exact) <= Fraction(s + 3, 2**53) * exact


class TestZRejected:
    @pytest.mark.parametrize("z", [0, -1, -0.5])
    def test_nonpositive_z(self, sieve10k, z):
        with pytest.raises(ParameterError):
            delta_moment_report(5, [0], z, 1, 10, sieve10k)


class TestFsumAgainstExactOracle:
    """The float reports against the exact Fraction moment_sum."""

    @given(
        st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_theorem1(self, values, s):
        rep = theorem1_report(values, s, 0.5, 10**4, HYP_SIEVE)
        assert_within_fsum_bound(rep.lhs, moment_sum(values, s, HYP_SIEVE), s)
        assert rep.lhs >= len(values)

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=3).filter(
            lambda c: c[0] != 0
        ),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_poly(self, coeffs, z, s):
        poly = PolynomialSpec.from_descending(coeffs)
        values = moments.poly_values(poly, z)
        if max(values, default=0) > HYP_SIEVE.limit:
            return
        rep = poly_moment_report(poly, z, s, HYP_SIEVE)
        if values:
            assert_within_fsum_bound(rep.lhs, moment_sum(values, s, HYP_SIEVE), s)
        else:
            assert rep.lhs == 0.0

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_delta(self, a, bs, z, s):
        values = moments.delta_values(a, bs, z)
        if max(values, default=0) > HYP_SIEVE.limit:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rep = delta_moment_report(a, bs, z, s, 10, HYP_SIEVE)
        if values:
            assert_within_fsum_bound(rep.lhs, moment_sum(values, s, HYP_SIEVE), s)
        else:
            assert rep.lhs == 0.0

    def test_verify_all_inputs_bit_equal(self, sieve1m):
        for n in (10**3, 10**4):
            values = list(range(1, n + 1))
            rep = theorem1_report(values, 1, 0.5, float(n), sieve1m)
            assert rep.lhs == float(moment_sum(values, 1, sieve1m))

    def test_block_boundaries(self, sieve1m):
        rng = random.Random(5)
        values = [rng.randint(1, 10**6) for _ in range(2 * moments._FSUM_BLOCK + 123)]
        arr = np.array(values)
        unblocked = math.fsum(((arr / sieve1m.totients(arr)) ** 2).tolist())
        assert moments._ratio_power_fsum(values, 2, sieve1m) == unblocked

    def test_corrupt_table_raises(self, sieve10k):
        spf = sieve10k.spf.copy()
        spf[7] = 13  # gathers phi(7) = 12 > 7
        corrupt = FactorSieve(limit=sieve10k.limit, spf=spf)
        with pytest.raises(TableIntegrityError):
            theorem1_report([6, 7, 8], 1, 0.5, 10, corrupt)


class TestTheorem1CutoffPrimes:
    def test_never_asks_is_prime(self, sieve10k, monkeypatch):
        # the cutoff primes come from a PrimeList, not a Miller-Rabin scan
        from romanoff_lab import sieve as sieve_module

        values = list(range(1, 5001))
        expected = theorem1_report(values, 2, 0.9, 10**6, sieve10k)
        calls = []
        monkeypatch.setattr(sieve_module, "is_prime", lambda n: calls.append(n))
        monkeypatch.setattr(moments, "is_prime", lambda n: calls.append(n), raising=False)
        assert theorem1_report(values, 2, 0.9, 10**6, sieve10k) == expected
        assert expected.parameters["prime_cutoff"] > 5
        assert calls == []

    def test_cutoff_primes_match_trial_division(self, sieve10k):
        # (ln M)^alpha = 30.0..., so omega(p) enters for p = 2, 3, ..., 29
        values = list(range(1, 1001))
        M = math.exp(30.5)
        rep = theorem1_report(values, 1, 0.999, M, sieve10k)
        cutoff = math.log(M) ** 0.999
        small = [p for p in range(2, math.floor(cutoff) + 1) if all(p % d for d in range(2, p))]
        assert small[-1] == 29
        expected = len(values) + math.fsum(
            omega_count(values, p) * math.log(p) / p for p in small
        )
        assert rep.rhs_core == expected
