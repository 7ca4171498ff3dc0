import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romanoff_lab.errors import ConstructionError, ParameterError
from romanoff_lab.extremal import alpha_sweep, construct_extremal_set
from romanoff_lab.moments import moment_sum, omega_count
from romanoff_lab.sieve import build_sieve, p_minus, totient_ratio

HYP_SIEVE = build_sieve(10**5)


class TestConstruction:
    def test_basic_window(self, sieve1m):
        ext = construct_extremal_set(10**6, 2.2, 6.9, sieve1m)
        assert ext.Q == 15
        assert ext.count == 33333
        # enumeration oracle: odd multiples of 15
        expected = [n for n in range(15, 10**6 + 1, 15) if n % 2]
        assert list(ext.members) == expected

    def test_empty_when_q_exceeds_m(self, sieve1m):
        ext = construct_extremal_set(14, 2.2, 6.9, sieve1m)
        assert ext.is_empty
        assert ext.Q == 15
        assert ext.mean_ratio is None

    def test_mean_ratio_lower_bound(self, sieve1m):
        ext = construct_extremal_set(10**6, 2.2, 6.9, sieve1m)
        assert ext.mean_ratio >= Fraction(15, 8)

    def test_members_avoid_small_primes(self, sieve1m):
        ext = construct_extremal_set(10**5, 2.2, 6.9, sieve1m)
        members = list(ext.members)
        for p in (2,):  # all primes <= y
            assert omega_count(members, p) == 0
        for n in members[:50]:
            assert p_minus(n, sieve1m) > 2.2

    def test_q_is_member(self, sieve1m):
        ext = construct_extremal_set(10**4, 2.5, 8.0, sieve1m)
        assert ext.Q == 3 * 5 * 7
        assert ext.Q in ext.members

    def test_member_ratio_term_bound(self, sieve1m):
        ext = construct_extremal_set(10**5, 2.2, 6.9, sieve1m)
        # every member dominates the window product (1-1/3)^-1 (1-1/5)^-1
        window_bound = Fraction(3, 2) * Fraction(5, 4)
        for n in ext.members[:200]:
            assert totient_ratio(n, sieve1m) >= window_bound

    def test_no_prime_in_window(self, sieve1m):
        with pytest.raises(ConstructionError):
            construct_extremal_set(10**6, 3.2, 4.9, sieve1m)

    def test_parameter_validation(self, sieve1m):
        with pytest.raises(ParameterError):
            construct_extremal_set(10**6, 1.0, 6.9, sieve1m)
        with pytest.raises(ParameterError):
            construct_extremal_set(10**6, 6.9, 2.2, sieve1m)


class TestAlphaSweep:
    def test_derived_window(self, sieve1m):
        # the y = (ln M)^alpha, z = (ln M)/2 recipe: with ln M = 16 the window
        # is (4, 8], so Q = 5 * 7; checked via the explicit construction
        ext = construct_extremal_set(10**6, 4.0, 8.0, sieve1m)
        assert ext.Q == 35
        # and the sweep derives the window itself: ln 1e6 ~ 13.8 gives
        # y ~ 3.72, z ~ 6.9, so the window holds only the prime 5
        entries = alpha_sweep(10**6, [0.5], sieve1m)
        assert entries[0].y == pytest.approx(math.log(10**6) ** 0.5)
        assert entries[0].z == pytest.approx(math.log(10**6) / 2)
        assert entries[0].Q == 5

    def test_ordering_violation(self, sieve1m):
        # alpha pushing y to/above z must raise
        with pytest.raises(ParameterError):
            alpha_sweep(10**6, [0.5, 0.999], sieve1m)
        with pytest.raises(ParameterError):
            alpha_sweep(20, [0.5], sieve1m)  # ln 20 ~ 3, y ~ 1.73 < 2

    def test_mean_ratio_monotone_in_alpha(self, sieve1m):
        entries = alpha_sweep(10**6, [0.50, 0.45, 0.40], sieve1m)
        ratios = [e.mean_ratio for e in entries]
        assert ratios[0] <= ratios[1] <= ratios[2]
        for e in entries:
            assert e.empirical_c == pytest.approx(e.mean_ratio * e.alpha, rel=1e-12)


class TestMeanAgainstExactOracle:
    """mean_ratio is fsum / count; the exact Fraction mean is the oracle."""

    @given(
        st.integers(min_value=1, max_value=10**5),
        st.sampled_from([(2.2, 6.9), (2.5, 8.0), (2.0, 3.5), (3.5, 11.5), (2.0, 7.5)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bound(self, M, window):
        y, z = window
        ext = construct_extremal_set(M, y, z, HYP_SIEVE)
        if ext.is_empty:
            return
        assert isinstance(ext.mean_ratio, float)
        exact = moment_sum(ext.members, 1, HYP_SIEVE) / ext.count
        assert abs(Fraction(ext.mean_ratio) - exact) <= Fraction(4, 2**53) * exact

    def test_verify_all_input_bit_equal(self, sieve1m):
        ext = construct_extremal_set(10**5, 2.2, 6.9, sieve1m)
        assert ext.mean_ratio == float(moment_sum(ext.members, 1, sieve1m) / ext.count)
        assert all(type(n) is int for n in ext.members)
