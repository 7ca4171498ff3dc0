import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romanoff_lab.errors import CapacityError, ConstructionError, ParameterError
from romanoff_lab.extremal import alpha_sweep, construct_extremal_set
from romanoff_lab.moments import moment_sum, omega_count
from romanoff_lab.sieve import PrimeList, build_sieve, chebyshev_theta, p_minus, totient_ratio

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

    def test_empty_set_stops_at_the_first_product_above_m(self):
        # the whole window (2.5, 10^8] would be a product of 5.76 M primes
        start = time.perf_counter()
        ext = construct_extremal_set(10**6, 2.5, 10**8, build_sieve(1000))
        assert time.perf_counter() - start < 2
        assert ext.is_empty
        assert ext.Q == math.prod([3, 5, 7, 11, 13, 17, 19]) == 4849845

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

    def test_m_beyond_the_sieve_is_a_capacity_error(self):
        # Q = 15 <= M, so the set is not empty, and M = 10^6 lies past a 1000 table
        with pytest.raises(CapacityError, match="^M=1000000 exceeds sieve limit 1000$"):
            construct_extremal_set(10**6, 2.5, 6.9, build_sieve(1000))

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

    def test_one_construction_per_floor_of_y(self, monkeypatch):
        # at M = 5e5, z = 6.56 and y = 3.62, 3.18, 2.80: alphas 0.5 and 0.45
        # both keep the primes <= 3 out and the window (3, 6.56] in
        from romanoff_lab import extremal

        sieve = build_sieve(5 * 10**5)
        alphas = [0.5, 0.45, 0.4, 0.5]
        calls = []

        def counted(M, y, z, sv):
            calls.append(y)
            return construct_extremal_set(M, y, z, sv)

        monkeypatch.setattr(extremal, "construct_extremal_set", counted)
        entries = alpha_sweep(5 * 10**5, alphas, sieve)
        assert sorted(math.floor(y) for y in calls) == [2, 3]
        for alpha, e in zip(alphas, entries):
            ext = construct_extremal_set(5 * 10**5, e.y, e.z, sieve)
            assert e.alpha == alpha
            assert (e.Q, e.count, e.mean_ratio) == (ext.Q, ext.count, ext.mean_ratio)
            assert e.empirical_c == ext.mean_ratio * alpha

    @given(st.integers(min_value=55, max_value=10**5), st.sampled_from([0.5, 0.45, 0.4, 0.35, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_never_empty(self, M, alpha):
        # z = ln M / 2 gives Q <= e^theta(z) < M^0.509, so Q itself is a member
        try:
            (entry,) = alpha_sweep(M, [alpha], HYP_SIEVE)
        except (ParameterError, ConstructionError):  # y < 2, y >= z or no prime in (y, z]
            return
        assert entry.count >= 1 and math.log(entry.Q) < 0.509 * math.log(M)

    def test_theta_bound_that_keeps_the_sweep_nonempty(self):
        # theta(z) < 1.01624 z (Rosser and Schoenfeld, Illinois J. Math. 6, 1962), to ln M = 4000
        primes = PrimeList.build(2000)
        assert all(chebyshev_theta(z, primes) < 1.01624 * z for z in range(2, 2001))

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


class TestWindowPrimesFromPrimeList:
    def test_never_asks_is_prime(self, sieve1m, monkeypatch):
        # window and small primes come from one PrimeList, not Miller-Rabin
        from romanoff_lab import extremal
        from romanoff_lab import sieve as sieve_module

        expected_set = construct_extremal_set(10**6, 2.2, 6.9, sieve1m)
        expected_sweep = alpha_sweep(10**6, [0.5, 0.45, 0.4], sieve1m)
        calls = []
        monkeypatch.setattr(sieve_module, "is_prime", lambda n: calls.append(n))
        monkeypatch.setattr(extremal, "is_prime", lambda n: calls.append(n), raising=False)
        assert construct_extremal_set(10**6, 2.2, 6.9, sieve1m) == expected_set
        assert alpha_sweep(10**6, [0.5, 0.45, 0.4], sieve1m) == expected_sweep
        assert calls == []

    def test_z_beyond_prime_table_cap(self, sieve1m, monkeypatch):
        # refused by the table's limit check, before any sieving or testing
        from romanoff_lab import sieve as sieve_module

        calls = []
        monkeypatch.setattr(sieve_module, "is_prime", lambda n: calls.append(n))
        with pytest.raises(CapacityError, match="prime table limit 200000000"):
            construct_extremal_set(10**6, 2.2, 2 * 10**8, sieve1m)
        assert calls == []

    def test_members_avoid_every_prime_up_to_y(self, sieve1m):
        # y = 10.5: the window (10.5, 13.5] is {11, 13}; 2, 3, 5, 7 are avoided
        ext = construct_extremal_set(10**6, 10.5, 13.5, sieve1m)
        assert ext.Q == 143
        expected = [
            n for n in range(143, 10**6 + 1, 143) if all(n % p for p in (2, 3, 5, 7))
        ]
        assert list(ext.members) == expected


def members_by_definition(M: int, y: float, z: float) -> list[int]:
    """{n <= M : Q | n, no prime <= y divides n}, by trial division."""
    primes = [p for p in range(2, math.floor(z) + 1) if all(p % d for d in range(2, p))]
    Q = math.prod(p for p in primes if p > y)
    return [n for n in range(1, M + 1) if n % Q == 0 and all(n % p for p in primes if p <= y)]


class TestMembersAgainstDefinition:
    # (y, z, Q): y = 2.99 and 4.99 sit just below the primes 3 and 5
    WINDOWS = [(2.2, 6.9, 15), (2.99, 7.0, 105), (4.99, 11.5, 385), (2.0, 11.0, 1155)]

    @pytest.mark.parametrize("y,z,Q", WINDOWS)
    def test_members(self, y, z, Q):
        # M = Q, below 2Q, at 2Q, off a multiple of Q, and well past it
        for M in (Q, 2 * Q - 1, 2 * Q, 7 * Q + 3, 10**5 - 1):
            ext = construct_extremal_set(M, y, z, HYP_SIEVE)
            assert ext.Q == Q
            assert list(ext.members) == members_by_definition(M, y, z), (M, y, z)
