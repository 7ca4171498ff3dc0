import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from romanoff_lab import sequences
from romanoff_lab.elliptic import EllipticCurve
from romanoff_lab.errors import CapacityError, ParameterError, RangeError, TableIntegrityError
from romanoff_lab.moments import theorem1_report
from romanoff_lab.romanoff import order_weighted_sum, theorem6_report
from romanoff_lab.sieve import (
    _DENSE_SPAN,
    _SEGMENT,
    FactorSieve,
    PrimeList,
    _isqrt_lanes,
    _powmod_lanes,
    build_sieve,
    chebyshev_theta,
    factorize_trial,
    int64_values,
    is_prime,
    is_squarefree,
    mertens_products,
    nu,
    p_minus,
    p_plus,
    totient,
    totient_ratio,
    totient_table,
    totient_trial,
)


def trial_spf(n: int) -> int:
    """Oracle: smallest prime factor by direct trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def brute_totient(n: int) -> int:
    """Oracle: count m in [1, n] with gcd(m, n) = 1."""
    return int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))


def full_mask_primes(limit: int) -> np.ndarray:
    """Oracle: Eratosthenes over a mask of every n <= limit."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


class TestBuildSieve:
    def test_small_values(self):
        sv = build_sieve(10)
        assert int(sv.spf[9]) == 3
        assert int(sv.spf[7]) == 7

    def test_minimal_limit(self):
        sv = build_sieve(2)
        assert int(sv.spf[2]) == 2

    def test_limit_out_of_range(self):
        with pytest.raises(CapacityError):
            build_sieve(1)
        with pytest.raises(CapacityError):
            build_sieve(10**9)

    @pytest.mark.parametrize("limit", [20201.0, 20201.5])
    def test_float_limit_is_parameter_error(self, limit):
        with pytest.raises(ParameterError, match=re.escape(repr(limit))):
            build_sieve(limit)

    def test_numpy_integer_limit(self):
        assert build_sieve(np.int64(10)).limit == 10

    def test_random_entries_match_trial_division(self, sieve1m):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(2, 10**6)
            assert int(sieve1m.spf[n]) == trial_spf(n)

    def test_invariants_exhaustive(self, sieve10k):
        ns = np.arange(2, 10**4 + 1)
        spf = sieve10k.spf[2:]
        assert np.all(ns % spf == 0)
        # full agreement with the trial-division oracle, all n <= 1e4
        oracle = np.array([trial_spf(int(n)) for n in ns])
        assert np.array_equal(spf.astype(np.int64), oracle)
        # spf[n] = n exactly when n is prime
        prime_mask = oracle == ns
        assert np.array_equal(spf == ns, prime_mask)
        # composite entries never exceed sqrt(n)
        comp = ~prime_mask
        assert np.all(spf[comp].astype(np.int64) ** 2 <= ns[comp])

    def test_cache_roundtrip(self, tmp_path):
        first = build_sieve(5000, cache_dir=str(tmp_path))
        assert (tmp_path / "spf-v1-5000.tbl").exists()
        second = build_sieve(5000, cache_dir=str(tmp_path))
        assert np.array_equal(first.spf, second.spf)

    def test_cache_corruption_rebuilds(self, tmp_path):
        build_sieve(5000, cache_dir=str(tmp_path))
        path = tmp_path / "spf-v1-5000.tbl"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        rebuilt = build_sieve(5000, cache_dir=str(tmp_path))
        assert int(rebuilt.spf[4999]) == trial_spf(4999)


class TestTotient:
    def test_examples(self, sieve10k):
        assert totient(1, sieve10k) == 1
        assert totient(7, sieve10k) == 6
        assert brute_totient(12) == 4
        assert totient(12, sieve10k) == 4

    def test_brute_force_oracle(self, sieve10k):
        for n in range(1, 2001):
            assert totient(n, sieve10k) == brute_totient(n)

    def test_range_error(self, sieve10k):
        with pytest.raises(RangeError):
            totient(10**4 + 1, sieve10k)
        with pytest.raises(RangeError):
            totient(0, sieve10k)

    def test_multiplicativity_spot_check(self, sieve1m):
        rng = random.Random(1)
        checked = 0
        while checked < 1000:
            m = rng.randint(2, 1000)
            n = rng.randint(2, 1000)
            if math.gcd(m, n) != 1 or m * n > 10**6:
                continue
            assert totient(m * n, sieve1m) == totient(m, sieve1m) * totient(n, sieve1m)
            checked += 1

    def test_euler_product_identity_sampled(self, sieve1m):
        # phi(n) = n * prod_{p|n} (1 - 1/p), exact rational arithmetic
        rng = random.Random(2)
        for _ in range(500):
            n = rng.randint(1, 10**6)
            product = Fraction(n)
            for p in sieve1m.distinct_primes(n):
                product *= Fraction(p - 1, p)
            assert product == totient(n, sieve1m)

    def test_table_agrees_with_per_n(self, sieve10k):
        table = totient_table(10**4)
        for n in range(1, 10**4 + 1):
            assert int(table[n]) == totient(n, sieve10k)

    def test_summatory_totient(self):
        # exact published value; the density limit 3/pi^2 pins it analytically
        table = totient_table(10**6)
        total = int(table[1:].sum())
        assert total == 303963552392
        assert total / (3 * 10**12 / math.pi**2) == pytest.approx(1.0, rel=1e-6)


class TestTotientRatio:
    def test_examples(self, sieve10k):
        assert totient_ratio(1, sieve10k) == 1
        assert totient_ratio(2, sieve10k) == 2
        assert brute_totient(30) == 8
        assert totient_ratio(30, sieve10k) == Fraction(15, 4)

    def test_at_least_one(self, sieve10k):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 10**4)
            assert totient_ratio(n, sieve10k) >= 1


class TestSmallArithmeticFunctions:
    def test_n_equal_one_conventions(self, sieve10k):
        assert nu(1, sieve10k) == 0
        assert p_plus(1, sieve10k) == 1
        assert p_minus(1, sieve10k) == math.inf
        assert p_minus(1, sieve10k) > 10**18  # marker compares above any prime
        assert is_squarefree(1, sieve10k)

    def test_twelve(self, sieve10k):
        assert nu(12, sieve10k) == 2
        assert p_plus(12, sieve10k) == 3
        assert p_minus(12, sieve10k) == 2
        assert not is_squarefree(12, sieve10k)

    def test_primes(self, sieve10k):
        for p in (2, 3, 97, 9973):
            assert nu(p, sieve10k) == 1
            assert p_plus(p, sieve10k) == p
            assert p_minus(p, sieve10k) == p
            assert is_squarefree(p, sieve10k)


class TestPrimeList:
    def test_counts(self, primes100k):
        assert primes100k.count_leq(2) == 1
        assert primes100k.count_leq(100) == 25
        assert primes100k.count_leq(10**5) == 9592

    def test_count_at_scale(self, primes1m):
        assert primes1m.count_leq(10**6) == 78498

    def test_first_and_ascending(self, primes100k):
        assert int(primes100k.values[0]) == 2
        assert np.all(np.diff(primes100k.values) > 0)

    def test_contains(self, primes100k):
        assert primes100k.contains(99991)
        assert not primes100k.contains(99993)

    def test_range_error(self, primes100k):
        with pytest.raises(RangeError):
            primes100k.count_leq(10**5 + 1)

    @pytest.mark.parametrize("limit", [20201.0, 20201.5])
    def test_float_limit_is_parameter_error(self, limit):
        with pytest.raises(ParameterError, match=re.escape(repr(limit))):
            PrimeList.build(limit)

    def test_numpy_integer_limit(self):
        assert PrimeList.build(np.int64(10)).values.tolist() == [2, 3, 5, 7]

    @pytest.mark.parametrize("limit", [2, 3, 4, 5, 97, 2 * 10**6 + 1])
    def test_odd_only_sieve_matches_full_mask(self, limit):
        got = PrimeList.build(limit).values
        assert got.dtype == np.int64
        assert not got.flags.writeable
        assert np.array_equal(got, full_mask_primes(limit))

    @staticmethod
    def assert_matches_spf_table(limit):
        spf = build_sieve(limit).spf
        got = PrimeList.build(limit).values
        assert got.base is None  # its own buffer, not a view of a larger one
        assert np.array_equal(got, np.flatnonzero(spf[2:] == np.arange(2, limit + 1)) + 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3 * 10**5))
    def test_segmented_sieve_matches_spf_table(self, limit):
        self.assert_matches_spf_table(limit)

    # the odd-only mask holds (limit + 1) // 2 entries: these limits end it one
    # entry short of, at, or one past the end of the first and second segments
    @pytest.mark.parametrize(
        "limit", [2, 3, 4, *(2 * k * _SEGMENT + d for k in (1, 2) for d in range(-3, 3))]
    )
    def test_small_and_segment_edge_limits_match_spf_table(self, limit):
        self.assert_matches_spf_table(limit)

    def test_sized_by_elliptic_prime_bound(self):
        # the bound is an integer limit, so it sizes an ecorders run's table
        table = PrimeList.build(sequences.elliptic_prime_bound(10**4))
        assert table.limit == 10201
        spec = sequences.EllipticOrders(EllipticCurve(1, 1))
        estimates = theorem6_report(spec, 10**4, 1.0, table)
        n_a = len(sequences.enumerate_terms(spec, 10**4, table))
        assert estimates[0].parameters["N_A"] == n_a > 0


class TestMertensProducts:
    def test_single_prime(self, primes100k):
        mp = mertens_products(2, primes100k)
        assert mp.plus_product == pytest.approx(1.5, rel=1e-12)
        assert mp.minus_product == pytest.approx(2.0, rel=1e-12)

    def test_ten(self, primes100k):
        expected = Fraction(3, 2) * Fraction(4, 3) * Fraction(6, 5) * Fraction(8, 7)
        mp = mertens_products(10, primes100k)
        assert mp.plus_product == pytest.approx(float(expected), rel=1e-12)

    def test_large_x_window(self, primes100k):
        mp = mertens_products(10**5, primes100k)
        assert 0.5 <= mp.plus_over_log <= 3.0
        assert 0.5 <= mp.minus_over_log <= 3.0
        assert mp.minus_product >= mp.plus_product >= 1.0

    def test_ratio_bounded_by_zeta2(self, primes100k):
        # minus/plus telescopes to prod (1 - 1/p^2)^-1 <= zeta(2)
        for x in (2, 10, 1000, 10**5):
            mp = mertens_products(x, primes100k)
            assert mp.minus_product / mp.plus_product <= math.pi**2 / 6 + 1e-9

    def test_errors(self, primes100k):
        with pytest.raises(RangeError):
            mertens_products(10**6, primes100k)
        with pytest.raises(ParameterError):
            mertens_products(1.5, primes100k)

    def test_classical_limit_constants(self, primes1m):
        # the products converge to e^gamma ln x and (6 e^gamma/pi^2) ln x
        e_gamma = math.exp(0.5772156649015329)
        mp = mertens_products(10**6, primes1m)
        assert mp.minus_over_log == pytest.approx(e_gamma, rel=1e-3)
        assert mp.plus_over_log == pytest.approx(6 * e_gamma / math.pi**2, rel=1e-3)


class TestChebyshevTheta:
    def test_examples(self, primes100k):
        assert chebyshev_theta(2, primes100k) == pytest.approx(math.log(2), rel=1e-12)
        assert chebyshev_theta(10, primes100k) == pytest.approx(math.log(210), rel=1e-12)

    def test_nondecreasing(self, primes100k):
        xs = [2, 3, 10, 100, 5000, 10**5]
        vals = [chebyshev_theta(x, primes100k) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_ratio_near_one(self, primes100k):
        assert 0.9 <= chebyshev_theta(10**5, primes100k) / 10**5 <= 1.1

    def test_ratio_tightens_at_scale(self, primes1m):
        assert 0.95 <= chebyshev_theta(10**6, primes1m) / 10**6 <= 1.05


class TestPrimality:
    def test_against_sieve(self, sieve10k):
        for n in range(1, 10**4 + 1):
            assert is_prime(n) == (n >= 2 and int(sieve10k.spf[n]) == n)

    def test_large_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287

    def test_factorize_trial(self):
        assert factorize_trial(1) == []
        assert factorize_trial(12) == [(2, 2), (3, 1)]
        assert factorize_trial(2**4 * 7**2 * 101) == [(2, 4), (7, 2), (101, 1)]


class TestTotientTrial:
    def test_matches_sieve_totient(self, sieve10k):
        for n in range(1, 10**4 + 1):
            assert totient_trial(n) == totient(n, sieve10k)

    def test_beyond_any_sieve(self):
        # 2^61 - 1 is prime; 10^12 = 2^12 5^12
        assert totient_trial(2**61 - 1) == 2**61 - 2
        assert totient_trial(10**12) == 4 * 10**11


class TestFactorizeTrialCertifiedCofactor:
    def test_large_prime_cofactor(self):
        big = 2**61 - 1
        assert factorize_trial(3 * 101 * 65537**2 * big) == [
            (3, 1), (101, 1), (65537, 2), (big, 1)
        ]
        assert factorize_trial(2**64 + 1) == [(274177, 1), (67280421310721, 1)]

    def test_composite_cofactors_keep_dividing(self):
        assert factorize_trial(1000003 * 1000033 * 1000037) == [
            (1000003, 1), (1000033, 1), (1000037, 1)
        ]

    def test_beyond_primality_test_keeps_trial_division(self):
        # above 3.3e24 is_prime raises CapacityError; the search goes on
        n = 65539**3 * 65543**3
        with pytest.raises(CapacityError):
            is_prime(n)
        assert factorize_trial(n) == [(65539, 3), (65543, 3)]

    def test_small_inputs_never_ask_is_prime(self, monkeypatch):
        import romanoff_lab.sieve as sieve_module

        calls = []
        monkeypatch.setattr(sieve_module, "is_prime", lambda n: calls.append(n))
        assert factorize_trial(4294967291) == [(4294967291, 1)]  # largest prime < 2^32
        assert factorize_trial(65521 * 65519) == [(65519, 1), (65521, 1)]
        assert calls == []


class TestTotients:
    def test_matches_table(self):
        sieve = build_sieve(10**5)
        values = np.arange(1, 10**5 + 1)
        assert np.array_equal(sieve.totients(values), totient_table(10**5)[1:])

    # the walk runs in the table's uint32: every value up to the limit, and
    # the limit itself, at a power of 2, a prime (65521) and 3^10
    @pytest.mark.parametrize("limit", [2, 2**16, 65521, 3**10])
    def test_matches_table_up_to_the_limit(self, limit):
        sieve = build_sieve(limit)
        table = totient_table(limit)
        assert np.array_equal(sieve.totients(np.arange(1, limit + 1)), table[1:])
        at_limit = [limit, limit - 1, limit, limit]
        assert sieve.totients(at_limit).tolist() == table[at_limit].tolist()

    def test_matches_per_n(self, sieve1m):
        rng = random.Random(3)
        values = [rng.randint(1, 10**6) for _ in range(2000)]
        values += [1, 10**6]
        values += [2**k for k in range(1, 20)] + [3**k for k in range(1, 13)]
        phi = sieve1m.totients(values)
        assert phi.dtype == np.int64
        assert phi.tolist() == [totient(n, sieve1m) for n in values]

    def test_empty_input(self, sieve10k):
        phi = sieve10k.totients([])
        assert phi.shape == (0,)
        assert phi.dtype == np.int64

    def test_range_error(self, sieve10k):
        dense = list(range(1, 101))  # the table's route, had the values been in range
        for bad in ([0], [10**4 + 1], [5, 0, 7], [2**70], [2**63], [3, 2**70], [5, 2**63],
                    [*dense, 10**4 + 1], [0, *dense], [10**4 + 1] * 3):
            with pytest.raises(RangeError):
                sieve10k.totients(bad)

    def test_corrupt_table_cannot_loop(self, sieve10k):
        spf = sieve10k.spf.copy()
        spf[9] = 1  # 9 would never shrink
        corrupt = FactorSieve(limit=sieve10k.limit, spf=spf)
        for values in ([4, 9], range(1, 10)):
            with pytest.raises(TableIntegrityError):
                corrupt.totients(values)


class TestFactorizeCorruptTable:
    # the corruptions of test_lane_orders' test_table_that_does_not_factor:
    # an entry of 1, one that does not divide its n, and 0
    @pytest.mark.parametrize("n, entry", [(50, 1), (7, 13), (7, 0)])
    def test_raises_instead_of_looping(self, n, entry):
        spf = build_sieve(200).spf.copy()
        spf[n] = entry
        broken = FactorSieve(limit=200, spf=spf)
        with pytest.raises(TableIntegrityError):
            broken.factorize(n)
        with pytest.raises(TableIntegrityError):
            totient(n, broken)
        with pytest.raises(TableIntegrityError):
            broken.totients(range(1, n + 1))  # the table's route


class TestInt64Values:
    """A list is read by array('q'); what that refuses takes the array
    route, so a list gives what the same values give as a tuple."""

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([True, False], [1, 0]),
            ([True, 7], [1, 7]),
            ([np.int64(5), 7], [5, 7]),
            ([1.0], ParameterError),
            ([2, np.float64(3.0)], ParameterError),
            (["3"], ParameterError),
            ([[1, 2], [3, 4]], [1, 2, 3, 4]),
            ([2**63], RangeError),
            ([5, -(2**63) - 1], RangeError),
            ([-(2**63), 2**63 - 1], [-(2**63), 2**63 - 1]),
            ([], []),
        ],
    )
    def test_list_gives_the_array_route(self, values, expected):
        for given_values in (values, tuple(values)):
            if isinstance(expected, list):
                got = int64_values(given_values)
                assert got.dtype == np.int64
                assert got.tolist() == expected
            else:
                with pytest.raises(expected):
                    int64_values(given_values)


class TestIntegrityRule:
    """A peeled p must satisfy spf[p] == p and be at least the previous
    pass's prime: an entry naming a composite proper divisor (spf[12] = 4,
    phi(12) read as 6) or a prime that is not the least (spf[18] = 3, phi(18)
    read as 4) raises in every consumer of the walk and of factorize."""

    CONSUMERS = {
        "totients": lambda n, sv: sv.totients([n]),
        "totients_dense": lambda n, sv: sv.totients(range(n, 0, -1)),  # the table's route
        "totient": lambda n, sv: totient(n, sv),
        "factorize": lambda n, sv: sv.factorize(n),
        "theorem1_report": lambda n, sv: theorem1_report([n], 1, 0.5, float(n), sv),
        # p = n + 1 is prime, and its order lanes peel p - 1 = n
        "order_weighted_sum": lambda n, sv: order_weighted_sum(
            2, 2, n + 1, PrimeList.build(n + 1), sv
        ),
    }

    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    @pytest.mark.parametrize("n, entry", [(12, 4), (18, 3)])
    def test_wrong_divisor_raises(self, consumer, n, entry):
        spf = build_sieve(200).spf.copy()
        spf[n] = entry
        broken = FactorSieve(limit=200, spf=spf)
        with pytest.raises(TableIntegrityError):
            self.CONSUMERS[consumer](n, broken)

    def test_composite_naming_itself_is_not_seen(self):
        # the gap the rule leaves open: 15 with spf[15] = 15 reads as a prime
        spf = build_sieve(200).spf.copy()
        spf[15] = 15
        gap = FactorSieve(limit=200, spf=spf)
        assert gap.factorize(15) == [(15, 1)]
        assert gap.totients([15, 45]).tolist() == [14, 28]  # true: 8, 24
        assert gap.totients(range(1, 46))[[14, 44]].tolist() == [14, 28]  # the table's route
        assert totient(15, gap) == 14


# hypothesis tests cannot take pytest fixtures
CLEAN_10K = build_sieve(10**4)
PRIMES_10K = PrimeList.build(10**4)
ALL_10K = np.arange(1, 10**4 + 1)


def _raises_or_same(consume, broken, clean) -> None:
    try:
        got = consume(broken)
    except TableIntegrityError:
        return
    want = consume(clean)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_wrong_entry_raises_or_changes_nothing(data):
    """One entry of a 10^4 table set to any other uint32 value, a divisor of
    its index or a small number; only the entry naming its own index (the
    gap TestIntegrityRule pins) is left out."""
    m = data.draw(st.integers(0, 10**4), label="index")
    divisors = [d for d in range(1, m + 1) if m % d == 0] or [0]
    value = data.draw(
        st.one_of(st.sampled_from(divisors), st.integers(0, 40), st.integers(0, 2**32 - 1)),
        label="value",
    )
    assume(value != m)
    spf = CLEAN_10K.spf.copy()
    spf[m] = value
    broken = FactorSieve(limit=10**4, spf=spf)
    multiples = list(range(max(m, 1), 10**4 + 1, max(m, 1)))[:100]
    consumers = [
        lambda sv: sv.totients(ALL_10K),
        lambda sv: theorem1_report(ALL_10K, 2, 0.5, 1e4, sv),
        lambda sv: order_weighted_sum(2, 2, 10**4, PRIMES_10K, sv),
        lambda sv: [sv.factorize(n) for n in multiples],
        lambda sv: [totient(n, sv) for n in multiples],
    ]
    for consume in consumers:
        _raises_or_same(consume, broken, CLEAN_10K)


TABLE_10K = totient_table(10**4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dense_route_matches_table_and_walk(data):
    """Random lists near the density rule, on both sides of it: unsorted,
    with duplicates, from 1 or from a later start. Each list's route is the
    one the rule names, and its phi is the table's and the walk's."""
    top = data.draw(st.integers(1, 10**4), label="max")
    start = data.draw(st.sampled_from([1, min(2, top), max(1, top // 2), top]), label="start")
    length = max(1, top // data.draw(st.integers(1, 2 * _DENSE_SPAN), label="span"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
    arr = rng.integers(start, top + 1, length)
    arr[rng.integers(length)] = top
    values = arr.tolist()
    route = CLEAN_10K.totient_route(arr)
    assert (route != CLEAN_10K._walk_totients) == (top <= _DENSE_SPAN * length)
    phi = CLEAN_10K.totients(values)
    assert phi.dtype == np.int64
    assert np.array_equal(phi, TABLE_10K[arr])
    assert np.array_equal(phi, CLEAN_10K._walk_totients(arr))
    assert np.array_equal(route(arr[::-1]), phi[::-1])


class TestDenseRoute:
    """The table of a dense list (``FactorSieve._totient_table``) reads every
    spf entry up to the list's max, where the walk reads only its paths."""

    def test_entry_off_every_walk_path_now_raises(self):
        # 97 is prime and 194 > 100, so no listed value walks through 97;
        # the walk reads true phi, the table reads spf[97] and refuses it
        spf = build_sieve(200).spf.copy()
        spf[97] = 7
        broken = FactorSieve(limit=200, spf=spf)
        values = [v for v in range(1, 101) if v != 97]
        assert broken._walk_totients(np.array(values)).tolist() == TABLE_10K[values].tolist()
        with pytest.raises(TableIntegrityError) as raised:
            broken.totients(values)
        assert raised.value.exit_code == 4
        sparse = values[::_DENSE_SPAN + 1]  # a sparse list is walked and never reads spf[97]
        assert broken.totients(sparse).tolist() == TABLE_10K[sparse].tolist()

    def test_corrupt_entry_one_raises(self):
        # spf[1] is read where n is prime (m = 1) and must stay below 2
        spf = build_sieve(200).spf.copy()
        spf[1] = 2
        broken = FactorSieve(limit=200, spf=spf)
        with pytest.raises(TableIntegrityError):
            broken.totients(range(1, 11))
        assert broken.totients([2, 3, 200]).tolist() == [1, 2, 80]


def _fill_edge_limits() -> list[int]:
    """2..200, then p^2 - 1, p^2 and p^2 + 1 for every prime p <= 31: the
    limits where the slice spf[p*p::p] starts at or just past the end."""
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    edges = {p * p + d for p in small_primes for d in (-1, 0, 1)}
    return sorted(set(range(2, 201)) | edges)


class TestSpfFillEdges:
    @pytest.mark.parametrize("limit", _fill_edge_limits())
    def test_every_entry_is_least_prime_factor(self, limit):
        spf = build_sieve(limit).spf
        assert spf.shape == (limit + 1,)
        assert int(spf[0]) == int(spf[1]) == 0
        assert [int(v) for v in spf[2:]] == [trial_spf(n) for n in range(2, limit + 1)]


class TestSpfWalk:
    """FactorSieve._peel is the one vectorized spf walk; totients and the
    order lanes read their primes from it."""

    def test_passes_spell_out_factorize(self, sieve10k):
        values = np.array([1, 2, 12, 97, 360, 1024, 9999, 10**4])
        seen = {i: [] for i in range(len(values))}
        for idx, p, repeat in sieve10k._peel(values):
            for i, q, r in zip(idx.tolist(), p.tolist(), repeat.tolist()):
                assert r == (bool(seen[i]) and seen[i][-1] == q)
                seen[i].append(q)
        for i, n in enumerate(values.tolist()):
            want = [p for p, e in sieve10k.factorize(n) for _ in range(e)]
            assert seen[i] == want, n

    def test_entry_in_range_that_does_not_divide(self, sieve10k):
        # 3 does not divide 14; trusting the entry would give phi(14) = 4, not 6
        spf = sieve10k.spf.copy()
        spf[14] = 3
        corrupt = FactorSieve(limit=sieve10k.limit, spf=spf)
        for values in ([14], range(1, 15)):
            with pytest.raises(TableIntegrityError):
                corrupt.totients(values)
        with pytest.raises(TableIntegrityError):
            totient(14, corrupt)

    @pytest.mark.parametrize("values", [[2.5], [2, 3.5], np.array([4.0]), [math.nan]])
    def test_non_integer_value_is_refused(self, sieve10k, values):
        with pytest.raises(ParameterError):
            sieve10k.totients(values)


def test_isqrt_lanes_matches_math_isqrt():
    # squares, their neighbours and random values up to 2^52 - 1
    roots = [0, 1, 2, 3, 4096, 46340, 46341, 2**26 - 1]
    values = [v for k in roots for v in (k * k - 1, k * k, k * k + 1) if v >= 0]
    values += [2**52 - 1, 4 * (2**31 - 1)] + random.Random(5).sample(range(2**52), 200)
    n = np.array(values, dtype=np.int64)
    assert _isqrt_lanes(n).tolist() == [math.isqrt(v) for v in values]


def _prime_at_most(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


lane_primes = st.one_of(
    st.sampled_from([2, 3, 5, 7, 2**31 - 1]), st.integers(2, 2**31 - 1).map(_prime_at_most)
)
# a base is drawn as a fraction of p, so that 0, 1 and p - 1 come up in every size
lane_bases = st.one_of(st.sampled_from([0, 1, -1]), st.floats(0, 1, exclude_max=True))
lane_exponents = st.one_of(
    st.integers(0, 8), st.integers(0, 2**16), st.integers(0, 2**32 - 1), st.sampled_from([2**32 - 1])
)


class TestPowmodLanes:
    """_powmod_lanes against pow lane by lane: primes up to 2^31 - 1, bases
    0, 1 and p - 1, exponents in [0, 2^32) of mixed bit lengths in one call."""

    @staticmethod
    def check(lanes):
        base = [b % p if isinstance(b, int) else int(b * p) for p, b, _ in lanes]
        p = np.array([q for q, _, _ in lanes], dtype=np.int64)
        e = np.array([k for _, _, k in lanes], dtype=np.int64)
        got = _powmod_lanes(np.array(base, dtype=np.int64), e, p)
        assert got.dtype == np.int64 and got.shape == p.shape
        assert got.tolist() == [pow(b, k, q) for b, (q, _, k) in zip(base, lanes)]

    @given(st.lists(st.tuples(lane_primes, lane_bases, lane_exponents), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_pow(self, lanes):
        self.check(lanes)

    @pytest.mark.parametrize(
        "lanes",
        [
            [],
            [(7, 0, 0)],  # 0^0 = 1
            [(2**31 - 1, -1, 2**32 - 1)],
            [(2**31 - 1, 0, 5), (3, 1, 0), (2**31 - 1, -1, 2**31 - 2), (65537, 3, 1), (5, 2, 7)],
        ],
    )
    def test_edges(self, lanes):
        self.check(lanes)


def factors_by_every_divisor(n: int) -> list[tuple[int, int]]:
    """Trial division by every d >= 2, composite or not."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(n, 1)] * (n > 1)


class TestFactorizeTrialOneDivideOut:
    """The one divide-out step over 2, 3, 5, 7, 11, ... against division by every d."""

    def test_every_n_to_a_hundred_thousand(self):
        for n in range(1, 10**5 + 1):
            assert factorize_trial(n) == factors_by_every_divisor(n), n

    @pytest.mark.parametrize(
        "factors",
        [
            [(65539, 1), (65543, 1)],
            [(65539, 2)],
            [(2, 3), (3, 1), (65539, 1), (65543, 1)],
            [(5, 1), (65543, 1), (65551, 2)],
            [(65539, 1), (65543, 1), (65551, 1)],
        ],
    )
    def test_primes_just_above_the_certify_divisor(self, factors, monkeypatch):
        # each n has two prime factors past 65537, the first divisor past
        # _TRIAL_CERTIFY_FROM = 2^16: is_prime is asked about a composite cofactor
        from romanoff_lab import sieve as sieve_module

        asked = []
        monkeypatch.setattr(sieve_module, "is_prime", lambda m: asked.append(m) or is_prime(m))
        assert factorize_trial(math.prod(p**e for p, e in factors)) == factors
        assert asked and not any(map(is_prime, asked))
