import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romanoff_lab import sieve as sieve_module
from romanoff_lab.errors import CapacityError, DomainError, ParameterError, RangeError, check_integer, float64_range
from romanoff_lab.lemmas import (
    MinPkSum,
    PrimeLogPowerSums,
    abel_check,
    incomplete_gamma,
    prime_sums,
)
from romanoff_lab.sieve import PrimeList


def gamma_quadrature(s: int, x: float) -> float:
    """Oracle: numeric quadrature of integral_x^inf t^(s-1) e^(-t) dt."""
    # integrand decays like e^-t; cut at x + 60 + 10 s
    hi = x + 60.0 + 10.0 * s
    ts = np.linspace(x, hi, 200001)
    ys = ts ** (s - 1) * np.exp(-ts)
    return float(np.trapezoid(ys, ts))


class TestIncompleteGamma:
    def test_s1_at_zero(self):
        assert incomplete_gamma(1, 0.0).value == pytest.approx(1.0, rel=1e-12)

    def test_s1_is_exponential(self):
        for x in (0.3, 1.0, 2.5, 10.0):
            assert incomplete_gamma(1, x).value == pytest.approx(
                math.exp(-x), rel=1e-12
            )

    def test_s2_closed_form(self):
        # e^-x (1 + x) at x = 1
        assert incomplete_gamma(2, 1.0).value == pytest.approx(
            2 * math.exp(-1), rel=1e-12
        )

    def test_gamma_at_zero_is_factorial(self):
        for s in range(1, 13):
            assert incomplete_gamma(s, 0.0).value == pytest.approx(
                math.factorial(s - 1), rel=1e-12
            )

    def test_against_quadrature(self):
        for s in (1, 2, 3, 5, 8):
            for x in (1.0, 3.0, 7.5):
                assert incomplete_gamma(s, x).value == pytest.approx(
                    gamma_quadrature(s, x), rel=1e-6
                )

    def test_recurrence(self):
        # Gamma(s, x) = x^(s-1) e^-x + (s-1) Gamma(s-1, x)
        xs = np.arange(1.0, 50.0 + 0.25, 0.25)
        for s in range(2, 13):
            for x in xs:
                lhs = incomplete_gamma(s, float(x)).value
                rhs = x ** (s - 1) * math.exp(-x) + (s - 1) * incomplete_gamma(
                    s - 1, float(x)
                ).value
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_bound_populated_only_for_x_ge_1(self):
        assert incomplete_gamma(3, 0.5).bound is None
        gv = incomplete_gamma(3, 1.0)
        assert gv.bound is not None
        assert gv.within_bound

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            incomplete_gamma(0, 1.0)
        with pytest.raises(ParameterError):
            incomplete_gamma(2, -0.5)


def power_sums(k, s, primes, tail_limit):
    """The PrimeLogPowerSums of one (k, s) from prime_sums."""
    return prime_sums([k], [], [s], primes, tail_limit)[0][k, s]


def min_sum(k, s, primes, tail_limit):
    """The MinPkSum of one (k, s) from prime_sums."""
    return prime_sums([], [k], [s], primes, tail_limit)[1][k, s]


class TestPrimeLogPowerSums:
    def test_empty_head(self, primes100k):
        out = power_sums(1, 1, primes100k, 10**4)
        assert out.head == 0.0
        assert out.head_ratio == 0.0

    def test_single_term(self, primes100k):
        out = power_sums(2, 1, primes100k, 10**4)
        assert out.head == pytest.approx(math.log(2) / 2, rel=1e-12)

    def test_three_terms(self, primes100k):
        out = power_sums(5, 1, primes100k, 10**4)
        expected = math.log(2) / 2 + math.log(3) / 3 + math.log(5) / 5
        assert out.head == pytest.approx(expected, rel=1e-12)

    def test_ratios_bounded(self, primes100k):
        for s in range(1, 7):
            for k in (2, 10, 100, 10**4):
                out = power_sums(k, s, primes100k, 10**5)
                assert 0 < out.head_ratio < 10
                assert out.tail_ratio < 10

    def test_ratios_bounded_at_scale(self, primes1m):
        for s in (1, 3, 6):
            out = power_sums(10**6, s, primes1m, 10**6)
            assert 0 < out.head_ratio < 10

    def test_range_error(self, primes100k):
        with pytest.raises(RangeError):
            power_sums(10, 1, primes100k, 10**6)


class TestMinPkSum:
    def test_k1_reduction(self, primes100k):
        out = min_sum(1, 1, primes100k, 10**4)
        ps = primes100k.upto(10**4)
        expected = 1.0 + math.fsum(math.log(int(p)) / int(p) ** 2 for p in ps)
        assert out.value == pytest.approx(expected, rel=1e-12)

    def test_split_oracle(self, primes100k):
        # direct split: sum_{p<=k} (ln p)^s / p^2 * p + k sum_{p>k} (ln p)^s / p^2
        k, s = 2, 1
        ps = [int(p) for p in primes100k.upto(10**5)]
        expected = 1.0 + math.fsum(
            math.log(p) ** s / p for p in ps if p <= k
        ) + k * math.fsum(math.log(p) ** s / p**2 for p in ps if p > k)
        out = min_sum(k, s, primes100k, 10**5)
        assert out.value == pytest.approx(expected, rel=1e-12)

    def test_nondecreasing_in_k(self, primes100k):
        mins = prime_sums([], [1, 2, 5, 50, 500], [2], primes100k, 10**4)[1]
        vals = [out.value for out in mins.values()]
        assert list(mins) == [(k, 2) for k in (1, 2, 5, 50, 500)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_tail_bound_shrinks(self, primes100k):
        near = min_sum(10, 1, primes100k, 10**3)
        far = min_sum(10, 1, primes100k, 10**5)
        assert far.tail_bound < near.tail_bound
        # truncated value + certified remainder brackets the longer run
        assert far.value <= near.value + near.tail_bound + 1e-12


def oracle_power_sums(k, s, primes, tail_limit):
    """One record of the power sums by the scalar expressions, a math.fsum over
    Python ints: the per-record function that prime_sums replaced."""
    ps = primes.upto(tail_limit).tolist()
    with float64_range(s):
        head = math.fsum(math.log(p) ** s / p for p in ps if p <= k)
        tail_partial = math.fsum(math.log(p) ** s / (p * p) for p in ps if p > k)
        head_ratio = head / math.log(k) ** s if k >= 2 else 0.0
        tail_ratio = tail_partial * k / (math.factorial(s) * math.log(k + 2) ** (s - 1))
    return PrimeLogPowerSums(head, tail_partial, head_ratio, tail_ratio)


def oracle_min_sum(k, s, primes, tail_limit):
    """One record of the min(p, k) sum by the scalar expressions."""
    ps = primes.upto(tail_limit).tolist()
    with float64_range(s):
        if tail_limit < max(100.0, math.exp(s / 2)):
            raise ParameterError(f"tail_limit={tail_limit} too small for s={s}")
        value = 1.0 + math.fsum(min(p, k) * math.log(p) ** s / (p * p) for p in ps)
        tail_bound = k * incomplete_gamma(s + 1, math.log(tail_limit)).value
        normalized = (value + tail_bound) / (math.factorial(s) * math.log(k + 1) ** s)
    return MinPkSum(value, tail_bound, normalized)


def oracle_records(power_ks, min_ks, ss, primes, tail_limit):
    """Every record one at a time, in order, each checking its k, its s and the
    tail limit first, as the per-record functions did; the first to fail raises."""
    powers, mins = {}, {}
    for k in power_ks:
        for s in ss:
            k, s = check_integer("k", k, 1), check_integer("s", s, 1)
            primes.check_range(tail_limit)
            if k > tail_limit:
                raise ParameterError(f"k={k} exceeds tail_limit={tail_limit}")
            powers[k, s] = oracle_power_sums(k, s, primes, tail_limit)
    for k in min_ks:
        for s in ss:
            k, s = check_integer("k", k, 1), check_integer("s", s, 1)
            primes.check_range(tail_limit)
            mins[k, s] = oracle_min_sum(k, s, primes, tail_limit)
    return powers, mins


PRIMES_100K = PrimeList.build(10**5)  # hypothesis tests cannot take pytest fixtures


class TestOneWalk:
    @settings(max_examples=200, deadline=None)
    # a few tail limits past the table, and k or s of 0, pin the order of the refusals
    @given(st.one_of(st.integers(100, 10**5), st.just(10**5 + 1)), st.data())
    def test_every_field_equals_the_scalar_oracle(self, tail_limit, data):
        power_ks = data.draw(st.lists(st.integers(0, tail_limit + 10), max_size=4), "power_ks")
        min_ks = data.draw(st.lists(st.integers(0, 10**9), max_size=4), "min_ks")
        # mostly small s; a few past 170! and past (ln p)^s overflowing at p <= 10^5 (s >= 291)
        small_s = st.integers(0, math.floor(2 * math.log(tail_limit)))
        ss = data.draw(st.lists(st.one_of(small_s, small_s, st.integers(1, 320)), min_size=1, max_size=3), "ss")
        step = data.draw(st.sampled_from([7, 64, sieve_module._PRIME_STEP]), "step")
        try:
            want = oracle_records(power_ks, min_ks, ss, PRIMES_100K, tail_limit)
        except (ParameterError, RangeError, CapacityError) as refused:
            want = refused
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sieve_module, "_PRIME_STEP", step)
            if isinstance(want, Exception):
                with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                    prime_sums(power_ks, min_ks, ss, PRIMES_100K, tail_limit)
                return
            got = prime_sums(power_ks, min_ks, ss, PRIMES_100K, tail_limit)
        # == on NamedTuples compares every field; the keys come in record order
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]

    @pytest.mark.parametrize(
        "power_ks, min_ks, ss, tail_limit",
        [
            ([2, 10], [], [1, 200, 500], 1000),  # 200 fails on s!, before 500 overflows (ln p)^s
            ([2], [], [300, 400], 10**5),  # (ln p)^400 overflows at a smaller p than (ln p)^300
            ([1000], [], [200], 1000),
            ([2], [1], [2000], 10**5),
            ([], [1, 2], [3, 40], 10**5),  # e^(40/2) > 10^5
            ([10, 2000], [], [1], 1000),
            ([10], [1], [1], 99),
            ([2000], [0], [1], 1000),  # the power record comes first
            ([0], [], [1], 2 * 10**5),  # k before the tail limit
            ([10], [], [1, 0], 2 * 10**5),  # the table, at the first record, before s=0
            ([], [2], [1, 0], 50),  # s=1's own bound, before s=0
        ],
    )
    def test_refuses_the_first_record_the_oracle_refuses(self, power_ks, min_ks, ss, tail_limit, primes100k):
        with pytest.raises((ParameterError, RangeError, CapacityError)) as want:
            oracle_records(power_ks, min_ks, ss, primes100k, tail_limit)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            prime_sums(power_ks, min_ks, ss, primes100k, tail_limit)

    def test_one_walk_serves_every_record(self, primes100k, monkeypatch):
        calls = []
        steps = PrimeList.steps

        def counted(self, *args):
            calls.append(args)
            return steps(self, *args)

        monkeypatch.setattr(PrimeList, "steps", counted)
        powers, mins = prime_sums([2, 10, 100, 1000], [1, 2, 10, 100], [1, 2, 3], primes100k, 10**5)
        assert calls == [(10**5,)] and len(powers) == len(mins) == 12

    def test_empty_grids_walk_nothing(self, primes100k, monkeypatch):
        monkeypatch.setattr(PrimeList, "steps", None)  # a walk would call None
        # (ln p)^300 overflows at p <= 10^5, but no record takes it
        assert prime_sums([], [], [1, 300], primes100k, 10**5) == ({}, {})
        assert prime_sums([2, 10], [1], [], primes100k, 10**5) == ({}, {})

    def test_no_prime_up_to_the_tail_limit(self, primes100k):
        out = prime_sums([1], [], [1, 2], primes100k, 1.5)[0]
        assert all(v == (0.0, 0.0, 0.0, 0.0) for v in out.values())


class TestAbelCheck:
    def test_zero_weights(self):
        assert abel_check([0.0, 0.0, 0.0], "reciprocal") == (0.0, 0.0)
        assert abel_check([], "reciprocal") == (0.0, 0.0)

    def test_single_step(self):
        direct, abel = abel_check([1.0], "reciprocal")
        assert direct == 1.0
        assert abel == 1.0

    def test_prime_log_weights(self, primes100k):
        # weights (ln p)^s at prime indices <= 100, zero elsewhere
        for s in (1, 2, 3):
            weights = [0.0] * 100
            for p in primes100k.upto(100):
                weights[int(p) - 1] = math.log(int(p)) ** s
            direct, abel = abel_check(weights, "reciprocal")
            head = math.fsum(
                math.log(int(p)) ** s / int(p) for p in primes100k.upto(100)
            )
            assert direct == pytest.approx(head, rel=1e-12)
            assert abs(direct - abel) <= 1e-9 * abs(direct) + 1e-12

    def test_random_weight_vectors(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 60)
            weights = [rng.uniform(-5, 5) for _ in range(n)]
            for kind in ("reciprocal", "reciprocal_square"):
                direct, abel = abel_check(weights, kind)
                assert abs(direct - abel) <= 1e-9 * abs(direct) + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            abel_check([1.0], "logarithm")
