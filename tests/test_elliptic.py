import functools
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romanoff_lab import elliptic as ell
from romanoff_lab.elliptic import (
    EllipticCurve,
    congruence_class_census,
    count_points,
    hasse_margin,
    legendre_symbol,
    order_sequence,
    theorem5_report,
)
from romanoff_lab.errors import (
    CapacityError,
    DomainError,
    ParameterError,
    RangeError,
    TableIntegrityError,
)
from romanoff_lab.moments import moment_sum
from romanoff_lab.sieve import FactorSieve, PrimeList, build_sieve, is_prime

# hypothesis tests cannot take pytest fixtures; orders up to 1 + 2x stay in range
HYP_SIEVE = build_sieve(10**4)
HYP_PRIMES = PrimeList.build(2000)


def brute_count(A: int, B: int, p: int) -> int:
    """Oracle: full O(p^2) enumeration of affine pairs, plus infinity."""
    count = 1
    for x in range(p):
        for y in range(p):
            if (y * y - (x * x * x + A * x + B)) % p == 0:
                count += 1
    return count


class TestCurveType:
    def test_discriminant(self):
        assert EllipticCurve(1, 1).discriminant == 31
        assert EllipticCurve(0, 1).discriminant == 27

    def test_singular_rejected(self):
        with pytest.raises(ParameterError):
            EllipticCurve(0, 0)
        with pytest.raises(ParameterError):
            EllipticCurve(-3, 2)

    def test_singular_primes(self):
        assert EllipticCurve(1, 1).singular_primes() == [31]
        assert EllipticCurve(0, 1).singular_primes() == [3]


class TestLegendreSymbol:
    def test_zero(self):
        assert legendre_symbol(0, 7) == 0
        assert legendre_symbol(14, 7) == 0

    def test_one(self):
        assert legendre_symbol(1, 7) == 1

    def test_nonresidue(self):
        # squares mod 5 are {1, 4}
        assert legendre_symbol(2, 5) == -1

    def test_matches_square_sets(self):
        for p in (3, 5, 7, 11, 13, 97):
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre_symbol(a, p) == expected

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            legendre_symbol(3, 2)
        with pytest.raises(DomainError):
            legendre_symbol(3, 9)


class TestCountPoints:
    def test_p2(self):
        assert count_points(EllipticCurve(0, 1), 2) == 3

    def test_p5(self):
        assert brute_count(1, 1, 5) == 9
        assert count_points(EllipticCurve(1, 1), 5) == 9

    def test_brute_force_oracle_small(self):
        for A in range(-3, 4):
            for B in range(-3, 4):
                if 4 * A**3 + 27 * B**2 == 0:
                    continue
                curve = EllipticCurve(A, B)
                for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                    assert count_points(curve, p) == brute_count(A, B, p), (A, B, p)

    def test_range_of_values(self, primes100k):
        curve = EllipticCurve(2, 3)
        for p in primes100k.upto(500):
            n = count_points(curve, int(p))
            assert 1 <= n <= 1 + 2 * int(p)

    def test_euler_criterion_route_medium_prime(self):
        # independent route: per-x quadratic character via modular powers
        p = 10007
        curve = EllipticCurve(2, 3)
        by_criterion = p + 1
        for x in range(p):
            by_criterion += legendre_symbol(x * x * x + 2 * x + 3, p)
        assert count_points(curve, p) == by_criterion

    def test_not_prime(self):
        with pytest.raises(DomainError):
            count_points(EllipticCurve(1, 1), 10)


class TestHasseMargin:
    def test_example_p5(self):
        assert hasse_margin(EllipticCurve(1, 1), 5) == pytest.approx(
            2 * math.sqrt(5) - 3, rel=1e-12
        )

    def test_example_p2(self):
        # #E = 3 = p + 1, so the margin is the full 2*sqrt(2)
        assert hasse_margin(EllipticCurve(0, 1), 2) == pytest.approx(
            2 * math.sqrt(2), rel=1e-12
        )

    def test_positive_on_family(self):
        worst = math.inf
        for A in range(-3, 4):
            for B in range(-3, 4):
                if 4 * A**3 + 27 * B**2 == 0:
                    continue
                curve = EllipticCurve(A, B)
                for p in (2, 3, 5, 31, 101, 997):
                    worst = min(worst, hasse_margin(curve, p))
        assert worst > 0

    def test_known_order_gives_same_float(self):
        curve = EllipticCurve(-41, -35)
        for p in (5, 101, 4093, 10007, 99991):
            n = count_points(curve, p)
            assert hasse_margin(curve, p, n) == hasse_margin(curve, p)
            assert hasse_margin(curve, p, n) == 2.0 * math.sqrt(p) - abs(n - (p + 1))

    def test_sqrt_bracket(self, primes100k):
        # (sqrt(p) - 1)^2 < #E < (sqrt(p) + 1)^2, both strict
        curve = EllipticCurve(1, 1)
        for p in primes100k.upto(1000):
            p = int(p)
            n = count_points(curve, p)
            assert (math.isqrt(p) - 1) ** 2 < n  # weaker, integer-safe
            assert (math.sqrt(p) - 1) ** 2 < n < (math.sqrt(p) + 1) ** 2


class TestOrderSequence:
    def test_single_prime(self, primes100k):
        seq = order_sequence(EllipticCurve(0, 1), 2, primes100k)
        assert seq.entries == ((2, 3),)

    def test_up_to_ten(self, primes100k):
        curve = EllipticCurve(1, 1)
        seq = order_sequence(curve, 10, primes100k)
        assert [p for p, _ in seq.entries] == [2, 3, 5, 7]
        for p, order in seq.entries:
            assert order == brute_count(1, 1, p)

    def test_csv_shape(self, primes100k):
        seq = order_sequence(EllipticCurve(1, 1), 10, primes100k)
        buf = io.StringIO()
        seq.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "p,order"
        assert lines[1] == f"2,{brute_count(1, 1, 2)}"
        assert len(lines) == 5

    def test_range_error(self, primes100k):
        with pytest.raises(RangeError):
            order_sequence(EllipticCurve(1, 1), 10**6, primes100k)

    @pytest.mark.parametrize("rows", [0, 10**5])
    def test_csv_matches_line_loop(self, rows):
        # 10^5 rows span two formatting chunks; orders beyond 2^31 included
        rng = np.random.default_rng(rows)
        ps = rng.integers(2, 2**40, size=rows)
        orders = rng.integers(1, 2**41, size=rows)
        seq = ell.OrderSequence(EllipticCurve(1, 1), float(rows), ps, orders)
        buf = io.StringIO()
        seq.write_csv(buf)
        expected = "p,order\n" + "".join(f"{p},{n}\n" for p, n in seq.entries)
        assert buf.getvalue() == expected


# the six curves whose orders at 10^5 have a digest in test_report_outputs
DIGEST_CURVES = [(1, 1), (1, 0), (0, 1), (-3, 5), (7, -2), (2, 3)]


class TestOrderArrays:
    def test_arrays_are_read_only_and_agree_with_the_pairs(self, primes100k):
        seq = order_sequence(EllipticCurve(-3, 5), 3 * 10**4, primes100k)
        assert seq.primes.dtype == seq.counts.dtype == np.int64
        assert np.shares_memory(seq.primes, primes100k.values)  # a view, no copy
        for column in (seq.primes, seq.counts):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1
        assert seq.entries == tuple(zip(seq.primes.tolist(), seq.counts.tolist()))
        assert seq.orders() == [n for _, n in seq.entries]
        buf = io.StringIO()
        seq.write_csv(buf)
        assert buf.getvalue() == "p,order\n" + "".join(f"{p},{n}\n" for p, n in seq.entries)

    @pytest.mark.parametrize("width", [7, 41])
    def test_round_widths_leave_the_orders_unchanged(self, width, primes100k, monkeypatch, lane_rounds):
        # rounds of 7 lanes over the 1229 primes to 10^4, or of 41 over the
        # 9592 to 10^5, carry open lanes across many rounds
        x = 10**4 if width == 7 else 10**5
        want = {c: order_sequence(EllipticCurve(*c), x, primes100k) for c in DIGEST_CURVES}
        lane_rounds.clear()
        monkeypatch.setattr(ell, "_ROUND_LANES", width)
        for c in DIGEST_CURVES:
            got = order_sequence(EllipticCurve(*c), x, primes100k)
            assert np.array_equal(got.primes, want[c].primes), c
            assert np.array_equal(got.counts, want[c].counts), c
        # rounds fill to the width, and open lanes carry into the next round
        assert max(map(len, lane_rounds)) == width
        assert any(set(r) & set(s) for r, s in zip(lane_rounds, lane_rounds[1:]))

    def test_census_equals_a_loop_over_the_pairs(self, primes100k):
        curve = EllipticCurve(1, 1)
        seq = order_sequence(curve, 10**4, primes100k)
        for t in (1, 2, 4, 12, len(seq.counts)):
            loop = {a: 0 for a in range(t)}
            for _, n in seq.entries:
                loop[n % t] += 1
            census = congruence_class_census(curve, 10**4, t, primes100k, orders=seq)
            assert census == loop, t
            assert all(type(k) is int and type(v) is int for k, v in census.items())

    @pytest.mark.parametrize("curve", DIGEST_CURVES)
    def test_min_margin_is_the_scalar_minimum_bit_for_bit(self, curve, primes100k):
        seq = order_sequence(EllipticCurve(*curve), 10**4, primes100k)
        scalar = min(hasse_margin(seq.curve, p, n) for p, n in seq.entries)
        got = seq.hasse_min_margin()
        assert type(got) is float
        assert got.hex() == scalar.hex()
        margins = hasse_margin(seq.curve, seq.primes, seq.counts)
        assert [m.hex() for m in margins.tolist()] == [
            hasse_margin(seq.curve, p, n).hex() for p, n in seq.entries
        ]


class TestCensus:
    def test_modulus_one(self, primes100k):
        census = congruence_class_census(EllipticCurve(1, 1), 100, 1, primes100k)
        assert census == {0: 25}

    def test_buckets_sum_to_pi(self, primes100k):
        census = congruence_class_census(EllipticCurve(1, 1), 100, 2, primes100k)
        assert sum(census.values()) == 25
        assert set(census) == {0, 1}

    def test_prime_modulus_rough_equidistribution(self, primes100k):
        # tabulation only: the residue-0 bucket is recorded next to pi(x)/phi(t)
        census = congruence_class_census(EllipticCurve(1, 1), 10**4, 3, primes100k)
        pi_x = sum(census.values())
        assert pi_x == primes100k.count_leq(10**4)
        assert census[0] > 0


class TestTheorem5Report:
    def test_trivial_side_tiny(self, sieve1m, primes100k):
        rep = theorem5_report(EllipticCurve(1, 1), 2, 1, sieve1m, primes100k)
        assert rep.lhs >= 1.0
        assert rep.rhs_core == 1.0

    def test_monotone_in_s(self, sieve1m, primes100k):
        reps = [
            theorem5_report(EllipticCurve(1, 1), 1000, s, sieve1m, primes100k)
            for s in (1, 2, 3)
        ]
        assert reps[0].lhs <= reps[1].lhs <= reps[2].lhs
        for rep in reps:
            assert rep.lhs >= rep.rhs_core

    def test_flags_recorded(self, sieve1m, primes100k):
        rep = theorem5_report(EllipticCurve(1, 1), 100, 1, sieve1m, primes100k)
        assert rep.parameters["cm_checked"] is False
        assert rep.parameters["singular_primes"] == [31]

    def test_large_coefficients_return(self, sieve1m, primes100k):
        # trial-factoring the whole discriminant (~4e27) takes tens of
        # seconds; only the primes <= x are tested against it
        curve = EllipticCurve(10**9 + 7, 10**9 + 9)
        rep = theorem5_report(curve, 100, 1, sieve1m, primes100k)
        expected = [
            int(p) for p in primes100k.upto(100) if curve.discriminant % int(p) == 0
        ]
        assert rep.parameters["singular_primes"] == expected
        assert rep.parameters["pi_x"] == 25

    def test_sieve_too_small(self, primes100k):
        from romanoff_lab.sieve import build_sieve

        small = build_sieve(100)
        with pytest.raises(RangeError):
            theorem5_report(EllipticCurve(1, 1), 100, 1, small, primes100k)

    def test_table_to_the_hasse_bound_is_enough(self, primes100k):
        # x + 2 sqrt(x) + 1 = 10201 bounds every order at x = 10^4 (the largest is 10086)
        curve = EllipticCurve(1, 1)
        assert max(order_sequence(curve, 10**4, primes100k).counts) <= 10201
        reports = [theorem5_report(curve, 10**4, 2, build_sieve(n), primes100k) for n in (10201, 20001)]
        assert reports[0] == reports[1]
        with pytest.raises(RangeError):
            theorem5_report(curve, 10**4, 2, build_sieve(10200), primes100k)

    def test_sum_beyond_float64_is_capacity_error(self, sieve1m, primes100k):
        # some order n has n/phi(n) >= 2, and 2^2000 is beyond float64
        with pytest.raises(CapacityError, match="s=2000"):
            theorem5_report(EllipticCurve(1, 1), 100, 2000, sieve1m, primes100k)


class TestOrdersFromAnotherRun:
    """orders= must be the sequence of the same curve up to the same x."""

    def census(self, curve, x, sieve, primes, orders=None):
        return congruence_class_census(curve, x, 4, primes, orders=orders)

    def t5(self, curve, x, sieve, primes, orders=None):
        return theorem5_report(curve, x, 2, sieve, primes, orders=orders)

    @pytest.mark.parametrize("report", ["census", "t5"])
    @pytest.mark.parametrize("curve,x", [(EllipticCurve(1, 1), 1000), (EllipticCurve(0, 7), 10**4)])
    def test_mismatch_raises(self, report, curve, x, sieve1m, primes100k):
        orders = order_sequence(EllipticCurve(0, 7), 1000, primes100k)
        with pytest.raises(ParameterError):
            getattr(self, report)(curve, x, sieve1m, primes100k, orders=orders)

    @pytest.mark.parametrize("report", ["census", "t5"])
    def test_matching_orders_same_report(self, report, sieve1m, primes100k):
        curve = EllipticCurve(0, 7)
        orders = order_sequence(curve, 1000, primes100k)
        build = getattr(self, report)
        assert build(curve, 1000, sieve1m, primes100k, orders=orders) == build(
            curve, 1000, sieve1m, primes100k
        )


class TestTheorem5AgainstExactOracle:
    """lhs is the fsum of float terms; moment_sum is the exact oracle."""

    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=2, max_value=2000),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bound(self, A, B, x, s):
        if 4 * A**3 + 27 * B**2 == 0:
            return
        curve = EllipticCurve(A, B)
        orders = order_sequence(curve, x, HYP_PRIMES)
        rep = theorem5_report(curve, x, s, HYP_SIEVE, HYP_PRIMES, orders=orders)
        exact = moment_sum(orders.orders(), s, HYP_SIEVE)
        assert abs(Fraction(rep.lhs) - exact) <= Fraction(s + 3, 2**53) * exact
        assert rep.lhs >= rep.rhs_core

    def test_verify_all_input_bit_equal(self, sieve1m, primes100k):
        orders = order_sequence(EllipticCurve(1, 1), 10**4, primes100k)
        rep = theorem5_report(EllipticCurve(1, 1), 10**4, 1, sieve1m, primes100k, orders=orders)
        assert rep.lhs == float(moment_sum(orders.orders(), 1, sieve1m))

    def test_one_ulp_case(self, sieve1m, primes100k):
        # (-41, -35) at x = 10^4, s = 1 rounds one ulp away from the exact sum
        curve = EllipticCurve(-41, -35)
        orders = order_sequence(curve, 10**4, primes100k)
        rep = theorem5_report(curve, 10**4, 1, sieve1m, primes100k, orders=orders)
        exact = moment_sum(orders.orders(), 1, sieve1m)
        assert abs(rep.lhs - float(exact)) <= math.ulp(float(exact))
        assert abs(Fraction(rep.lhs) - exact) <= Fraction(4, 2**53) * exact

    def test_corrupt_table_is_typed_error(self, sieve1m, primes100k):
        orders = order_sequence(EllipticCurve(1, 1), 100, primes100k)
        victim = orders.orders()[5]
        spf = sieve1m.spf.copy()
        spf[victim] = victim + 2  # phi(victim) gathers as victim + 1 > victim
        corrupt = FactorSieve(limit=sieve1m.limit, spf=spf)
        with pytest.raises(TableIntegrityError):
            theorem5_report(EllipticCurve(1, 1), 100, 1, corrupt, primes100k, orders=orders)


# --- Shanks-Mestre baby-step giant-step against the character sum -----------

SWITCH = ell._BSGS_MIN_PRIME
BSGS_PRIMES = [int(p) for p in PrimeList.build(2 * 10**4).values if p >= SWITCH]


def curve_points(a: int, b: int, p: int):
    """Every affine point with y != 0, by a square-root table."""
    roots = {}
    for y in range(1, p):
        roots.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in roots.get((x**3 + a * x + b) % p, [])]


def point_order(P, a: int, p: int, group_order: int) -> int:
    """Least divisor d of the group order with dP = O."""
    divisors = [d for d in range(1, group_order + 1) if group_order % d == 0]
    return next(d for d in divisors if ell._ec_mul(d, P, a, p) is None)


def hasse_interval(p: int) -> tuple[int, int]:
    r = math.isqrt(4 * p)
    return p + 1 - r, p + 1 + r


class TestBsgsAgainstCharacterSum:
    def test_switch_is_not_below_mestre_bound(self):
        assert SWITCH >= 229

    @pytest.mark.parametrize("A,B", [(1, 1), (-41, -35), (0, 1), (0, 7), (1, 0), (-1, 0)])
    def test_every_prime_from_switch(self, A, B):
        curve = EllipticCurve(A, B)
        for p in BSGS_PRIMES:
            if curve.discriminant % p == 0:
                continue
            assert ell._count_points_bsgs(A % p, B % p, p) == ell._count_points_character(curve, p), (A, B, p)

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.sampled_from(BSGS_PRIMES),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_curves(self, A, B, p):
        if 4 * A**3 + 27 * B**2 == 0:
            return
        curve = EllipticCurve(A, B)
        assert count_points(curve, p) == ell._count_points_character(curve, p)

    def test_repeated_calls_identical(self, primes100k):
        curve = EllipticCurve(-41, -35)
        first = order_sequence(curve, 3 * 10**4, primes100k)
        second = order_sequence(curve, 3 * 10**4, primes100k)
        assert first.entries == second.entries
        p = 99991
        assert len({count_points(curve, p) for _ in range(5)}) == 1


class TestAnnihilators:
    """_annihilators returns every m of the Hasse interval with mP = O."""

    def test_every_point_against_its_order(self):
        # every point of these curves; each kind occurs: ord <= s (O among the baby
        # steps), s < ord < 2s (two baby steps share x), ord = 2s (y = 0 at
        # step s) and ord > 2s
        seen = set()
        for p in (229, 233, 239, 241, 251, 257, 263, 269, 271, 277):
            for A, B in ((1, 1), (0, 7), (-1, 0), (2, 3), (5, -2)):
                a, b = A % p, B % p
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                n = ell._count_points_character(EllipticCurve(A, B), p)
                lo, hi = hasse_interval(p)
                s = math.isqrt((hi - lo + 1) // 2) + 1
                for P in curve_points(a, b, p):
                    order = point_order(P, a, p, n)
                    kind = (
                        "baby_infinity" if order <= s
                        else "x_collision" if order < 2 * s
                        else "y_zero" if order == 2 * s
                        else "large"
                    )
                    expected = [m for m in range(lo, hi + 1) if m % order == 0]
                    assert ell._annihilators(P, a, p, lo, hi) == expected, (A, B, p, P)
                    seen.add(kind)
        assert seen == {"baby_infinity", "x_collision", "y_zero", "large"}

    def test_x_collision_example(self):
        # y^2 = x^3 + 1 over F_233 has 234 points; H = [204, 264] and s = 6.
        # (14, 101) has order 9, so baby steps 4 and 5 share x (5P = -4P): the
        # order comes from the collision and all its multiples in H count
        p, a, P = 233, 0, (14, 101)
        assert ell._count_points_character(EllipticCurve(0, 1), p) == 234
        assert point_order(P, a, p, 234) == 9
        assert ell._ec_mul(5, P, a, p)[0] == ell._ec_mul(4, P, a, p)[0]
        assert ell._annihilators(P, a, p, 204, 264) == [207, 216, 225, 234, 243, 252, 261]


def euler_criterion_count(A: int, B: int, p: int) -> int:
    """Independent O(p) route: per-x quadratic character by modular powers."""
    return p + 1 + sum(legendre_symbol(x * x * x + A * x + B, p) for x in range(p))


class TestFallbackToCharacterSum:
    @pytest.fixture
    def character_calls(self, monkeypatch):
        calls = []
        kernel = ell._count_points_character

        def counted(curve, p):
            calls.append(p)
            return kernel(curve, p)

        monkeypatch.setattr(ell, "_count_points_character", counted)
        return calls

    def test_below_switch(self, character_calls):
        assert count_points(EllipticCurve(1, 1), 4093) == euler_criterion_count(1, 1, 4093)
        assert character_calls == [4093]

    def test_good_reduction_from_switch(self, character_calls):
        for p in BSGS_PRIMES[:100]:
            count_points(EllipticCurve(1, 1), p)
        assert character_calls == []

    def test_bad_reduction(self, character_calls):
        p = 4099
        curve = EllipticCurve(-3, 2 + p)  # discriminant 27 p (p + 4)
        assert curve.discriminant % p == 0
        assert count_points(curve, p) == euler_criterion_count(-3, 2 + p, p)
        assert character_calls == [p]

    def test_unresolved(self, character_calls, monkeypatch):
        # points that every m of the Hasse interval kills never pin the order
        monkeypatch.setattr(ell, "_annihilators", lambda P, a, p, lo, hi: list(range(lo, hi + 1)))
        p = 10007
        assert count_points(EllipticCurve(2, 3), p) == euler_criterion_count(2, 3, p)
        assert character_calls == [p]


class TestCharacterTableCap:
    """The 2^24 cap bounds the character table only: BSGS counts beyond it."""

    P = 16777259  # least prime above 2^24; P = 3 (mod 4)

    def test_bsgs_counts_beyond_cap(self):
        p = self.P
        assert p > ell._MAX_CHARACTER_PRIME and p % 4 == 3
        n = count_points(EllipticCurve(1, 1), p)
        assert (n - p - 1) ** 2 <= 4 * p
        assert count_points(EllipticCurve(1, 1), p) == n
        # n kills points of E, 2p + 2 - n kills points of the twist by -1
        # (a non-residue as p = 3 mod 4): y^2 = x^3 + x - 1
        for b, m in ((1, n), (p - 1, 2 * p + 2 - n)):
            checked = 0
            for x in range(1, 200):
                f = (x**3 + x + b) % p
                y = pow(f, (p + 1) // 4, p)
                if f and y * y % p == f:
                    assert ell._ec_mul(m, (x, y), 1, p) is None
                    checked += 1
            assert checked >= 20

    def test_bad_reduction_beyond_cap(self):
        p = self.P
        with pytest.raises(CapacityError):
            count_points(EllipticCurve(-3, 2 + p), p)

    def test_unresolved_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(ell, "_annihilators", lambda P, a, p, lo, hi: list(range(lo, hi + 1)))
        with pytest.raises(CapacityError):
            count_points(EllipticCurve(1, 1), self.P)


# --- lane-parallel Shanks-Mestre against the character sum -------------------

LANE_CURVES = [(1, 1), (-41, -35), (0, 1), (0, 7), (1, 0), (-1, 0)]
WINDOW_PRIMES = [int(p) for p in PrimeList.build(5 * 10**4).values if p >= SWITCH]
# order_sequence sends the lanes every good prime from 5 up
LANE_PRIMES = [int(p) for p in PrimeList.build(5 * 10**4).values if p >= 5]


def good_primes(curve: EllipticCurve, ps) -> list[int]:
    return [p for p in ps if curve.discriminant % p]


@pytest.fixture
def scalar_calls(monkeypatch):
    calls = []
    kernel = ell._count_points_prime

    def counted(curve, p):
        calls.append(p)
        return kernel(curve, p)

    monkeypatch.setattr(ell, "_count_points_prime", counted)
    return calls


@pytest.fixture
def lane_primes(monkeypatch):
    # _parity_lanes sees each prime that enters a lane once, in order
    primes = []
    kernel = ell._parity_lanes

    def recorded(a, b, p):
        primes.extend(p.tolist())
        return kernel(a, b, p)

    monkeypatch.setattr(ell, "_parity_lanes", recorded)
    return primes


@pytest.fixture
def lane_rounds(monkeypatch):
    # the primes of each lane round, one list a _lane_killers call
    rounds = []
    kernel = ell._lane_killers

    def recorded(px, py, a, p, *args):
        rounds.append(p.tolist())
        return kernel(px, py, a, p, *args)

    monkeypatch.setattr(ell, "_lane_killers", recorded)
    return rounds


def lanes_match_character_sum(curve: EllipticCurve, window, length: int) -> None:
    """The first length good primes of window (a discriminant below 10^28
    has at most 19 primes from 5 up, so 32 spare primes cover them) run at
    least one lane round, and every order equals the character sum's."""
    ps = good_primes(curve, window)[:length]
    rounds = []
    kernel = ell._lane_killers

    def recorded(*args):
        rounds.append(args)
        return kernel(*args)

    # patched here, not by the lane_rounds fixture, which hypothesis would
    # share across all the examples of one test
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ell, "_lane_killers", recorded)
        orders = ell._count_points_lanes(curve, ps)
    assert len(ps) == length and rounds
    assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]


class TestLanesAgainstCharacterSum:
    @pytest.mark.parametrize("A,B", LANE_CURVES)
    def test_every_prime_from_switch(self, A, B, scalar_calls):
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, BSGS_PRIMES)
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]
        # the lanes, not the scalar fallback, count almost every prime
        assert len(scalar_calls) < len(ps) // 10

    @pytest.mark.parametrize("A,B", LANE_CURVES)
    def test_every_prime_below_switch(self, A, B, scalar_calls):
        # below Mestre's bound a lane may stay open; a resolved one is exact
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, [p for p in LANE_PRIMES if p < SWITCH])
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]
        assert len(scalar_calls) < len(ps) // 10

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=0, max_value=len(WINDOW_PRIMES) - 96),
        st.integers(min_value=ell._LANE_MIN_BATCH, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_curves_and_windows(self, A, B, start, length):
        if 4 * A**3 + 27 * B**2 == 0:
            return
        curve = EllipticCurve(A, B)
        lanes_match_character_sum(curve, WINDOW_PRIMES[start : start + length + 32], length)

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=0, max_value=len(LANE_PRIMES) - 96),
        st.integers(min_value=ell._LANE_MIN_BATCH, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_curves_and_windows_from_five(self, A, B, start, length):
        if 4 * A**3 + 27 * B**2 == 0:
            return
        curve = EllipticCurve(A, B)
        lanes_match_character_sum(curve, LANE_PRIMES[start : start + length + 32], length)

    def test_order_sequence_uses_lanes_from_switch(self, primes100k, lane_primes):
        curve = EllipticCurve(-3, 2 + 4099)  # 4099 divides the discriminant
        seq = order_sequence(curve, 2 * 10**4, primes100k)
        expected = good_primes(curve, [p for p in LANE_PRIMES if p <= 2 * 10**4])
        assert lane_primes == expected and 4099 not in lane_primes
        assert dict(seq.entries)[4099] == euler_criterion_count(-3, 2 + 4099, 4099)

    @pytest.mark.parametrize("A,B", [(1, 1), (0, 7)])
    def test_order_sequence_every_x_to_400(self, A, B, primes100k, lane_primes):
        # runs of fewer than _LANE_MIN_BATCH primes stay scalar, longer ones
        # take the lanes: x = 400 has 78 primes
        curve = EllipticCurve(A, B)
        scalar = {int(p): ell._count_points_prime(curve, int(p)) for p in primes100k.upto(400)}
        on_lanes = []
        for x in range(2, 401):
            lane_primes.clear()
            seq = order_sequence(curve, x, primes100k)
            assert list(seq.entries) == [(p, n) for p, n in scalar.items() if p <= x], x
            on_lanes.append(bool(lane_primes))
        assert not on_lanes[0] and on_lanes[-1]


class TestOneLaneStream:
    def test_only_spent_lanes_and_the_last_open_ones_go_scalar(self, scalar_calls, lane_rounds):
        # 78,498 primes to 10^6: no prime in the middle of the run is handed
        # to the scalar path before its lane has tried every point
        curve = EllipticCurve(0, 1)
        seq = order_sequence(curve, 10**6, PrimeList.build(10**6))
        assert len(seq.counts) == 78498
        rounds = Counter(p for primes in lane_rounds for p in primes)
        good = [p for p in scalar_calls if p >= 5 and curve.discriminant % p]
        open_lanes = [p for p in good if rounds[p] < 2 * ell._BSGS_POINT_TRIES]
        assert len(open_lanes) < ell._LANE_MIN_BATCH
        assert set(open_lanes) <= set(lane_rounds[-1])


class TestRoundEdges:
    """Rounds hold _ROUND_LANES lanes; here rounds of 1, 7 and 64 lanes put
    retried lanes, fresh primes and the lanes left to the scalar path on
    round edges."""

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("A,B", [(0, 1), (1, 0), (-41, -35)])
    def test_lanes_match_character_sum(self, A, B, width, monkeypatch, scalar_calls):
        rounds = Counter()
        killers = ell._lane_killers

        def counted(px, py, a, p, *args):
            rounds.update(p.tolist())
            return killers(px, py, a, p, *args)

        monkeypatch.setattr(ell, "_lane_killers", counted)
        monkeypatch.setattr(ell, "_ROUND_LANES", width)
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, LANE_PRIMES[:120])
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]
        assert any(n > 1 for n in rounds.values())  # retried lanes
        assert scalar_calls  # lanes left open

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=0, max_value=len(LANE_PRIMES) - 1),
        st.integers(min_value=1, max_value=150),
        st.sampled_from([1, 7, 64]),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_curves_and_widths(self, A, B, start, length, width):
        if 4 * A**3 + 27 * B**2 == 0:
            return
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, LANE_PRIMES[start : start + length])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ell, "_ROUND_LANES", width)
            orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]


@functools.lru_cache(maxsize=None)
def character_orders(A: int, B: int, count: int) -> tuple[int, ...]:
    curve = EllipticCurve(A, B)
    return tuple(ell._count_points_character(curve, p) for p in good_primes(curve, LANE_PRIMES[:count]))


class TestWideRounds:
    """The primes to about 2*10^4 (order_sequence's run there) take three
    rounds of 1024 lanes and one of the default width; both widths give the
    character-sum orders."""

    @pytest.mark.parametrize("width", [1024, ell._ROUND_LANES])
    @pytest.mark.parametrize("A,B", [(1, 1), (0, 7), (-41, -35)])
    def test_lanes_match_character_sum(self, A, B, width, monkeypatch):
        widths = []
        killers = ell._lane_killers

        def counted(px, py, a, p, *args):
            widths.append(len(p))
            return killers(px, py, a, p, *args)

        monkeypatch.setattr(ell, "_lane_killers", counted)
        monkeypatch.setattr(ell, "_ROUND_LANES", width)
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, LANE_PRIMES[:2300])
        assert ell._count_points_lanes(curve, ps).tolist() == list(character_orders(A, B, 2300))
        assert max(widths) == min(width, len(ps))
        assert widths.count(width) == len(ps) // width  # the fresh primes fill them


class TestAffineInPlace:
    """_affine overwrites X, Y with x, y and Z with 1/Z; a cell with Z = 0
    is taken as Z = 1."""

    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_against_scalar_inverse(self, rows):
        rng = np.random.default_rng(rows)
        p = np.array([5, 7, 4099, 65537, 2147483647, 1000003], dtype=np.int64)
        X, Y, Z = (rng.integers(0, p, size=(rows, len(p))) for _ in range(3))
        Z[rng.random(Z.shape) < 0.2] = 0
        Z[rows // 2] = 0  # a whole row at infinity
        Z[:, 1] = 0  # and a whole lane
        X0, Y0, Z0 = X.copy(), Y.copy(), Z.copy()
        assert ell._affine(X, Y, Z, p) is None
        for (i, k), z in np.ndenumerate(Z0):
            q = int(p[k])
            inv = pow(int(z), -1, q) if z else 1
            assert int(Z[i, k]) == inv
            assert int(X[i, k]) == int(X0[i, k]) * inv**2 % q
            assert int(Y[i, k]) == int(Y0[i, k]) * inv**3 % q


class TestLaneKillers:
    """_lane_killers returns what _annihilators returns in the class of lo
    (mod 2), as a progression."""

    def test_every_point_against_annihilators(self):
        # all points of the curves that TestAnnihilators walks, one lane each,
        # in the even class and, for the points of odd order, in the odd one:
        # Q = 2P meets O among the baby steps, x collisions, y = 0, O at the
        # giant step (2s + 1)Q and large orders
        seen = set()
        for p in (229, 233, 239, 241, 251, 257, 263, 269, 271, 277):
            for A, B in ((1, 1), (0, 7), (-1, 0), (2, 3), (5, -2)):
                a, b = A % p, B % p
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                n = ell._count_points_character(EllipticCurve(A, B), p)
                lo, hi = hasse_interval(p)
                s = math.isqrt((hi - lo) // 4) + 1  # isqrt(r / 2) + 1
                points = curve_points(a, b, p)
                orders = [point_order(P, a, p, n) for P in points]
                for parity in (0, 1):
                    lanes = [(P, o) for P, o in zip(points, orders) if o % 2 or not parity]
                    if not lanes:
                        continue
                    xs, ys = np.array([P for P, _ in lanes], dtype=np.int64).T
                    start = lo + ((lo ^ parity) & 1)
                    a_, p_, lo_, hi_ = (
                        np.full(len(lanes), v, dtype=np.int64) for v in (a, p, start, hi)
                    )
                    first, gap, count = ell._lane_killers(xs, ys, a_, p_, lo_, hi_, s)
                    for (P, order), f, g, k in zip(lanes, first, gap, count):
                        expected = [
                            m for m in ell._annihilators(P, a, p, lo, hi) if m % 2 == parity
                        ]
                        assert list(range(f, f + k * g, g)) == expected, (A, B, p, P, parity)
                        half = order if order % 2 else order // 2  # ord(2P)
                        seen.add(
                            "baby_infinity" if half <= s
                            else "x_collision" if half < 2 * s
                            else "y_zero" if half == 2 * s
                            else "giant_infinity" if half == 2 * s + 1
                            else "large"
                        )
        assert seen == {"baby_infinity", "x_collision", "y_zero", "giant_infinity", "large"}


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# curves with complex multiplication, and a = 0 and b = 0 among others
PARITY_CURVES = [(1, 0), (0, 1), (-1, 0), (0, 7), (1, 1), (2, 3), (-41, -35)]


class TestParityClass:
    """_parity_lanes gives #E(F_p) mod 2 from the roots of x^3 + ax + b: the
    lanes search only that class of the Hasse interval."""

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.one_of(
            st.integers(min_value=5, max_value=10**4),
            st.integers(min_value=5, max_value=2**20),
            st.integers(min_value=2**24, max_value=2**31 - 1),
        ),
    )
    @example(1, 0, 5)
    @example(0, 1, 7)
    @example(0, 3, 5)  # a = 0
    @example(2, 0, 7)  # b = 0
    @example(-1, 0, 9973)  # x^3 - x splits for every p
    @example(1, 1, 2**24 - 3)
    @example(3, 5, 2**31 - 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_orders_and_roots(self, A, B, n):
        p = next_prime(n)
        if (4 * A**3 + 27 * B**2) % p == 0:
            return
        a, b = A % p, B % p
        parity = ell._parity_lanes(*(np.array([v], dtype=np.int64) for v in (a, b, p)))
        order = (
            ell._count_points_character(EllipticCurve(A, B), p)
            if p <= 2**24
            else count_points(EllipticCurve(A, B), p)
        )
        assert parity.tolist() == [order % 2]
        if p < 10**4:
            roots = sum((x * x * x + a * x + b) % p == 0 for x in range(p))
            assert parity.tolist() == [int(roots == 0)]
            assert roots < 3 or order % 4 == 0  # E[2] lies in E(F_p)

    @pytest.mark.parametrize("A,B", PARITY_CURVES)
    def test_one_call_over_primes_of_every_length(self, A, B):
        # lanes whose p differ in bit length share one ladder
        curve = EllipticCurve(A, B)
        ps = np.array(good_primes(curve, LANE_PRIMES[:700]), dtype=np.int64)
        parity = ell._parity_lanes(ell._residues(A, ps), ell._residues(B, ps), ps)
        assert parity.tolist() == [ell._count_points_character(curve, int(p)) % 2 for p in ps]

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("A,B", [(-1, 0), (1, 1), (2, 3)])
    def test_round_widths_give_character_orders(self, A, B, width, monkeypatch):
        monkeypatch.setattr(ell, "_ROUND_LANES", width)
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, LANE_PRIMES[:150])
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]


class TestMulLanes:
    """_mul_lanes gives kP as _ec_mul does, from tables of 1, 3 and 17 affine
    multiples (windows of 1, 2 and 4 bits)."""

    @pytest.mark.parametrize("entries", [1, 3, 17])
    def test_against_ec_mul(self, entries):
        rng = np.random.default_rng(entries)
        lanes = []  # (P, a, p, k); P = (vx, v^2) lies on y^2 = x^3 + av^2 x + bv^3
        for p in [227, 4099, 65539, 1000003, 2147483647] * 8:
            a, b = (int(v) for v in rng.integers(0, p, size=2))
            for x in range(p):
                v = (x**3 + a * x + b) % p
                P, av = (v * x % p, v * v % p), a * v * v % p
                if v and all(ell._ec_mul(j, P, av, p) for j in range(1, entries + 1)):
                    break
            lanes.append((P, av, p, int(rng.integers(0, 2 ** int(rng.integers(0, 63))))))
        lanes[:3] = [(P, a, p, k) for (P, a, p, _), k in zip(lanes[:3], (0, 1, 2))]
        table = [[ell._ec_mul(j, P, a, p) for P, a, p, _ in lanes] for j in range(1, entries + 1)]
        bx, by = (np.array([[Q[c] for Q in row] for row in table]) for c in (0, 1))
        _, a, p, k = (np.array(col, dtype=np.int64) for col in zip(*lanes))
        X, Y, Z = ell._mul_lanes(k, bx, by, a, p)
        for (P, a, p, k), x, y, z in zip(lanes, X.tolist(), Y.tolist(), Z.tolist()):
            inv = pow(z, -1, p) if z % p else None
            got = None if inv is None else (x * inv**2 % p, y * inv**3 % p)
            assert got == ell._ec_mul(k, P, a, p), (p, k)


class TestLaneFallback:
    def test_unresolved_lanes_reach_scalar(self, scalar_calls, monkeypatch):
        # points that every m of the Hasse interval kills never pin a lane
        monkeypatch.setattr(
            ell, "_lane_killers", lambda px, py, a, p, lo, hi, s: (lo, lo * 0 + 1, hi - lo + 1)
        )
        curve = EllipticCurve(2, 3)
        ps = good_primes(curve, BSGS_PRIMES[:100])
        assert not ell._lane_orders(curve, np.array(ps)).any()
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]
        assert scalar_calls == ps

    BIG = [2147483659, 2147483693]  # the least primes from 2^31

    def test_lane_kernel_leaves_primes_from_limit_to_scalar(self, lane_rounds):
        assert all(p >= ell._LANE_PRIME_LIMIT and ell.is_prime(p) for p in self.BIG)
        curve = EllipticCurve(1, 1)
        orders = ell._count_points_lanes(curve, BSGS_PRIMES[:100] + self.BIG)
        assert lane_rounds and max(map(max, lane_rounds)) < ell._LANE_PRIME_LIMIT
        assert orders[-2:].tolist() == [count_points(curve, p) for p in self.BIG]

    def test_order_sequence_keeps_them_scalar(self, lane_primes):
        curve, big, small = EllipticCurve(1, 1), self.BIG, BSGS_PRIMES[:100]
        table = PrimeList(limit=big[-1], values=np.array(small + big, dtype=np.int64))
        seq = order_sequence(curve, big[-1], table)
        assert lane_primes == small
        for p, n in seq.entries[-2:]:
            assert (n - p - 1) ** 2 <= 4 * p
            assert n == count_points(curve, p)


class TestOrderThreePointSkipped:
    """On y^2 = x^3 + B, x = 0 gives (0, B^2), a point of order 3 at every
    prime, which never decides an order; neither BSGS path tries it."""

    @pytest.mark.parametrize("A,B", [(0, 1), (0, 7)])
    def test_no_point_at_x_zero(self, A, B, monkeypatch):
        scalar_xs, lane_xs = [], []
        annihilators, killers = ell._annihilators, ell._lane_killers

        def scalar(P, *args):
            scalar_xs.append(P[0])
            return annihilators(P, *args)

        def lanes(px, *args):
            lane_xs.extend(px.tolist())
            return killers(px, *args)

        monkeypatch.setattr(ell, "_annihilators", scalar)
        monkeypatch.setattr(ell, "_lane_killers", lanes)
        curve = EllipticCurve(A, B)
        ps = good_primes(curve, BSGS_PRIMES)
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]
        for p in ps[:40]:
            order = ell._count_points_bsgs(A, B % p, p)
            assert order in (None, ell._count_points_character(curve, p))
        assert scalar_xs and lane_xs
        assert 0 not in scalar_xs and 0 not in lane_xs


class TestOrderFourPointSkipped:
    """On y^2 = x^3 + ax, an x with x^2 = a gives a point P with
    2P = (0, 0), of order 4 at every prime, which never decides an order;
    neither BSGS path tries it."""

    @pytest.mark.parametrize("A", [1, 4])
    def test_no_point_doubles_to_two_torsion(self, A, monkeypatch):
        tried = []  # (x, y, a, p) of every point either path tries
        annihilators, killers = ell._annihilators, ell._lane_killers

        def scalar(P, a, p, *args):
            tried.append((*P, a, p))
            return annihilators(P, a, p, *args)

        def lanes(px, py, a, p, *args):
            tried.extend(zip(px.tolist(), py.tolist(), a.tolist(), p.tolist()))
            return killers(px, py, a, p, *args)

        monkeypatch.setattr(ell, "_annihilators", scalar)
        monkeypatch.setattr(ell, "_lane_killers", lanes)
        curve = EllipticCurve(A, 0)
        ps = good_primes(curve, BSGS_PRIMES)
        orders = ell._count_points_lanes(curve, ps)
        assert orders.tolist() == [ell._count_points_character(curve, p) for p in ps]
        lane_points = len(tried)
        for p in ps[:40]:
            order = ell._count_points_bsgs(A % p, 0, p)
            assert order in (None, ell._count_points_character(curve, p))
        assert lane_points and len(tried) > lane_points
        assert all(ell._ec_add((x, y), (x, y), a, p) != (0, 0) for x, y, a, p in tried)
        if A == 1:
            assert lane_points < 1.5 * len(ps)


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


class TestResidues:
    """_residues in int64 for |n| < 2^62 and on Python ints beyond."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(
            st.integers(2**62 - 2**12, 2**62 + 2**12),
            st.integers(-(2**62) - 2**12, -(2**62) + 2**12),
            st.integers(-(2**70), 0),
            st.integers(2**64, 2**90),
        ),
        # 2^31 - 1 is prime, so every next_prime stays below 2^31
        ps=st.lists(st.integers(2, 2**31 - 1).map(next_prime), max_size=20),
    )
    def test_equals_python_mod(self, n, ps):
        got = ell._residues(n, np.array(ps, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [n % p for p in ps]


class TestBruteforceTable:
    """_count_points_bruteforce, the enumeration oracle of verify-all, compares
    every (x, y) in one table; it must equal the pair loop."""

    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

    @pytest.mark.parametrize(
        "A,B",
        [(A, B) for A in range(-3, 4) for B in range(-3, 4) if 4 * A**3 + 27 * B**2]
        + [(2**70 + 1, -(2**65) + 3), (-(2**63), 2**63 - 1)],
    )
    def test_equals_pair_loop(self, A, B):
        curve = EllipticCurve(A, B)
        for p in self.PRIMES:
            assert ell._count_points_bruteforce(curve, p) == brute_count(A, B, p), p
