import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romanoff_lab.elliptic import EllipticCurve, count_points, order_sequence
from romanoff_lab.errors import (
    CapacityError,
    DomainError,
    ParameterError,
    RangeError,
)
from romanoff_lab import sequences as seq_module
from romanoff_lab.moments import PolynomialSpec
from romanoff_lab.sequences import (
    EllipticOrders,
    Explicit,
    Geometric,
    Polynomial,
    PowerTower,
    congruence_pair_sum,
    count_terms,
    doubling_ratio,
    elliptic_prime_bound,
    enumerate_terms,
    format_sequence_spec,
    iter_terms,
    max_multiplicity,
    parse_sequence_spec,
    term_multiplicity,
)


def pair_sum_oracle(terms, x, prime_list):
    """Brute-force triple loop over (k, p, j)."""
    total = 0.0
    for p in prime_list:
        for ak in terms:
            if ak >= x:
                continue
            for aj in terms:
                if ak < aj <= x and (aj - ak) % p == 0:
                    total += math.log(p) / p
    return total


class TestEnumerateTerms:
    def test_geometric(self):
        assert enumerate_terms(Geometric(2, 0), 5) == [1, 2, 4]
        assert enumerate_terms(Geometric(2, 1), 5) == [2, 4]
        assert enumerate_terms(Geometric(3, 0), 100) == [1, 3, 9, 27, 81]

    def test_power_tower(self):
        assert enumerate_terms(PowerTower(2, 2), 20) == [1, 2, 16]
        assert enumerate_terms(PowerTower(2, 2), 600) == [1, 2, 16, 512]
        assert enumerate_terms(PowerTower(3, 3), 2) == [1]

    def test_polynomial_square(self):
        spec = Polynomial(PolynomialSpec((0, 0, 1)))
        assert enumerate_terms(spec, 10) == [1, 4, 9]

    def test_polynomial_skips_nonpositive(self):
        # R(j) = j^2 - 10: negative at j <= 3
        spec = Polynomial(PolynomialSpec((-10, 0, 1)))
        assert enumerate_terms(spec, 100) == [6, 15, 26, 39, 54, 71, 90]

    def test_polynomial_constant_guard(self):
        with pytest.raises(CapacityError):
            enumerate_terms(Polynomial(PolynomialSpec((7,))), 100)
        assert enumerate_terms(Polynomial(PolynomialSpec((101,))), 100) == []

    def test_elliptic_orders(self, primes100k):
        spec = EllipticOrders(EllipticCurve(1, 1))
        terms = enumerate_terms(spec, 30, primes100k)
        oracle = []
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            n = count_points(EllipticCurve(1, 1), q)
            if n <= 30:
                oracle.append(n)
        assert terms == sorted(oracle)

    def test_elliptic_orders_need_primes(self):
        with pytest.raises(RangeError):
            enumerate_terms(EllipticOrders(EllipticCurve(1, 1)), 30)

    def test_explicit(self):
        assert enumerate_terms(Explicit((5, 1, 1, 9)), 5) == [1, 1, 5]

    def test_blocks_of_each_family(self, primes100k):
        # 2^16 + 5 values: the one beyond int64 makes only its own block Python ints
        values = list(range(1, 2**16 + 4)) + [2**70, 3]
        assert_blocks_hold(Explicit(tuple(values)), 2.0**71, values)
        assert_blocks_hold(Explicit((2**64, 5, 2**63 - 1)), 2**63, [5, 2**63 - 1])
        assert_blocks_hold(Explicit((7, 8)), 6, [])
        assert_blocks_hold(Geometric(2, 0), 2.0**70, [2**j for j in range(71)])
        assert_blocks_hold(PowerTower(2, 2), 2.0**64, [2 ** (j * j) for j in range(9)])
        counts = order_sequence(EllipticCurve(1, 1), elliptic_prime_bound(90000), primes100k).counts
        orders = [n for n in counts.tolist() if n <= 90000]
        assert_blocks_hold(EllipticOrders(EllipticCurve(1, 1)), 90000, orders, primes100k)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Geometric(1, 0)
        with pytest.raises(ParameterError):
            PowerTower(2, 1)
        with pytest.raises(ParameterError):
            Explicit((0,))


def polynomial_terms_oracle(poly: PolynomialSpec, x: float) -> list[int]:
    """The one-j-at-a-time loop that int64 Horner blocks replaced, in j order."""
    k = poly.degree
    lead = abs(poly.coeffs[-1])
    tail_max = max((abs(c) for c in poly.coeffs[:-1]), default=0)
    out = []
    j = 0
    while True:
        j += 1
        if len(out) > seq_module.MAX_GENERATED_TERMS:
            raise CapacityError("polynomial term generation exceeded the guard")
        value = poly.evaluate(j)
        if 0 < value <= x:
            out.append(value)
        if j ** (k - 1) * (lead * j - tail_max * k) > x:
            break
    return out


def assert_blocks_hold(spec, x, expected, primes=None):
    """iter_terms yields arrays of 1 to 2^16 terms, int64 exactly when every
    term of the block is below 2^63, that are expected in generation order."""
    blocks = list(iter_terms(spec, x, primes))
    for block in blocks:
        assert isinstance(block, np.ndarray) and 0 < len(block) <= 2**16
        assert block.dtype == (np.int64 if max(block.tolist()) < 2**63 else object)
    assert [v for block in blocks for v in block.tolist()] == expected


def assert_terms_match_oracle(coeffs, x, block=None):
    poly = PolynomialSpec(tuple(coeffs))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(seq_module, "_TERM_BLOCK", block)
        try:
            expected = polynomial_terms_oracle(poly, x)
        except CapacityError:
            with pytest.raises(CapacityError):
                enumerate_terms(Polynomial(poly), x)
            return
        assert enumerate_terms(Polynomial(poly), x) == sorted(expected)
        assert_blocks_hold(Polynomial(poly), x, expected)


class TestPolynomialTermsAgainstLoop:
    """The int64 Horner blocks give the list, and the CapacityError, of the
    loop that evaluated R(j) one j at a time."""

    @given(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=4),
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.floats(min_value=1, max_value=2e4),
        st.sampled_from([None, 7, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_polynomials(self, tail, lead, x, block):
        assert_terms_match_oracle(tail + [lead], x, block)

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize(
        "coeffs,x",
        [
            # sum |c_i| j^i crosses 2^63 below the last j: the rest are Python ints
            ((5, 0, 2**40), 1.5 * 2.0**63),
            ((-(2**62), 2**60), 2.0**64),
            ((2**63, 2**62), 2.0**66),  # wider than int64 from j = 1
            ((-(2**62), 0, 2**61), 3.0 * 2.0**62),
            ((1, 2**52), 2.0**53),  # R(2) = 2^53 + 1 rounds to x as a float
        ],
    )
    def test_beyond_int64(self, coeffs, x, block):
        assert_terms_match_oracle(coeffs, x, block)

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    @pytest.mark.parametrize("guard", [98, 99, 100, 101])
    def test_guard_fires_where_the_loop_fired(self, guard, block, monkeypatch):
        # 100 terms: 99 and 98 raise, 100 and 101 do not; so for 1 + j^2 - 20j
        monkeypatch.setattr(seq_module, "MAX_GENERATED_TERMS", guard)
        assert_terms_match_oracle((0, 1), 100.0, block)
        assert_terms_match_oracle((0, 1), 100.5, block)
        assert_terms_match_oracle((1, -20, 1), 10000.0, block)
        if guard >= 100:
            assert len(enumerate_terms(Polynomial(PolynomialSpec((0, 1))), 100)) == 100
        else:
            with pytest.raises(CapacityError):
                enumerate_terms(Polynomial(PolynomialSpec((0, 1))), 100)


class TestCountingFunctions:
    def test_geometric_counts(self):
        spec = Geometric(2, 0)
        assert count_terms(spec, 5) == 3
        assert term_multiplicity(spec, 4) == 1
        assert max_multiplicity(spec, 5) == 1

    def test_explicit_multiplicity(self):
        spec = Explicit((1, 1, 2))
        assert term_multiplicity(spec, 1) == 2
        assert max_multiplicity(spec, 2) == 2
        assert count_terms(spec, 2) == 3

    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=150, deadline=None)
    def test_multiset_counting_identity(self, values, x):
        spec = Explicit(tuple(values))
        total = count_terms(spec, x)
        assert total == sum(term_multiplicity(spec, n) for n in range(1, x + 1))
        assert max_multiplicity(spec, x) <= total

    def test_count_equals_multiplicity_sum(self, primes100k):
        specs = [
            Geometric(2, 0),
            PowerTower(2, 2),
            Polynomial(PolynomialSpec((0, 0, 1))),
            Explicit((3, 3, 3, 8, 12)),
            EllipticOrders(EllipticCurve(1, 1)),
        ]
        x = 40
        for spec in specs:
            total = count_terms(spec, x, primes100k)
            by_n = sum(
                term_multiplicity(spec, n, primes100k) for n in range(1, x + 1)
            )
            assert total == by_n

    def test_monotone_in_x(self, primes100k):
        spec = EllipticOrders(EllipticCurve(2, 3))
        counts = [count_terms(spec, x, primes100k) for x in (10, 50, 250, 1000)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_strictly_monotone_variants_have_rho_one(self):
        for spec in (Geometric(2, 0), Geometric(5, 1), PowerTower(2, 2), PowerTower(3, 4)):
            for x in (1, 7, 100, 10**6):
                assert max_multiplicity(spec, x) <= 1

    def test_polynomial_injective_tail(self):
        spec = Polynomial(PolynomialSpec((0, 0, 1)))
        for m in (1, 4, 9, 16, 10):
            assert term_multiplicity(spec, m) <= 1

    def test_curve_order_multiplicity_bound(self, primes100k):
        # orders land in (sqrt(q)-1)^2..(sqrt(q)+1)^2, so collisions are
        # confined to a sqrt-window: rho_A(x) stays below 9 sqrt(2x)
        spec = EllipticOrders(EllipticCurve(1, 1))
        for x in (100, 1000, 10**4):
            rho = max_multiplicity(spec, x, primes100k)
            assert 1 <= rho <= 9 * math.sqrt(2 * x)


class TestDoublingRatio:
    def test_single_value(self):
        assert doubling_ratio(Explicit((1,)), 4) == 1.0

    def test_geometric(self):
        # terms <= 16: {1,2,4,8,16}; terms <= 8: four of them
        assert doubling_ratio(Geometric(2, 0), 16) == pytest.approx(4 / 5)

    def test_polynomial_square_root_scaling(self):
        spec = Polynomial(PolynomialSpec((0, 0, 1)))
        ratio = doubling_ratio(spec, 10**4)
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.05)

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            doubling_ratio(Explicit((100,)), 50)

    def test_half_point_below_one(self):
        # x/2 < 1 leaves nothing to count on the numerator side
        assert doubling_ratio(Explicit((1,)), 1.5) == 0.0


class TestCongruencePairSum:
    def test_empty_prime_range(self, primes100k):
        raw, normalized = congruence_pair_sum(Explicit((1, 2, 3)), 6, 0.1, primes100k)
        assert raw == 0.0
        assert normalized == 0.0

    def test_oracle_explicit(self, primes100k):
        # alpha chosen so the prime range is exactly {2, 3}
        x = 7.0
        alpha = math.log(3.5) / math.log(math.log(x))
        terms = [1, 2, 3, 4, 5, 6]
        raw, normalized = congruence_pair_sum(
            Explicit(tuple(terms)), x, alpha, primes100k
        )
        expected = pair_sum_oracle(terms, x, [2, 3])
        assert raw == pytest.approx(expected, rel=1e-12)
        assert normalized == pytest.approx(expected / 36, rel=1e-12)

    def test_oracle_random_multisets(self, primes100k):
        import random

        rng = random.Random(7)
        for _ in range(20):
            terms = sorted(rng.randint(1, 60) for _ in range(rng.randint(1, 40)))
            x = float(rng.randint(2, 80))
            alpha = rng.uniform(0.5, 2.5)
            cutoff = math.log(x) ** alpha
            prime_range = [int(p) for p in primes100k.upto(cutoff)]
            raw, _ = congruence_pair_sum(
                Explicit(tuple(terms)), x, alpha, primes100k
            )
            assert raw == pytest.approx(
                pair_sum_oracle(terms, x, prime_range), rel=1e-9, abs=1e-12
            )

    def test_two_scale_stability_geometric(self, primes100k):
        lo = congruence_pair_sum(Geometric(2, 0), 2.0**16, 1.0, primes100k)
        hi = congruence_pair_sum(Geometric(2, 0), 2.0**20, 1.0, primes100k)
        assert hi[1] <= 2 * lo[1]
        assert lo[1] <= 2 * hi[1]


class TestTextualForm:
    @pytest.mark.parametrize(
        "text",
        [
            "geom:2:start=0",
            "geom:3:start=1",
            "tower:2:3",
            "poly:1,0,0",
            "poly:2,-1,0,7",
            "ecorders:1,1",
            "ecorders:-2,3",
            "explicit:1,2,2,9",
            "explicit:",
        ],
    )
    def test_roundtrip(self, text):
        spec = parse_sequence_spec(text)
        assert parse_sequence_spec(format_sequence_spec(spec)) == spec

    def test_canonical_form_includes_start(self):
        assert format_sequence_spec(Geometric(2)) == "geom:2:start=0"

    def test_file_form(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("4\n7\n7\n")
        spec = parse_sequence_spec(f"explicit:@{path}")
        assert spec == Explicit((4, 7, 7))

    def test_malformed(self):
        for text in ("geom:x", "tower:2", "poly:", "ecorders:1", "fib:1,2"):
            with pytest.raises(ParameterError):
                parse_sequence_spec(text)

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ParameterError):
            parse_sequence_spec("poly:0,1")


class TestPrefixProperty:
    @pytest.mark.parametrize(
        "text",
        ["geom:3:start=1", "tower:2:2", "poly:1,-3,5", "ecorders:1,1", "explicit:9,4,4,1,30,4,17,9"],
    )
    def test_terms_up_to_y_are_a_prefix(self, text, primes100k):
        # the terms up to y <= x are the leading terms up to x, so one
        # enumeration at x serves every statistic at a smaller bound
        spec = parse_sequence_spec(text)
        x = 5000
        full = enumerate_terms(spec, x, primes100k)
        for y in (1, 2.5, 4, 17, 100, 1234.5, 2500, 4999, x):
            prefix = full[: bisect_right(full, y)]
            assert enumerate_terms(spec, y, primes100k) == prefix


def tower_terms_oracle(base: int, power: int, x) -> list[int]:
    """[b ** (j ** p) for j in range(J)] filtered to x, where J >= 2 is the
    first j with j^p > 1100 (compared in logs): from there b^(j^p) >= 2^1100
    passes every x tried here."""
    J = 2
    while power * math.log(J) <= math.log(1100):
        J += 1
    return [v for v in (base ** (j**power) for j in range(J)) if v <= x]


class TestPowerTowerBound:
    """The tower's bound from _least against the terms built one j at a time."""

    BASES = [2, 3, 7, 10, 2**20 + 1]
    POWERS = [2, 3, 5, 64, 10**20]
    # 2^k - 1, 2^k and 2^k + 1 as integers, and non-integer x on either side
    XS = [2**k + d for k in range(1, 301) for d in (-1, 0, 1)] + [
        1.0, 1.5, 2.5, 3.999, 4.0001, 15.5, 16.5, 65536.5, 1e20 / 3, 2.0**200 * 1.5, 1e300
    ]

    @pytest.mark.parametrize("power", POWERS)
    @pytest.mark.parametrize("base", BASES)
    def test_terms_match_the_oracle(self, base, power):
        for x in self.XS:
            assert enumerate_terms(PowerTower(base, power), x) == tower_terms_oracle(base, power, x), x


class TestTermFreeStart:
    """A polynomial with more than MAX_GENERATED_TERMS values of j before its
    first term, or none in a walk longer than that, is refused: up front where
    the bound of first shows it, else at the end of the first pass past the
    guard that holds no term."""

    @pytest.mark.parametrize(
        "coeffs,x,refused",
        [
            ((-1000, 1), 500, False),  # R(j) = j - 1000: 1000 values of j before the first term
            ((-1001, 1), 500, True),  # up front: first = 1002
            ((0, -999, 1), 10**6, False),  # j^2 - 999 j: first term at j = 1000
            ((0, -1100, 1), 10**6, True),  # first only shows j >= 34; no pass to 1024 holds a term
            ((-(2**70), -1), 2.0**71, True),  # negative everywhere: 2^70 values of j were walked
        ],
    )
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_guard_on_the_values_of_j_before_a_term(self, coeffs, x, refused, block, monkeypatch):
        monkeypatch.setattr(seq_module, "MAX_GENERATED_TERMS", 1000)
        monkeypatch.setattr(seq_module, "_TERM_BLOCK", block)
        poly = PolynomialSpec(coeffs)
        if refused:
            with pytest.raises(CapacityError, match="no polynomial term among the first 1000 values of j"):
                enumerate_terms(Polynomial(poly), x)
        else:
            assert enumerate_terms(Polynomial(poly), x) == sorted(
                v for v in map(poly.evaluate, range(1, 2000)) if 0 < v <= x
            )

    def test_passes_below_first_are_skipped_not_shifted(self, monkeypatch):
        # each block holds the terms of one pass of the grid from j = 1, as
        # when every pass was evaluated, so the CLI refuses the same block
        monkeypatch.setattr(seq_module, "_TERM_BLOCK", 7)
        poly = PolynomialSpec((1, -20, 1))  # first = 5; the first term is R(20) = 1
        grid = [[v for v in map(poly.evaluate, range(s, s + 7)) if 0 < v <= 10**4] for s in range(1, 200, 7)]
        assert [b.tolist() for b in iter_terms(Polynomial(poly), 10**4)] == [g for g in grid if g]
