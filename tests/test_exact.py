import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romanoff_lab import exact
from romanoff_lab.exact import exact_fraction_sum, float_sum, pair_tree_sum


class TestPairTreeSum:
    def test_empty(self):
        assert pair_tree_sum([]) == (0, 1)

    def test_single(self):
        assert pair_tree_sum([(3, 7)]) == (3, 7)

    def test_matches_naive(self):
        rng = random.Random(0)
        for _ in range(200):
            pairs = [
                (rng.randint(-50, 50), rng.randint(1, 50))
                for _ in range(rng.randint(1, 40))
            ]
            num, den = pair_tree_sum(pairs)
            assert Fraction(num, den) == sum(Fraction(n, d) for n, d in pairs)


class TestExactFractionSum:
    @pytest.mark.parametrize("size", [0, 1, 2, 511, 512, 513, 1025, 2000])
    def test_chunk_boundaries(self, size):
        rng = random.Random(size)
        fracs = [
            Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            for _ in range(size)
        ]
        assert exact_fraction_sum(fracs) == sum(fracs, Fraction(0))

    def test_generator_input(self):
        total = exact_fraction_sum(Fraction(1, k) for k in range(1, 50))
        assert total == sum(Fraction(1, k) for k in range(1, 50))

    def test_small_chunk_parameter(self, monkeypatch):
        monkeypatch.setattr(exact, "_FRACTION_CHUNK", 3)
        fracs = [Fraction(1, k) for k in range(1, 30)]
        assert exact_fraction_sum(fracs) == sum(fracs, Fraction(0))

    def test_result_is_reduced(self):
        total = exact_fraction_sum([Fraction(1, 4), Fraction(1, 4)])
        assert total.numerator == 1 and total.denominator == 2


# magnitudes up to 2^1000, subnormals and zeros of both signs; a list of 60
# such terms cannot overflow, so math.fsum is a valid oracle on every draw
WIDE = st.floats(min_value=-(2.0**1000), max_value=2.0**1000, allow_subnormal=True)
TINY = 2.0**-1074


def same_bits(got: float, want: float) -> bool:
    """Equal, and equal in sign too unless both are zero: float_sum gives
    +0.0 for every zero sum."""
    return got.hex() == want.hex() or got == want == 0.0


def fraction_sum(terms) -> float:
    return float(sum(map(Fraction, terms), Fraction(0)))


@st.composite
def sum_cases(draw):
    """Wide terms, with negated copies of some (cancellation) and terms that
    put the sum on an exact half-way point between two floats."""
    terms = draw(st.lists(WIDE, max_size=40))
    terms += [-x for x in draw(st.lists(st.sampled_from(terms), max_size=10))] if terms else []
    for x in draw(st.lists(st.floats(2.0**-1000, 2.0**1000), max_size=3)):
        terms += [x, math.ulp(x) / 2]  # x + ulp(x)/2 is a tie: round to even
    return draw(st.permutations(terms))


class TestFloatSum:
    @settings(max_examples=300, deadline=None)
    @given(sum_cases(), st.data())
    @example([], None)
    @example([1.0, 2.0**-53], None)  # a tie that rounds down to even
    @example([1.0 + 2.0**-52, 2.0**-53], None)  # a tie that rounds up to even
    @example([1e308, -1e308, TINY], None)
    @example([TINY, TINY, -TINY * 3, 0.0, -0.0], None)
    def test_matches_fsum_and_fractions(self, terms, data):
        want = math.fsum(terms)
        assert want == fraction_sum(terms)
        arr = np.array(terms, dtype=np.float64)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=5))) if data else []
        assert same_bits(float_sum(np.split(arr, cuts)), want)
        assert same_bits(float_sum([arr]), want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(WIDE, max_size=7))
    def test_every_split_into_blocks(self, terms):
        # all 2^(n-1) ways to cut n terms into consecutive nonempty blocks
        arr = np.array(terms, dtype=np.float64)
        want = float_sum([arr])
        gaps = range(1, len(terms))
        for k in range(len(terms)):
            for cuts in itertools.combinations(gaps, k):
                assert same_bits(float_sum(np.split(arr, cuts)), want)

    def test_empty_is_positive_zero(self):
        assert same_bits(float_sum([]), 0.0) and math.copysign(1, float_sum([])) == 1
        assert math.copysign(1, float_sum([np.array([-0.0, -0.0])])) == 1
        assert float_sum([np.empty(0), np.empty(0)]) == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_full_chunk_of_widest_mantissas(self, sign):
        # every bucket total at its bound: 2^13 terms of 53 set mantissa bits
        big = np.full(exact._SUM_CHUNK, sign * (2.0 - 2.0**-52))
        assert float_sum([big]) == sign * exact._SUM_CHUNK * (2.0 - 2.0**-52)
        assert float_sum([big, big[:5]]) == math.fsum(np.concatenate([big, big[:5]]).tolist())

    def test_chunks_of_one_large_block(self):
        rng = np.random.default_rng(3)
        n = 2 * exact._SUM_CHUNK + 77
        arr = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
        want = math.fsum(arr.tolist())
        assert float_sum([arr]) == want == fraction_sum(arr.tolist())
        assert float_sum(np.array_split(arr, 7)) == want
        assert float_sum([arr.reshape(-1, 1)]) == want  # blocks are read flat

    def test_no_intermediate_overflow(self):
        # fsum overflows on its way; the exact sum is max itself
        big = sys.float_info.max
        with pytest.raises(OverflowError):
            math.fsum([big, big, -big])
        assert float_sum([np.array([big, big, -big])]) == big

    @pytest.mark.parametrize(
        "terms",
        [[math.inf], [1.0, -math.inf], [math.nan], [math.inf, -math.inf], [1e308, 1e308]],
    )
    def test_nonfinite_term_or_sum_overflows(self, terms):
        with pytest.raises(OverflowError):
            float_sum([np.array(terms)])
        with pytest.raises(OverflowError):
            float_sum([np.array([1.0]), np.array(terms)])


class TestOneMergeTree:
    """pair_tree_sum and exact_fraction_sum share one tree merge; each is
    checked against a sum that uses no tree."""

    def test_pairs_stay_unreduced(self):
        # an unreduced sum of pairs, whatever the tree, is
        # (sum n_i * prod_{j != i} d_j, prod d_j)
        rng = random.Random(7)
        for size in (1, 2, 3, 5, 8, 13, 512, 513):
            pairs = [(rng.randint(-90, 90), rng.randint(1, 90)) for _ in range(size)]
            den = math.prod(d for _, d in pairs)
            assert pair_tree_sum(pairs) == (sum(n * (den // d) for n, d in pairs), den)

    @pytest.mark.parametrize("size", [0, 1, 511, 512, 513, 1025])
    def test_fraction_sum_against_left_to_right(self, size):
        rng = random.Random(1000 + size)
        fracs = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)) ** 2 for _ in range(size)]
        assert exact_fraction_sum(fracs) == sum(fracs, Fraction(0))
        assert exact_fraction_sum(iter(fracs)) == sum(fracs, Fraction(0))
