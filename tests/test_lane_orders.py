"""The lane kernel of order_weighted_sum against the scalar descent."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romanoff_lab import sieve as sieve_module
from romanoff_lab.errors import CapacityError, RangeError, TableIntegrityError
from romanoff_lab.romanoff import _lane_mult_orders, multiplicative_order, order_weighted_sum
from romanoff_lab.sieve import FactorSieve, PrimeList, build_sieve

# hypothesis tests cannot take pytest fixtures
LANE_PRIMES = PrimeList.build(2 * 10**4)
LANE_SIEVE = build_sieve(2 * 10**4)
# order_weighted_sum builds its own covering table for the last two
SUM_SIEVES = {"covering": LANE_SIEVE, "none": None, "short": build_sieve(1000)}


class TestLaneOrders:
    @settings(max_examples=120, deadline=None)
    @given(
        a=st.integers(2, 2**70),
        start=st.integers(0, len(LANE_PRIMES.values)),
        width=st.integers(0, 300),
    )
    @example(a=3, start=0, width=1)  # the window {2}
    @example(a=2, start=0, width=0)  # the empty window
    @example(a=2 * 3 * 5 * 7, start=0, width=30)  # p | a skipped
    @example(a=211, start=0, width=6)  # 211 = 1 mod 2, 3, 5, 7
    @example(a=2**62 - 1, start=2000, width=262)  # int64 residues
    @example(a=2**62, start=2000, width=262)  # Python residues
    def test_matches_scalar_descent(self, a, start, width):
        ps = LANE_PRIMES.values[start : start + width]
        got = _lane_mult_orders(a, ps, LANE_SIEVE)
        want = [0 if a % p == 0 else multiplicative_order(a, p) for p in ps.tolist()]
        assert got.tolist() == want

    # 101 - 1 = 2 * 50 never leaves 50; 29 - 1 = 4 * 7 meets 13 or 0 at 7
    @pytest.mark.parametrize("n, entry", [(50, 1), (7, 13), (7, 0)])
    def test_table_that_does_not_factor(self, n, entry):
        spf = build_sieve(200).spf.copy()
        spf[n] = entry
        broken = FactorSieve(limit=200, spf=spf)
        with pytest.raises(TableIntegrityError):
            _lane_mult_orders(3, LANE_PRIMES.upto(200), broken)

    def test_table_short_of_p_minus_1_is_refused(self):
        with pytest.raises(RangeError):
            _lane_mult_orders(3, LANE_PRIMES.upto(2000), build_sieve(1000))

    def test_prime_from_lane_bound_is_refused(self):
        # an explicit check, not an assert, which python -O strips: the int64
        # residue products need p < 2^31
        with pytest.raises(CapacityError, match="lane bound"):
            _lane_mult_orders(3, np.array([5, 2147483659]), LANE_SIEVE)


def reference_sum(a, b, P, primes):
    """The per-prime scalar loop: one multiplicative_order call a prime."""
    return math.fsum(
        math.log(p) / (p * multiplicative_order(a, p) ** (1.0 / b))
        for p in primes.upto(P).tolist()
        if a % p
    )


class TestOrderWeightedSumMatchesScalar:
    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("a", [2, 3, 6, 2**70])
    def test_equal_to_reference(self, a, b, primes100k):
        want = reference_sum(a, b, 2 * 10**4, primes100k)
        for sieve in SUM_SIEVES.values():
            assert order_weighted_sum(a, b, 2 * 10**4, primes100k, sieve) == want

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(2, 2**70),
        P=st.floats(0, 2 * 10**4),
        route=st.sampled_from(["none", "short"]),
    )
    def test_every_route_gives_the_covering_sum(self, a, P, route):
        want = order_weighted_sum(a, 2, P, LANE_PRIMES, LANE_SIEVE)
        assert order_weighted_sum(a, 2, P, LANE_PRIMES, SUM_SIEVES[route]) == want

    def test_chunk_boundaries_leave_the_sum_unchanged(self, primes100k, sieve1m, monkeypatch):
        want = order_weighted_sum(2, 2, 2 * 10**4, primes100k, sieve1m)
        monkeypatch.setattr(sieve_module, "_PRIME_STEP", 7)
        assert order_weighted_sum(2, 2, 2 * 10**4, primes100k, sieve1m) == want
