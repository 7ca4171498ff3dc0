import io
import math
import random
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romanoff_lab import elliptic
from romanoff_lab import romanoff as rom_module
from romanoff_lab import sieve as sieve_module
from romanoff_lab.cli import run
from romanoff_lab.elliptic import EllipticCurve, count_points, order_sequence
from romanoff_lab.errors import CapacityError, DomainError, ParameterError, RangeError
from romanoff_lab.moments import PolynomialSpec
from romanoff_lab.romanoff import (
    RepresentationProfile,
    cauchy_schwarz_holds,
    density_count,
    konyagin_ratio,
    multiplicative_order,
    order_distribution,
    order_weighted_sum,
    representation_counts,
    root_count,
    schnirelmann_pi2,
    second_moment,
    theorem6_report,
    theorem9_report,
)
from romanoff_lab.sequences import (
    EllipticOrders,
    Explicit,
    Geometric,
    Polynomial,
    PowerTower,
    elliptic_prime_bound,
    enumerate_terms,
)
from romanoff_lab.sieve import PrimeList, factorize_trial, is_prime


def profile_oracle(spec, x, primes):
    """Exhaustive double loop over (prime, term) pairs."""
    r = [0] * (x + 1)
    terms = enumerate_terms(spec, max(x - 2, 1), primes) if x >= 3 else []
    ps = [int(p) for p in primes.upto(x)] if x >= 2 else []
    for a in terms:
        for p in ps:
            if p + a <= x:
                r[p + a] += 1
    return r


def scatter_oracle(spec, x, primes):
    """The int64 scatter loop: one fancy-index increment per term, at p + a
    for every prime p <= x - a."""
    terms = enumerate_terms(spec, x - 2, primes) if x >= 3 else []
    r = np.zeros(x + 1, dtype=np.int64)
    values = primes.values
    for a in terms:
        cut = int(np.searchsorted(values, x - a, side="right"))
        r[values[:cut] + a] += 1
    return r


# hypothesis tests cannot take pytest fixtures
HYP_PRIMES = PrimeList.build(3000)


@st.composite
def term_multisets(draw):
    """(x, terms): x small or up to 3000; a term count around the 255-term
    uint8 block; terms drawn freely, pinned to x - 2, or one value repeated."""
    x = draw(st.sampled_from([1, 2, 3, 4, 5]) | st.integers(6, 3000))
    n = draw(st.sampled_from([0, 1, 126, 127, 128, 254, 255, 256, 300]) | st.integers(0, 600))
    top = max(x - 2, 1)
    kind = draw(st.sampled_from(["free", "edge", "repeat"]))
    if kind == "repeat":
        terms = [draw(st.integers(1, top))] * n
    elif kind == "edge":
        terms = [top] * n
    else:
        terms = draw(st.lists(st.integers(1, x + 5), min_size=n, max_size=n))
    return x, tuple(sorted(terms))


class TestShiftAddKernel:
    @given(term_multisets())
    @example((1, (1,) * 300))
    @example((2, (1,) * 127))
    @example((3, (1,) * 128))
    @example((3000, (2998,) * 300))
    @example((3000, tuple(range(1, 128))))
    @example((3000, tuple(range(1, 129))))
    @example((3000, tuple(range(1, 3000, 10))))
    @example((3000, (7,) * 300))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_scatter_loop(self, case):
        self.assert_matches_oracle(*case)

    @staticmethod
    def assert_matches_oracle(x, terms):
        spec = Explicit(tuple(terms))
        prof = representation_counts(spec, x, HYP_PRIMES)
        assert prof.r.dtype == np.int64
        assert np.array_equal(prof.r, scatter_oracle(spec, x, HYP_PRIMES))

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("a", [7, 8])
    def test_block_fills_at_255_terms_of_one_parity(self, n, a):
        # one repeated term fills a cell by n; mixed terms of a's parity too
        self.assert_matches_oracle(3000, [a] * n)
        self.assert_matches_oracle(3000, [a + 2 * (i % 50) for i in range(n)])

    @pytest.mark.parametrize("n", [65535, 65536])
    @pytest.mark.parametrize("a", [1, 2])
    def test_mid_flushes_at_65535_terms_of_one_parity(self, n, a):
        # r(a + 3) = n reaches 65,536 only in the int32 window, where a
        # 16-bit counter would wrap it to 0
        self.assert_matches_oracle(10, [a] * n)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_terms_of_one_parity_only(self, parity):
        terms = [a for a in range(1, 2999) if a % 2 == parity]
        self.assert_matches_oracle(3000, terms)
        self.assert_matches_oracle(2999, terms)

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5, 6])
    def test_every_small_x(self, x):
        self.assert_matches_oracle(x, list(range(1, x + 3)))
        self.assert_matches_oracle(x, [1, 1, 2, 2, 3, 3, 4, 4])

    @pytest.mark.parametrize("x", [3, 4, 999, 1000, 2999, 3000])
    def test_term_equal_to_x_minus_2(self, x):
        # only p = 2 reaches n <= x from a = x - 2; the odd block adds nothing there
        self.assert_matches_oracle(x, [x - 2])
        self.assert_matches_oracle(x, [1, 2, x - 2, x - 2])


WINDOWS = [1, 7, 64]


def assert_windows_match_oracle(x, terms, window):
    """r and its histogram, over windows of ``window`` cells, against the scatter loop."""
    spec = Explicit(tuple(terms))
    oracle = scatter_oracle(spec, x, HYP_PRIMES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rom_module, "_WINDOW", window)
        prof = representation_counts(spec, x, HYP_PRIMES)
        below = sorted(a for a in terms if a <= x - 2)
        hist = rom_module._histogram(below, x, HYP_PRIMES, rom_module.DEFAULT_BUDGET)
    assert np.array_equal(prof.r, oracle)
    assert np.array_equal(hist, np.bincount(oracle[1:]))


class TestWindowEdges:
    """The kernel runs over windows of _WINDOW cells of each parity half; here
    windows of 1, 7 and 64 cells put many terms and cells on their edges."""

    @given(term_multisets(), st.sampled_from(WINDOWS))
    @example((3000, (2998,) * 300), 7)
    @example((3000, tuple(range(1, 129))), 64)
    @example((129, (1,) * 256), 1)
    @settings(max_examples=60, deadline=None)
    def test_windows_match_scatter_loop(self, case, window):
        assert_windows_match_oracle(*case, window)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5, 6])
    def test_every_small_x(self, x, window):
        assert_windows_match_oracle(x, list(range(1, x + 3)) * 2, window)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("extra", [0, 1, 2, 3])
    def test_terms_straddling_window_edges(self, window, extra):
        # shifts c = ceil(a/2) one below, at and one above 1, 2 and 3 window
        # lengths; x odd and even, each half ending on or just past an edge
        x = 6 * window + extra + 4
        cs = {m * window + d for m in (1, 2, 3) for d in (-1, 0, 1)}
        terms = sorted(a for c in cs for a in (2 * c - 1, 2 * c) if 1 <= a <= x - 2)
        assert_windows_match_oracle(x, terms, window)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("a", [7, 8])
    def test_block_flush_at_255_terms_of_one_parity(self, window, n, a):
        assert_windows_match_oracle(300, [a] * n, window)
        assert_windows_match_oracle(300, [a + 2 * (i % 50) for i in range(n)], window)

    # one-cell windows would take 10 s here and reach no path that 7 misses
    @pytest.mark.parametrize("window", [7, 64])
    @pytest.mark.parametrize("n", [65535, 65536])
    @pytest.mark.parametrize("a", [1, 2])
    def test_mid_flush_at_65535_terms_of_one_parity(self, window, n, a):
        # the other term adds p = 2 to a cell the n terms also reach
        assert_windows_match_oracle(10, sorted([a] * n + [a + 1]), window)

    @pytest.mark.parametrize("window", [7, 64])
    def test_past_65535_terms_of_both_parities(self, window):
        # in each half, odd-prime adds of one parity and p = 2 hits of the
        # other land in the int32 window together, 70,150 terms in all
        terms = [1] * 40000 + [2] * 30000 + [3] * 100 + [4] * 50
        assert_windows_match_oracle(12, terms, window)


class TestRepresentationCounts:
    def test_geometric_example(self, primes100k):
        prof = representation_counts(Geometric(2, 0), 5, primes100k)
        # pairs: 2+1, 3+1, 2+2, 3+2
        assert list(prof.r[1:]) == [0, 0, 1, 2, 1]

    def test_empty_sequence(self, primes100k):
        prof = representation_counts(Explicit(()), 100, primes100k)
        assert prof.total() == 0

    def test_poly_r3_witness(self, primes100k):
        # 3 = 2 + R(1) for any monic monomial
        for k in (2, 3, 4):
            coeffs = (0,) * k + (1,)
            prof = representation_counts(
                Polynomial(PolynomialSpec(coeffs)), 100, primes100k
            )
            assert prof.r[3] >= 1

    def test_oracle_all_specs(self, primes100k):
        rng = random.Random(8)
        explicit = Explicit(tuple(sorted(rng.randint(1, 400) for _ in range(25))))
        specs = [
            Geometric(2, 0),
            PowerTower(2, 2),
            Polynomial(PolynomialSpec((0, 0, 1))),
            explicit,
        ]
        for spec in specs:
            for x in (1, 2, 3, 10, 100, 500):
                prof = representation_counts(spec, x, primes100k)
                assert list(prof.r) == profile_oracle(spec, x, primes100k), (spec, x)

    def test_total_identity(self, primes100k):
        # sum_n r(n) = sum over terms of pi(x - a_j)
        spec = Geometric(2, 0)
        x = 10**5
        prof = representation_counts(spec, x, primes100k)
        expected = sum(
            primes100k.count_leq(x - a) for a in enumerate_terms(spec, x - 2)
        )
        assert prof.total() == expected

    def test_r_bounded_by_pi_times_rho(self, primes100k):
        spec = Explicit((1, 1, 5))
        x = 200
        prof = representation_counts(spec, x, primes100k)
        for n in range(1, x + 1):
            assert prof.r[n] <= primes100k.count_leq(n) * 2

    def test_budget(self, primes100k):
        with pytest.raises(CapacityError):
            representation_counts(Geometric(2, 0), 10**5, primes100k, budget=10)


class TestMomentsAndDensity:
    def test_second_moment_example(self, primes100k):
        prof = RepresentationProfile(
            spec=Explicit(()), x=3, r=np.array([0, 0, 1, 2], dtype=np.int64)
        )
        assert second_moment(prof) == 5

    def test_second_moment_zero(self, primes100k):
        prof = representation_counts(Explicit(()), 10, primes100k)
        assert second_moment(prof) == 0

    def test_second_moment_geometric(self, primes100k):
        prof = representation_counts(Geometric(2, 0), 5, primes100k)
        assert second_moment(prof) == 6

    def test_density_thresholds(self, primes100k):
        prof = representation_counts(Geometric(2, 0), 5, primes100k)
        assert density_count(prof, 0) == 5
        assert density_count(prof, 2) == 1
        assert density_count(prof, 10**9) == 0

    def test_density_monotone(self, primes100k):
        prof = representation_counts(Geometric(2, 0), 1000, primes100k)
        counts = [density_count(prof, t) for t in (0, 0.5, 1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_density_monotone_and_cauchy_schwarz_any_counts(self, counts):
        r = np.array([0] + counts, dtype=np.int64)
        prof = RepresentationProfile(spec=Explicit(()), x=len(counts), r=r)
        thresholds = [0, 0.5, 1, 2, 5, max(counts) + 1]
        densities = [density_count(prof, t) for t in thresholds]
        assert all(a >= b for a, b in zip(densities, densities[1:]))
        assert cauchy_schwarz_holds(prof)

    def test_cauchy_schwarz(self, primes100k):
        rng = random.Random(9)
        specs = [
            Geometric(2, 0),
            PowerTower(2, 2),
            Explicit(tuple(sorted(rng.randint(1, 300) for _ in range(12)))),
        ]
        for spec in specs:
            for x in (10, 100, 1000):
                prof = representation_counts(spec, x, primes100k)
                assert cauchy_schwarz_holds(prof)
                total = prof.total()
                assert total * total <= x * second_moment(prof) or total == 0


class TestTheorem6Report:
    def test_shifted_primes_spec(self, primes100k):
        # A = {1}: r(n) counts primes p = n - 1
        estimates = theorem6_report(Explicit((1,)), 100, 1.0, primes100k)
        by_name = {}
        for e in estimates:
            by_name.setdefault(e.name, e)
        assert by_name["gamma1"].value == 1.0
        prof = representation_counts(Explicit((1,)), 100, primes100k)
        assert density_count(prof, 1) == primes100k.count_leq(99)

    def test_frontier_zero_threshold_matches_representable(self, primes100k):
        estimates = theorem6_report(Geometric(2, 0), 2**12, 1.0, primes100k)
        frontier = [e for e in estimates if e.name == "c2_at_c1"]
        assert frontier, "frontier missing"
        prof = representation_counts(Geometric(2, 0), 2**12, primes100k)
        representable = density_count(prof, 1) / 2**12
        # smallest c1 in the grid gives a threshold below 1, hence the
        # representable density itself
        smallest = min(frontier, key=lambda e: e.parameters["c1"])
        assert smallest.parameters["threshold"] < 1
        assert smallest.value == pytest.approx(representable)

    def test_empty_sequence_domain_error(self, primes100k):
        with pytest.raises(DomainError):
            theorem6_report(Explicit(()), 100, 1.0, primes100k)

    def test_frontier_counts_equal_density_count(self, primes100k, monkeypatch):
        # the frontier reads one histogram of r; density_count is its oracle.
        # Add a c1 whose threshold is exactly an integer that r takes, where
        # r >= t and r > t differ.
        spec, x = Geometric(2, 0), 2**12
        prof = representation_counts(spec, x, primes100k)
        n_total, log_x = len(enumerate_terms(spec, x)), math.log(x)
        exact = [
            (t, c1)
            for t in range(1, int(prof.r.max()) + 1)
            for c1 in [t * log_x / n_total]
            if c1 * n_total / log_x == t and np.any(prof.r == t)
        ]
        assert exact, "no c1 gives an integer threshold"
        t, c1 = exact[0]
        monkeypatch.setattr(rom_module, "DEFAULT_C1_GRID", (*rom_module.DEFAULT_C1_GRID, c1))
        frontier = [e for e in theorem6_report(spec, x, 1.0, primes100k) if e.name == "c2_at_c1"]
        assert len(frontier) == 12
        assert frontier[-1].parameters["threshold"] == t
        for e in frontier:
            assert e.parameters["count"] == density_count(prof, e.parameters["threshold"])
            assert e.value == e.parameters["count"] / x

    def test_geometric_density_at_small_c1(self, primes100k):
        # a desk-scale density run: more than 5% of n <= 2^16 clear the
        # r(n) >= 0.05 N_A/ln x threshold
        x = 2**16
        prof = representation_counts(Geometric(2, 0), x, primes100k)
        threshold = 0.05 * len(enumerate_terms(Geometric(2, 0), x)) / math.log(x)
        assert density_count(prof, threshold) / x > 0.05


class TestSchnirelmann:
    def test_small_counts(self, primes100k):
        assert schnirelmann_pi2(10, 2, primes100k).count == 2
        assert schnirelmann_pi2(100, 2, primes100k).count == 8

    def test_shift_one(self, primes100k):
        # p + 1 is even and > 2 for odd p, so only p = 2 contributes
        for x in (2, 10, 1000):
            assert schnirelmann_pi2(x, 1, primes100k).count == 1

    def test_brute_force_oracle(self, primes100k):
        rng = random.Random(10)
        for _ in range(25):
            x = rng.randint(4, 3000)
            a = rng.randint(1, 50)
            expected = sum(
                1
                for p in range(2, x + 1)
                if is_prime(p) and is_prime(p + a)
            )
            assert schnirelmann_pi2(x, a, primes100k).count == expected

    def test_normalized_positive(self, primes100k):
        out = schnirelmann_pi2(10**4, 2, primes100k)
        assert out.normalized > 0
        assert math.isfinite(out.normalized)

    def test_twin_count_at_scale(self, primes1m):
        # published twin-prime count below 1e6
        assert schnirelmann_pi2(10**6, 2, primes1m).count == 8169

    def test_range_error(self, primes100k):
        with pytest.raises(RangeError):
            schnirelmann_pi2(10**5, 10, primes100k)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6
        assert multiplicative_order(8, 7) == 1  # 8 = 1 mod 7

    def test_divides_p_minus_one(self, primes100k, sieve1m):
        rng = random.Random(11)
        ps = [int(p) for p in primes100k.values]
        for _ in range(2000):
            p = ps[rng.randrange(len(ps))]
            a = rng.randint(2, 10**6)
            if a % p == 0:
                continue
            h = multiplicative_order(a, p, sieve1m)
            assert (p - 1) % h == 0
            assert pow(a, h, p) == 1

    def test_minimality(self, sieve1m):
        for p in (5, 7, 11, 13, 101):
            for a in range(2, 30):
                if a % p == 0:
                    continue
                h = multiplicative_order(a, p, sieve1m)
                for smaller in range(1, h):
                    assert pow(a, smaller, p) != 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            multiplicative_order(2, 10)
        with pytest.raises(DomainError):
            multiplicative_order(14, 7)


class TestOrderWeightedSum:
    def test_tiny(self, primes100k):
        # only p = 2, h_3(2) = 1
        assert order_weighted_sum(3, 2, 2, primes100k) == pytest.approx(
            math.log(2) / 2, rel=1e-12
        )

    def test_empty(self, primes100k):
        assert order_weighted_sum(3, 2, 1.5, primes100k) == 0.0

    def test_never_asks_is_prime(self, primes100k, sieve1m, monkeypatch):
        # primes come from the PrimeList; the 12-base Miller-Rabin is skipped
        sieves = (sieve1m, None)
        expected = [order_weighted_sum(2, 2, 5 * 10**4, primes100k, s) for s in sieves]
        calls = []
        monkeypatch.setattr(rom_module, "is_prime", lambda n: calls.append(n))
        monkeypatch.setattr(sieve_module, "is_prime", lambda n: calls.append(n))
        got = [order_weighted_sum(2, 2, 5 * 10**4, primes100k, s) for s in sieves]
        assert got == expected
        assert calls == []

    def test_nondecreasing_in_P(self, primes100k, sieve1m):
        values = [
            order_weighted_sum(2, 2, P, primes100k, sieve1m)
            for P in (10, 100, 1000, 10**4)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestOrderDistribution:
    def test_base2_small(self):
        dist = order_distribution(2, 6, 10**4)
        entries = {e.n: e for e in dist.entries}
        assert entries[1].d_n == 0.0  # 2^1 - 1 = 1
        assert entries[2].d_n == pytest.approx(math.log(3) / 3, rel=1e-12)
        assert entries[4].d_n == pytest.approx(math.log(5) / 5, rel=1e-12)
        # 2^6-1 = 63 = 9*7: h(3)=2 not 6, h(7)=3 not 6 -> d_6 = 0
        assert entries[6].d_n == 0.0
        assert dist.all_exact

    def test_base2_d3(self):
        dist = order_distribution(2, 3, 100)
        entries = {e.n: e for e in dist.entries}
        assert entries[3].d_n == pytest.approx(math.log(7) / 7, rel=1e-12)

    def test_base2_d11(self):
        # 2^11 - 1 = 2047 = 23 * 89, both with order exactly 11
        dist = order_distribution(2, 11, 100)
        entries = {e.n: e for e in dist.entries}
        expected = math.log(23) / 23 + math.log(89) / 89
        assert entries[11].d_n == pytest.approx(expected, rel=1e-12)
        assert entries[11].exact

    def test_unfactored_flagged(self):
        # 2^37 - 1 = 223 * 616318177; a trial cap below 223 leaves both hidden
        dist = order_distribution(2, 37, 100)
        entries = {e.n: e for e in dist.entries}
        assert not entries[37].exact
        assert entries[37].d_n == 0.0  # certified lower bound

    def test_exact_with_adequate_cap(self):
        dist = order_distribution(2, 20, 10**4)
        assert dist.all_exact
        assert dist.normalized > 0

    def test_exponent_cap(self):
        with pytest.raises(CapacityError):
            order_distribution(2, 100, 100)


def crt_root_count_oracle(f: PolynomialSpec, m: int) -> int:
    """Multiplicative composition over prime powers of m."""
    if m == 1:
        return 1
    total = 1
    for p, e in factorize_trial(m):
        total *= root_count(f, p**e)
    return total


class TestRootCount:
    def test_examples(self):
        assert root_count(PolynomialSpec((0, 1)), 5) == 1
        assert root_count(PolynomialSpec((-1, 0, 1)), 8) == 4  # x^2 = 1 mod 8
        assert root_count(PolynomialSpec((1, 0, 1)), 3) == 0

    def test_crt_composition(self):
        rng = random.Random(12)
        checked = 0
        while checked < 100:
            degree = rng.randint(1, 4)
            coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [
                rng.choice([-3, -2, -1, 1, 2, 3])
            ]
            f = PolynomialSpec(tuple(coeffs))
            m = rng.randint(2, 10**4)
            if math.gcd(f.content, m) != 1:
                continue
            assert root_count(f, m) == crt_root_count_oracle(f, m)
            checked += 1

    def test_content_coprimality_enforced(self):
        with pytest.raises(DomainError):
            root_count(PolynomialSpec((2, 4)), 6)

    def test_ratio(self):
        f = PolynomialSpec((-1, 0, 1))
        assert konyagin_ratio(f, 8) == pytest.approx(4 / (2 * 8**0.5), rel=1e-12)

    def test_modulus_cap(self):
        with pytest.raises(CapacityError):
            root_count(PolynomialSpec((0, 1)), 10**8)


class TestTheorem9Report:
    def test_small_run(self, primes100k):
        estimates = theorem9_report(2, 2, 100, primes100k)
        by_name = {e.name: e for e in estimates}
        prof = representation_counts(PowerTower(2, 2), 100, primes100k)
        representable = density_count(prof, 1)
        scale = math.log(100) ** 0.5 / 100
        assert by_name["c1_empirical"].value == pytest.approx(representable * scale)
        assert by_name["c1_empirical"].value <= by_name["c2_upper_comparison"].value

    def test_three_is_representable(self, primes100k):
        prof = representation_counts(PowerTower(2, 2), 3, primes100k)
        assert prof.r[3] == 1  # 3 = 2 + 2^(0^2)

    def test_two_scale_stability(self, primes100k):
        lo = {e.name: e.value for e in theorem9_report(2, 2, 2**12, primes100k)}
        hi = {e.name: e.value for e in theorem9_report(2, 2, 2**16, primes100k)}
        ratio = hi["c1_empirical"] / lo["c1_empirical"]
        assert 0.5 <= ratio <= 2.0

    def test_csv_roundtrip(self, primes100k):
        prof = representation_counts(Geometric(2, 0), 6, primes100k)
        buf = io.StringIO()
        prof.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,r"
        assert len(lines) == 7
        assert lines[4] == "4,2"

    @pytest.mark.parametrize("x", [0, 10**5])
    def test_csv_matches_line_loop(self, x):
        # 10^5 rows span two formatting chunks
        r = np.random.default_rng(x).integers(0, 2**40, size=x + 1)
        prof = RepresentationProfile(spec=Explicit(()), x=x, r=r)
        buf = io.StringIO()
        prof.write_csv(buf)
        expected = "n,r\n" + "".join(f"{n},{int(r[n])}\n" for n in range(1, x + 1))
        assert buf.getvalue() == expected


class TestSingleEnumeration:
    def test_theorem6_counts_each_curve_order_once(self, primes100k, monkeypatch):
        calls = []
        kernel = elliptic._count_points_prime
        lanes = elliptic._lane_orders

        def counting(curve, p):
            calls.append(p)
            return kernel(curve, p)

        def counting_lanes(curve, ps):
            # lanes left open (0) are counted by the scalar path instead
            orders = lanes(curve, ps)
            calls.extend(int(p) for p, n in zip(ps, orders) if n)
            return orders

        monkeypatch.setattr(elliptic, "_count_points_prime", counting)
        monkeypatch.setattr(elliptic, "_lane_orders", counting_lanes)
        x = 10**4
        theorem6_report(EllipticOrders(EllipticCurve(1, 1)), x, 1.0, primes100k)
        assert len(calls) == primes100k.count_leq(x + 2 * math.sqrt(x) + 1)
        assert len(set(calls)) == len(calls)


class TestOrderDistributionBeyondPrimalityTest:
    def test_uncertifiable_cofactor_is_flagged(self):
        # a cofactor of 10^n - 1 beyond the deterministic Miller-Rabin range
        # cannot be certified; its entry is flagged, not raised
        dist = order_distribution(10, 30, 100)
        assert dist.all_exact is False
        assert [e.n for e in dist.entries] == list(range(1, 31))
        entries = {e.n: e for e in dist.entries}
        assert entries[1].d_n == pytest.approx(math.log(3) / 3, rel=1e-12)


class TestOrderSequenceSkipsPrimalityTest:
    def test_never_asks_is_prime(self, primes100k, monkeypatch):
        # 5000 spans the lanes (from p = 5) and the scalar path (p = 2, 3)
        curve = EllipticCurve(1, 1)
        expected = [
            (int(p), count_points(curve, int(p))) for p in primes100k.upto(5000)
        ]
        calls = []
        monkeypatch.setattr(elliptic, "is_prime", lambda n: calls.append(n))
        assert list(order_sequence(curve, 5000, primes100k).entries) == expected
        assert calls == []


class TestBudgetInByteAdds:
    """budget caps the shift-and-add work: a term a <= x - 2 costs x + 1 - a."""

    def test_single_term_at_large_x_is_counted(self, primes100k):
        # one term, 9592 primes: 10^5 byte adds, far above 10^4
        with pytest.raises(CapacityError, match="100000 byte adds"):
            representation_counts(Explicit((1,)), 10**5, primes100k, budget=10**4)

    def test_boundary(self, primes100k):
        spec, x = Explicit((1, 1, 5, 40)), 1000
        cost = sum(x + 1 - a for a in (1, 1, 5, 40))
        full = representation_counts(spec, x, primes100k)
        exact = representation_counts(spec, x, primes100k, budget=cost)
        assert np.array_equal(exact.r, full.r)
        with pytest.raises(CapacityError):
            representation_counts(spec, x, primes100k, budget=cost - 1)

    def test_terms_above_x_minus_2_cost_nothing(self, primes100k):
        # only terms a <= x - 2 reach the kernel; 999 and 1000 add no work
        prof = representation_counts(Explicit((1, 999, 1000)), 1000, primes100k, budget=1000)
        assert prof.total() == primes100k.count_leq(999)


@st.composite
def frontier_cases(draw):
    """(x, terms): x <= 2000 and a multiset with repeated terms, terms at
    x - 2, x - 1 and x, and at least one term <= x."""
    x = draw(st.integers(2, 2000))
    value = st.sampled_from([a for a in (x - 2, x - 1, x) if a >= 1]) | st.integers(1, x + 3)
    terms = draw(st.lists(value, min_size=1, max_size=40).filter(lambda t: min(t) <= x))
    return x, tuple(terms + terms[: draw(st.integers(0, len(terms)))])


class TestTheorem6PrefixCut:
    """T6 reads N_A, the half count and rho_A off its one list and hands the
    histogram the prefix of terms <= x - 2; Counter and bisect on the drawn
    multiset, and representation_counts, are the oracles."""

    @given(frontier_cases())
    @example((2, (1, 1, 2)))
    @example((3, (1, 2, 3, 3)))
    @example((2000, (1998, 1999, 2000, 1998, 1999, 2000)))
    @settings(max_examples=60, deadline=None)
    def test_statistics_match_plain_counts(self, case):
        x, terms = case
        spec = Explicit(terms)
        gamma1, _, second, *frontier = theorem6_report(spec, x, 1.0, HYP_PRIMES)
        within = sorted(a for a in terms if a <= x)
        assert gamma1.parameters["N_A"] == len(within)
        assert gamma1.parameters["half_count"] == bisect_right(within, x / 2)
        assert second.parameters["rho_A"] == max(Counter(within).values())
        prof = representation_counts(spec, x, HYP_PRIMES)
        assert second.parameters["second_moment"] == second_moment(prof)
        assert [e.parameters["count"] for e in frontier] == [
            density_count(prof, e.parameters["threshold"]) for e in frontier
        ]

    @given(frontier_cases())
    @example((2, (1, 2)))
    @example((2000, (1998, 1999, 2000, 1998)))
    @settings(max_examples=60, deadline=None)
    def test_budget_edge(self, case):
        x, terms = case
        spec = Explicit(terms)
        below = [a for a in terms if a <= x - 2]
        cost = len(below) * (x + 1) - sum(below)
        theorem6_report(spec, x, 1.0, HYP_PRIMES, budget=cost)
        representation_counts(spec, x, HYP_PRIMES, budget=cost)
        if cost:
            message = f"{len(below)} terms cost {cost} byte adds, above budget {cost - 1}"
            for call in (
                lambda: theorem6_report(spec, x, 1.0, HYP_PRIMES, budget=cost - 1),
                lambda: representation_counts(spec, x, HYP_PRIMES, budget=cost - 1),
            ):
                with pytest.raises(CapacityError) as refused:
                    call()
                assert str(refused.value) == message


def hasse_cost_bound(x: int, primes: PrimeList) -> int:
    """Sum of x - q - isqrt(4q) over the primes with q + 1 + isqrt(4q) <= x - 2."""
    return sum(
        x - q - math.isqrt(4 * q)
        for q in map(int, primes.upto(x))
        if q + 1 + math.isqrt(4 * q) <= x - 2
    )


class TestCurveOrdersRefusedUpFront:
    """By Hasse, the primes alone bound the shift-add cost of curve orders
    from below, so a run over the budget exits 3 before any point is
    counted, and no run within the budget is refused."""

    def test_ten_million_exits_three_before_counting(self, monkeypatch):
        def counted(*args):
            raise AssertionError("points were counted")

        monkeypatch.setattr(rom_module, "enumerate_terms", counted)
        argv = ["romanoff", "--report", "frontier", "--seq", "ecorders:1,1"]
        assert run(argv + ["--x", "10000000", "--prime-limit", "10006326"]) == 3

    def test_a_million_is_within_the_default_budget(self, primes1m):
        assert 3 * 10**10 < hasse_cost_bound(10**6, primes1m) < rom_module.DEFAULT_BUDGET
        spec = EllipticOrders(EllipticCurve(1, 1))
        rom_module._refuse_curve_orders(spec, 10**6, 10**6, primes1m, rom_module.DEFAULT_BUDGET)

    @pytest.mark.parametrize("x", [-5, 0, math.nan, math.inf])
    def test_invalid_x_raises_parameter_error(self, x, primes100k):
        spec = EllipticOrders(EllipticCurve(1, 1))
        with pytest.raises(ParameterError):
            theorem6_report(spec, x, 1.0, primes100k, budget=0)

    def test_invalid_alpha_is_reported_as_alpha(self, primes100k):
        spec = EllipticOrders(EllipticCurve(1, 1))
        with pytest.raises(ParameterError, match="alpha"):
            theorem6_report(spec, 3000, 0.0, primes100k, budget=0)

    @pytest.mark.parametrize("alpha", ["0", "-1", "100"])
    def test_bad_alpha_exits_two_before_counting(self, alpha, monkeypatch, capsys):
        # (ln 300000)^100 = 1.19e+110 is beyond any table; the error names the cutoff
        def counted(*args):
            raise AssertionError("points were counted")

        monkeypatch.setattr(rom_module, "enumerate_terms", counted)
        argv = ["romanoff", "--report", "frontier", "--seq", "ecorders:1,1", "--x", "300000"]
        assert run(argv + ["--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err
        assert ("cutoff (ln x)^alpha=1.19" in err) == (alpha == "100")

    def test_bad_alpha_is_refused_before_the_terms(self, primes100k, monkeypatch):
        def counted(*args):
            raise AssertionError("points were counted")

        monkeypatch.setattr(rom_module, "enumerate_terms", counted)
        with pytest.raises(ParameterError, match="alpha"):
            theorem6_report(EllipticOrders(EllipticCurve(1, 1)), 3000, 0.0, primes100k)

    def test_table_for_x_minus_2_is_enough(self, monkeypatch):
        # representation_counts enumerates to x - 2, so a table that covers
        # those terms but not the terms to x still gets the up-front refusal
        x = 3000
        primes = PrimeList.build(elliptic_prime_bound(x - 2))
        assert primes.limit < elliptic_prime_bound(x)

        def counted(*args):
            raise AssertionError("points were counted")

        monkeypatch.setattr(rom_module, "enumerate_terms", counted)
        with pytest.raises(CapacityError):
            representation_counts(EllipticOrders(EllipticCurve(1, 1)), x, primes, budget=0)

    @pytest.mark.parametrize("step", [1, 7, 64, sieve_module._PRIME_STEP])
    def test_bound_is_the_same_at_every_step(self, step, primes100k, monkeypatch):
        # the 448 = 7 * 64 primes up to 3167 end a step of 1, 7 and 64
        spec = EllipticOrders(EllipticCurve(1, 1))
        least = hasse_cost_bound(3167, primes100k)
        monkeypatch.setattr(sieve_module, "_PRIME_STEP", step)
        rom_module._refuse_curve_orders(spec, 3167, 3165, primes100k, least)
        with pytest.raises(CapacityError, match=f"at least {least} byte adds"):
            rom_module._refuse_curve_orders(spec, 3167, 3165, primes100k, least - 1)

    def test_short_table_still_raises_range_error(self):
        spec = EllipticOrders(EllipticCurve(1, 1))
        with pytest.raises(RangeError):
            theorem6_report(spec, 3000, 1.0, PrimeList.build(3000), budget=0)

    @pytest.mark.parametrize("A,B", [(1, 1), (0, 7), (-41, -35)])
    @pytest.mark.parametrize("x", [3, 4, 40, 3000])
    def test_bound_is_below_the_cost(self, A, B, x, primes100k, monkeypatch):
        spec = EllipticOrders(EllipticCurve(A, B))
        terms = enumerate_terms(spec, x - 2, primes100k)
        cost = len(terms) * (x + 1) - sum(terms)
        least = hasse_cost_bound(x, primes100k)
        assert least <= cost
        representation_counts(spec, x, primes100k, budget=cost)
        if x >= 40:
            theorem6_report(spec, x, 1.0, primes100k, budget=cost)
        if least:

            def counted(*args):
                raise AssertionError("points were counted")

            monkeypatch.setattr(rom_module, "enumerate_terms", counted)
            with pytest.raises(CapacityError):
                representation_counts(spec, x, primes100k, budget=least - 1)
            with pytest.raises(CapacityError):
                theorem6_report(spec, x, 1.0, primes100k, budget=least - 1)


class TestNegativeBudget:
    """A negative budget is a usage error, raised where each shift-add report
    first reads it, before any term or table; a budget of 0 stays a capacity
    limit (above)."""

    REPORTS = {
        "profile": lambda primes: representation_counts(Geometric(2, 0), 1000, primes, budget=-1),
        "frontier": lambda primes: theorem6_report(Geometric(2, 0), 1000, 1.0, primes, budget=-1),
        "theorem9": lambda primes: theorem9_report(2, 2, 1000, primes, budget=-1),
    }

    @pytest.mark.parametrize("report", sorted(REPORTS))
    def test_raises_parameter_error_before_any_term(self, report, primes100k, monkeypatch):
        def built(*args):
            raise AssertionError("a term or table was built")

        monkeypatch.setattr(rom_module, "enumerate_terms", built)
        monkeypatch.setattr(rom_module, "_odd_indicator", built)
        with pytest.raises(ParameterError, match="budget=-1 must be >= 0"):
            self.REPORTS[report](primes100k)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--report", "frontier", "--seq", "geom:2", "--x", "1000"],
            ["--report", "profile", "--seq", "geom:2", "--x", "1000"],
            ["--report", "theorem9", "--x", "1000"],
        ],
    )
    def test_cli_exits_two(self, argv, capsys):
        assert run(["romanoff", *argv, "--budget", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: budget=-1 must be >= 0\n")


# --- the kernels these reports replaced, kept as oracles ----------------------


def pi2_searchsorted(x, a, primes):
    """pi_2(x, a) by one binary search of the prime table per shifted prime."""
    ps = primes.upto(x)
    shifted = ps + a
    idx = np.searchsorted(primes.values, shifted)
    idx[idx >= len(primes.values)] = len(primes.values) - 1
    return int(np.count_nonzero(primes.values[idx] == shifted))


def order_distribution_integer_trial(a, z, trial_cap):
    """(n, d_n, exact) for n <= z, trial-dividing a^n - 1 by every integer
    2, 3, ..., trial_cap until d * d exceeds the cofactor."""
    out = []
    for n in range(1, z + 1):
        m = a**n - 1
        found = []
        exact = True
        for d in range(2, trial_cap + 1):
            if d * d > m:
                break
            if m % d == 0:
                found.append(d)
                while m % d == 0:
                    m //= d
        if m > 1:
            try:
                certified = m <= trial_cap * trial_cap or is_prime(m)
            except CapacityError:
                certified = False
            if certified:
                found.append(m)
            else:
                exact = False
        d_n = math.fsum(
            math.log(p) / p for p in found if rom_module._order_is_exactly(a, p, n)
        )
        out.append((n, d_n, exact))
    return out


def representable_by_histogram(a, b, x, primes):
    """#{n <= x : r(n) > 0} as x minus the zero cell of the r histogram."""
    terms = enumerate_terms(PowerTower(a, b), x - 2)
    return x - int(rom_module._histogram(terms, x, primes, rom_module.DEFAULT_BUDGET)[0])


class TestSchnirelmannAgainstBinarySearch:
    """pi_2 looks each p + a up in the odd-prime indicator; the binary search
    of the prime table per shifted prime is the oracle."""

    @given(st.integers(2, 2900), st.integers(1, 100))
    @example(2, 1)
    @example(2, 2)
    @example(3, 2)
    @example(2900, 100)
    @settings(max_examples=150, deadline=None)
    def test_matches_binary_search(self, x, a):
        assert schnirelmann_pi2(x, a, HYP_PRIMES).count == pi2_searchsorted(x, a, HYP_PRIMES)

    @pytest.mark.parametrize("a", [1, 3, 5, 9, 11, 2, 4, 6, 30, 210])
    def test_odd_and_even_shifts(self, a, primes100k):
        x = 5 * 10**4
        got = schnirelmann_pi2(x, a, primes100k)
        expected = pi2_searchsorted(x, a, primes100k)
        assert got.count == expected
        assert got.normalized == expected * math.log(x) ** 2 * sieve_module.totient_trial(a) / (x * a)

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 10, 11, 58])
    def test_x_at_the_table_limit(self, a, primes100k):
        for primes in (HYP_PRIMES, primes100k):
            x = primes.limit - a
            assert schnirelmann_pi2(x, a, primes).count == pi2_searchsorted(x, a, primes)
            with pytest.raises(RangeError):
                schnirelmann_pi2(x + 1, a, primes)

    def test_shift_one_counts_only_p_equal_two(self):
        for x in (2, 3, 4, 2999):
            assert schnirelmann_pi2(x, 1, HYP_PRIMES).count == 1

    @pytest.mark.parametrize("x", [2, 10.5, 999.9, 2000.0])
    def test_float_x(self, x):
        assert schnirelmann_pi2(x, 2, HYP_PRIMES).count == pi2_searchsorted(x, 2, HYP_PRIMES)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_lookup_chunks(self, chunk, monkeypatch):
        # the indicator fill and the lookups both step _PRIME_STEP primes
        expected = [pi2_searchsorted(2900, a, HYP_PRIMES) for a in (2, 6, 100)]
        monkeypatch.setattr(sieve_module, "_PRIME_STEP", chunk)
        assert [schnirelmann_pi2(2900, a, HYP_PRIMES).count for a in (2, 6, 100)] == expected


class TestTheorem9NonzeroCells:
    """T9 counts the nonzero cells of the windows; x minus the zero cell of
    the r histogram, and the scatter loop, are the oracles."""

    @given(st.integers(2, 12), st.integers(2, 4), st.integers(3, 3000), st.sampled_from(WINDOWS))
    @example(2, 2, 3, 1)
    @example(2, 2, 3000, 7)
    @example(3, 2, 2187, 64)
    @settings(max_examples=60, deadline=None)
    def test_matches_histogram_over_windows(self, a, b, x, window):
        expected = representable_by_histogram(a, b, x, HYP_PRIMES)
        spec = Explicit(tuple(enumerate_terms(PowerTower(a, b), x)))
        assert np.count_nonzero(scatter_oracle(spec, x, HYP_PRIMES)[1:]) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rom_module, "_WINDOW", window)
            got = theorem9_report(a, b, x, HYP_PRIMES)
        assert got[0].parameters["representable"] == expected

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("x", [3, 4, 5, 6, 7, 8, 9, 10])
    def test_every_small_x(self, x, window, monkeypatch):
        expected = representable_by_histogram(2, 2, x, HYP_PRIMES)
        monkeypatch.setattr(rom_module, "_WINDOW", window)
        assert theorem9_report(2, 2, x, HYP_PRIMES)[0].parameters["representable"] == expected

    @given(term_multisets(), st.sampled_from(WINDOWS))
    @example((10, (1,) * 300), 7)
    @example((3000, tuple(range(1, 129))), 64)
    @settings(max_examples=40, deadline=None)
    def test_nonzero_cells_of_any_term_set(self, case, window):
        # uint8 blocks and int32 windows alike: the n = 0 cell is always zero
        x, terms = case
        terms = [a for a in terms if a <= x - 2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rom_module, "_WINDOW", window)
            cells = rom_module._shift_add_windows(terms, x, HYP_PRIMES, rom_module.DEFAULT_BUDGET)
            nonzero = sum(int(np.count_nonzero(counts)) for _, counts in cells)
        hist = rom_module._histogram(terms, x, HYP_PRIMES, rom_module.DEFAULT_BUDGET)
        assert nonzero == x - int(hist[0])

    def test_budget_still_refuses(self, primes100k):
        with pytest.raises(CapacityError):
            theorem9_report(2, 2, 10**5, primes100k, budget=10)


def assert_order_distribution_matches(a, z, trial_cap):
    dist = order_distribution(a, z, trial_cap)
    got = [(e.n, e.d_n, e.exact) for e in dist.entries]
    assert got == order_distribution_integer_trial(a, z, trial_cap)
    return dist


class TestOrderDistributionOverPrimes:
    """order_distribution trial-divides by primes only; the loop over every
    integer up to trial_cap is the oracle, flags and d_n bit for bit."""

    @pytest.mark.parametrize("trial_cap", [2, 3, 100, 2 * 10**4])
    @pytest.mark.parametrize("a", [2, 3, 10, 12])
    def test_bases_to_z_forty(self, a, trial_cap):
        assert_order_distribution_matches(a, 40, trial_cap)

    @pytest.mark.parametrize("a,z", [(2, 26), (3, 16), (10, 8), (12, 7)])
    def test_trial_cap_above_the_square_root(self, a, z):
        root = math.isqrt(a**z - 1)
        for trial_cap in (root, root + 1, 2 * root):
            dist = assert_order_distribution_matches(a, z, trial_cap)
            assert dist.all_exact
        # the table stops at root however far the cap reaches
        assert order_distribution(a, z, 10**9).entries == dist.entries

    @given(st.integers(2, 60), st.integers(1, 14), st.integers(2, 3000))
    @example(2, 1, 2)
    @example(3, 1, 2)
    @example(2**21, 3, 3000)  # 2^63 - 1: the largest value of the int64 path
    @example(2**21 + 1, 3, 3000)  # past 2^63: the Python path
    @settings(max_examples=80, deadline=None)
    def test_matches_integer_trial(self, a, z, trial_cap):
        assert_order_distribution_matches(a, z, trial_cap)

    def test_int64_and_python_paths_meet_at_two_to_the_63(self):
        # 3^39 < 2^63 < 3^40: the last exponent goes through the Python loop
        assert 3**39 < 2**63 < 3**40
        assert_order_distribution_matches(3, 40, 2 * 10**4)

    def test_uncertified_cofactor_is_flagged(self):
        # cap 100 leaves composite cofactors (10^7 - 1 keeps 239 * 4649) and
        # cofactors beyond the deterministic Miller-Rabin range; both are flagged
        dist = assert_order_distribution_matches(10, 30, 100)
        kinds = set()
        for e in dist.entries:
            m = 10**e.n - 1
            for d in range(2, 101):
                while m % d == 0:
                    m //= d
            try:
                kinds.add((e.exact, m <= 100 * 100 or is_prime(m)))
            except CapacityError:
                kinds.add((e.exact, "beyond"))
        assert kinds == {(True, True), (False, False), (False, "beyond")}

    def test_trial_cap_past_the_table_cap_exits_three(self):
        # min(trial_cap, isqrt(10^30 - 1)) = 10^8 + 1 is past PrimeList's cap
        with pytest.raises(CapacityError, match="prime table limit"):
            order_distribution(10, 30, 10**8 + 1)
        argv = ["romanoff", "--report", "order-dist", "--a", "10", "--z", "30"]
        assert run(argv + ["--trial-cap", str(10**8 + 1)]) == 3

    def test_large_trial_cap_with_a_small_root_runs(self):
        # isqrt(2^40 - 1) = 2^20 - 1 bounds the table, whatever the cap
        assert order_distribution(2, 40, 10**12).entries == order_distribution(2, 40, 2**20).entries


class TestIntegerParameters:
    """Integer parameters go through sieve.check_integer: a float, integral
    or not, raises ParameterError rather than being truncated or failing
    inside numpy."""

    def test_order_weighted_sum(self, primes100k):
        with pytest.raises(ParameterError):
            order_weighted_sum(2.5, 2, 100, primes100k)
        with pytest.raises(ParameterError):
            order_weighted_sum(2, 2.0, 100, primes100k)
        assert order_weighted_sum(np.int64(2), 2, 100, primes100k) == order_weighted_sum(
            2, 2, 100, primes100k
        )

    def test_schnirelmann_shift(self, primes100k):
        with pytest.raises(ParameterError):
            schnirelmann_pi2(100, 2.0, primes100k)
        assert schnirelmann_pi2(100, np.int64(2), primes100k).count == 8

    @pytest.mark.parametrize("args", [(2.0, 10, 100), (2, 10.0, 100), (2, 10, 100.0), (2, 10, 1e9)])
    def test_order_distribution(self, args):
        with pytest.raises(ParameterError):
            order_distribution(*args)

    def test_report_x(self, primes100k):
        squares = Polynomial(PolynomialSpec((0, 0, 1)))
        with pytest.raises(ParameterError):
            theorem9_report(2, 2, 1000.5, primes100k)
        with pytest.raises(ParameterError):
            theorem9_report(2.0, 2, 1000, primes100k)
        with pytest.raises(ParameterError):
            theorem6_report(squares, 1000.5, 1.0, primes100k)
        with pytest.raises(ParameterError):
            representation_counts(squares, 1000.5, primes100k)
        x = np.int64(1000)
        assert np.array_equal(
            representation_counts(squares, x, primes100k).r,
            representation_counts(squares, 1000, primes100k).r,
        )
