import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romanoff_lab import elliptic
from romanoff_lab import romanoff as rom_module
from romanoff_lab import sieve as sieve_module
from romanoff_lab.elliptic import EllipticCurve, count_points, order_sequence
from romanoff_lab.errors import CapacityError, DomainError, RangeError
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
    """(x, terms): x small or up to 3000; a term count around the int8 block
    size; terms drawn freely, pinned to x - 2, or one value repeated."""
    x = draw(st.sampled_from([1, 2, 3, 4, 5]) | st.integers(6, 3000))
    n = draw(st.sampled_from([0, 1, 126, 127, 128, 254, 255, 300]) | st.integers(0, 400))
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
        x, terms = case
        spec = Explicit(terms)
        prof = representation_counts(spec, x, HYP_PRIMES)
        assert prof.r.dtype == np.int64
        assert np.array_equal(prof.r, scatter_oracle(spec, x, HYP_PRIMES))


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

    def test_geometric_density_at_small_c1(self, primes100k):
        # a desk-scale density run: more than 5% of n <= 2^16 clear the
        # r(n) >= 0.05 N_A/ln x threshold
        x = 2**16
        prof = representation_counts(Geometric(2, 0), x, primes100k)
        from romanoff_lab.sequences import count_terms

        threshold = 0.05 * count_terms(Geometric(2, 0), x) / math.log(x)
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
        # 5000 spans both the character sum and BSGS (from p = 4096)
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
