"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full suite takes on the order of a minute.  Empirical values
measured once at desk scale are frozen here with the stated tolerances.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from romanoff_lab import elliptic as ell
from romanoff_lab import lemmas as lem
from romanoff_lab import moments as mom
from romanoff_lab import romanoff as rom
from romanoff_lab import sequences as seq
from romanoff_lab.cli import run
from romanoff_lab.extremal import construct_extremal_set
from romanoff_lab.sieve import totient, totient_table

# profiles produced while the suite runs; criterion 13 sweeps them all
GENERATED_PROFILES = []


def make_profile(spec, x, primes, **kwargs):
    profile = rom.representation_counts(spec, x, primes, **kwargs)
    GENERATED_PROFILES.append(profile)
    return profile


def report(cid, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid:>2} {tag} {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_01_totient_oracles(sieve1m):
    start = time.monotonic()
    sieve = sieve1m
    # brute-force gcd counting for every n <= 1e4
    for n in range(1, 10**4 + 1):
        brute = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
        assert totient(n, sieve) == brute, n
    # multiplicative identity phi(n) = n prod (1 - 1/p) for every n <= 1e6:
    # the vectorized product table against the spf recurrence
    table = totient_table(10**6)
    spf = sieve.spf
    recurrence = np.ones(10**6 + 1, dtype=np.int64)
    recurrence[0] = 0
    for n in range(2, 10**6 + 1):
        p = int(spf[n])
        m = n // p
        recurrence[n] = recurrence[m] * (p if m % p == 0 else p - 1)
    assert np.array_equal(table[1:], recurrence[1:])
    # and the identity in exact rational arithmetic on a sample
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(1, 10**6)
        product = Fraction(n)
        for p in sieve.distinct_primes(n):
            product *= Fraction(p - 1, p)
        assert product == int(table[n])
    elapsed = time.monotonic() - start
    report(1, elapsed < 30.0, f"totient oracles agree; {elapsed:.1f}s < 30s")


def test_criterion_02_moment_sum_bounds(sieve1m):
    rng = random.Random(1)
    for _ in range(1000):
        values = [rng.randint(1, 10**6) for _ in range(rng.randint(1, 100))]
        s = rng.randint(1, 3)
        assert mom.moment_sum(values, s, sieve1m) >= len(values)
    # implied constant finite and stable within a factor of 2 across scales
    worst_spread = 0.0
    for s in (1, 2, 3):
        implied = []
        for n in (10**3, 10**4, 10**5):
            rep = mom.theorem1_report(
                list(range(1, n + 1)), s, 0.5, float(n), sieve1m
            )
            assert math.isfinite(rep.implied_constant)
            implied.append(rep.implied_constant)
        spread = max(implied) / min(implied)
        worst_spread = max(worst_spread, spread)
        assert spread <= 2.0, (s, implied)
    report(2, True, f"moment sums >= N; stability spread {worst_spread:.3f} <= 2")


def test_criterion_03_large_prime_product(sieve1m, primes1m):
    start = time.monotonic()
    table = mom.lemma2_product_table(10**6, primes1m)
    peak = float(table[1:].max())
    # the sweep is a different route than the per-n product; cross-check
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        assert table[n] == pytest.approx(mom.lemma2_check(n, sieve1m), rel=1e-9)
    elapsed = time.monotonic() - start
    ok = peak < 5.0 and elapsed < 60.0
    report(3, ok, f"max product {peak} < 5 (peak at n=6); {elapsed:.1f}s < 60s")


def test_criterion_04_gamma_bound_grid():
    violations = 0
    for s in range(1, 13):
        x = 1.0
        while x <= 50.0:
            gv = lem.incomplete_gamma(s, x)
            if gv.value > gv.bound:
                violations += 1
            x += 0.25
    report(4, violations == 0, f"{violations} violations on the (s, x) grid")


def test_criterion_05_extremal_construction(sieve1m):
    start = time.monotonic()
    result = construct_extremal_set(10**6, 2.2, 6.9, sieve1m)
    members = np.asarray(result.members)
    ok = (
        result.Q == 15
        and result.count == 33333
        and not np.any(members % 2 == 0)
        and np.all(members % 3 == 0)
        and np.all(members % 5 == 0)
        and result.mean_ratio >= Fraction(15, 8)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(
        5,
        ok,
        f"Q=15, #A=33333, mean ratio {float(result.mean_ratio):.4f} >= 15/8; "
        f"{elapsed:.1f}s < 5s",
    )


def test_criterion_06_elliptic_oracle(primes1m):
    start = time.monotonic()
    ps = [int(p) for p in primes1m.upto(200)]
    y_squares = {p: (np.arange(p, dtype=np.int64) ** 2) % p for p in ps}
    min_margin = math.inf
    for A in range(-5, 6):
        for B in range(-5, 6):
            if 4 * A**3 + 27 * B**2 == 0:
                continue
            curve = ell.EllipticCurve(A, B)
            for p in ps:
                xs = np.arange(p, dtype=np.int64)
                rhs = ((xs * xs) % p * xs + A * xs + B) % p
                # full O(p^2) enumeration: every (x, y) pair is compared
                brute = 1 + int(
                    np.count_nonzero(y_squares[p][None, :] == rhs[:, None])
                )
                assert ell.count_points(curve, p) == brute, (A, B, p)
                margin = 2.0 * math.sqrt(p) - abs(brute - (p + 1))
                min_margin = min(min_margin, margin)
                assert (math.sqrt(p) - 1) ** 2 < brute < (math.sqrt(p) + 1) ** 2
    elapsed = time.monotonic() - start
    ok = min_margin > 0 and elapsed < 60.0
    report(
        6,
        ok,
        f"point counts match enumeration; min Hasse margin {min_margin:.3f} > 0; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_07_curve_moment_stability(sieve1m, primes1m):
    curve = ell.EllipticCurve(1, 1)
    orders5 = ell.order_sequence(curve, 10**5, primes1m)
    upto4 = orders5.primes <= 10**4
    orders4 = ell.OrderSequence(
        curve=curve,
        x=10**4,
        primes=orders5.primes[upto4],
        counts=orders5.counts[upto4],
    )
    ratios = {}
    for s in (1, 2):
        r4 = ell.theorem5_report(curve, 10**4, s, sieve1m, primes1m, orders=orders4)
        r5 = ell.theorem5_report(curve, 10**5, s, sieve1m, primes1m, orders=orders5)
        assert r4.lhs >= r4.rhs_core and r5.lhs >= r5.rhs_core
        drift = abs(r5.implied_constant / r4.implied_constant - 1.0)
        assert drift < 0.20, (s, drift)
        ratios[s] = (r4.implied_constant, r5.implied_constant)
    report(
        7,
        True,
        "sum >= pi(x) exactly; ratios "
        + ", ".join(
            f"s={s}: {a:.3f}->{b:.3f}" for s, (a, b) in sorted(ratios.items())
        ),
    )


def test_criterion_08_profile_oracle(primes1m):
    rng = random.Random(3)
    explicit = seq.Explicit(tuple(sorted(rng.randint(1, 400) for _ in range(30))))
    specs = [
        seq.Geometric(2, 0),
        seq.PowerTower(2, 2),
        seq.Polynomial(mom.PolynomialSpec((0, 0, 1))),
        explicit,
    ]
    for spec in specs:
        for x in (1, 2, 3, 17, 100, 500):
            profile = make_profile(spec, x, primes1m)
            oracle = [0] * (x + 1)
            terms = seq.enumerate_terms(spec, max(x - 2, 1), primes1m) if x >= 3 else []
            ps = [int(p) for p in primes1m.upto(x)] if x >= 2 else []
            for a in terms:
                for p in ps:
                    if p + a <= x:
                        oracle[p + a] += 1
            assert list(profile.r) == oracle, (spec, x)
    # pair-count identity at scale, exactly
    profile = make_profile(seq.Geometric(2, 0), 10**5, primes1m)
    expected = sum(
        primes1m.count_leq(10**5 - a)
        for a in seq.enumerate_terms(seq.Geometric(2, 0), 10**5 - 2)
    )
    report(
        8,
        profile.total() == expected,
        f"profiles match the pair loop; sum r = {profile.total()} exactly",
    )


# densities measured once at x = 1e5 and pinned within 10%
FROZEN_SQUARE_DENSITY = 0.99762
FROZEN_CUBE_DENSITY = 0.97005


def test_criterion_09_polynomial_witness(primes1m):
    frozen = {2: FROZEN_SQUARE_DENSITY, 3: FROZEN_CUBE_DENSITY}
    densities = {}
    for k in (2, 3):
        coeffs = (0,) * k + (1,)
        profile = make_profile(
            seq.Polynomial(mom.PolynomialSpec(coeffs)), 10**5, primes1m
        )
        assert profile.r[3] >= 1  # 3 = 2 + R(1)
        density = rom.density_count(profile, 1) / 10**5
        assert density >= 0.2
        assert abs(density / frozen[k] - 1.0) <= 0.10, (k, density)
        densities[k] = density
    report(
        9,
        True,
        f"r(3) >= 1; densities {densities[2]:.4f}, {densities[3]:.4f} "
        "within 10% of pinned values",
    )


def test_criterion_10_shifted_primes(primes1m):
    assert rom.schnirelmann_pi2(10, 2, primes1m).count == 2
    assert rom.schnirelmann_pi2(100, 2, primes1m).count == 8
    values = {}
    for a in (2, 4, 6, 30):
        out = rom.schnirelmann_pi2(10**6, a, primes1m)
        assert out.normalized > 0 and math.isfinite(out.normalized)
        values[a] = out.normalized
    report(
        10,
        True,
        "pi2(100,2)=8, pi2(10,2)=2; normalized "
        + ", ".join(f"a={a}: {v:.3f}" for a, v in sorted(values.items())),
    )


def test_criterion_11_multiplicative_orders(sieve1m, primes1m):
    assert rom.multiplicative_order(2, 7) == 3
    assert rom.multiplicative_order(3, 7) == 6
    rng = random.Random(4)
    plist = [int(p) for p in primes1m.upto(10**5)]
    checked = 0
    while checked < 10**4:
        p = plist[rng.randrange(len(plist))]
        a = rng.randint(2, 10**6)
        if a % p == 0:
            continue
        h = rom.multiplicative_order(a, p, sieve1m)
        assert (p - 1) % h == 0, (a, p, h)
        checked += 1
    s4 = rom.order_weighted_sum(2, 2, 10**4, primes1m, sieve1m)
    s5 = rom.order_weighted_sum(2, 2, 10**5, primes1m, sieve1m)
    growth = (s5 - s4) / s4
    ok = 0 <= growth < 0.10
    report(11, ok, f"orders divide p-1; sum growth {growth:.4f} < 10%")


# the sampling plan below reproduces this maximum; measured once and pinned
FROZEN_KONYAGIN_FAMILY_MAX = 1.0


def test_criterion_12_root_count_crt():
    from romanoff_lab.sieve import factorize_trial

    rng = random.Random(0)
    worst = 0.0
    checked = 0
    while checked < 100:
        degree = rng.randint(1, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [
            rng.choice([-3, -2, -1, 1, 2, 3])
        ]
        f = mom.PolynomialSpec(tuple(coeffs))
        m = rng.randint(2, 10**4)
        if math.gcd(f.content, m) != 1:
            continue
        direct = rom.root_count(f, m)
        composed = 1
        for p, e in factorize_trial(m):
            composed *= rom.root_count(f, p**e)
        assert direct == composed, (f.coeffs, m)
        worst = max(worst, rom.konyagin_ratio(f, m))
        checked += 1
    ok = worst <= FROZEN_KONYAGIN_FAMILY_MAX + 1e-12
    report(12, ok, f"CRT composition exact; family max ratio {worst:.4f}")


def test_criterion_13_cauchy_schwarz():
    assert GENERATED_PROFILES, "earlier criteria populate the profile pool"
    for profile in GENERATED_PROFILES:
        total = profile.total()
        support = rom.density_count(profile, 1)
        assert total * total <= support * rom.second_moment(profile), profile.spec
    report(
        13,
        True,
        f"(sum r)^2 <= support * sum r^2 on all {len(GENERATED_PROFILES)} profiles",
    )


def test_criterion_14_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run(["verify-all", "--seed", "0", "--out", str(first)]) == 0
    assert run(["verify-all", "--seed", "0", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report(14, identical, "verify-all --seed 0 is byte-identical across runs")
