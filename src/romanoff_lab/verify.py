"""Deterministic desk-scale verification battery behind `verify-all`.

Runs a reduced-scale version of every check in the acceptance suite and
returns one JSON-ready record per criterion.  Identical seeds produce
byte-identical reports: no timestamps, no unsorted containers, no
platform-dependent iteration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import elliptic as ell
from . import extremal as ext
from . import lemmas as lem
from . import moments as mom
from . import romanoff as rom
from . import sequences as seq
from .errors import ParameterError
from .sieve import (
    PrimeList,
    build_sieve,
    chebyshev_theta,
    factorize_trial,
    totient,
    totient_table,
)

BATTERY_VERSION = 1


def _criterion(cid: int, name: str, ok: bool, **details) -> dict:
    return {"id": cid, "name": name, "pass": bool(ok), "details": details}


def verify_all(seed: int = 0) -> dict:
    rng = random.Random(seed)
    sieve = build_sieve(10**5)
    primes = PrimeList.build(2 * 10**5)
    criteria = []

    # 1. totient against the gcd-counting oracle and the multiplicative table
    ns = np.arange(1, 2001)
    brute = np.array(
        [int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1)) for n in ns]
    )
    by_sieve = np.array([totient(int(n), sieve) for n in ns])
    table = totient_table(10**5)
    table_ok = all(
        totient(n, sieve) == int(table[n])
        for n in rng.sample(range(1, 10**5 + 1), 2000)
    )
    criteria.append(
        _criterion(
            1,
            "totient_oracles",
            bool(np.array_equal(brute, by_sieve)) and table_ok,
            checked_brute=int(len(ns)),
            checked_table=2000,
        )
    )

    # 2. moment sums: exact lower bound and implied-constant stability
    ok2 = True
    for _ in range(200):
        values = [rng.randint(1, 10**5) for _ in range(rng.randint(1, 40))]
        ok2 = ok2 and mom.moment_sum(values, rng.randint(1, 3), sieve) >= len(values)
    implied = {}
    for n in (10**3, 10**4):
        rep = mom.theorem1_report(list(range(1, n + 1)), 1, 0.5, float(n), sieve)
        implied[n] = rep.implied_constant
    ratio = implied[10**4] / implied[10**3]
    ok2 = ok2 and 0.5 <= ratio <= 2.0
    criteria.append(
        _criterion(
            2,
            "moment_sum_bounds",
            ok2,
            implied_1e3=implied[10**3],
            implied_1e4=implied[10**4],
            stability_ratio=ratio,
        )
    )

    # 3. large-prime totient product stays below 5
    table3 = mom.lemma2_product_table(10**5, primes)
    peak = float(table3[1:].max())
    criteria.append(_criterion(3, "large_prime_product_max", peak < 5.0, max=peak))

    # 4. incomplete gamma bound on the full lemmas.gamma_bound_grid grid up to x = 50
    grids = [lem.gamma_bound_grid(s, 50.0) for s in range(1, 13)]
    worst = max(w for w, _ in grids)
    ok4 = all(ok for _, ok in grids)
    criteria.append(_criterion(4, "gamma_bound_grid", ok4, worst_ratio=worst))

    # 5. extremal construction at the reference window
    ext5 = ext.construct_extremal_set(10**5, 2.2, 6.9, sieve)
    ok5 = (
        ext5.Q == 15
        and ext5.count == 3333
        and all(n % 2 for n in ext5.members)
        and all(n % 15 == 0 for n in ext5.members)
        and ext5.mean_ratio >= Fraction(15, 8)
    )
    criteria.append(
        _criterion(
            5,
            "extremal_construction",
            ok5,
            Q=ext5.Q,
            count=ext5.count,
            mean_ratio=ext5.mean_ratio,
        )
    )

    # 6. point counts against full enumeration; Hasse margin positive
    ok6 = True
    min_margin = math.inf
    for A in range(-3, 4):
        for B in range(-3, 4):
            try:
                curve = ell.EllipticCurve(A, B)
            except ParameterError:  # singular: zero discriminant
                continue
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
                count = ell.count_points(curve, p)
                ok6 = ok6 and count == ell._count_points_bruteforce(curve, p)
                margin = ell.hasse_margin(curve, p, count)
                min_margin = min(min_margin, margin)
    ok6 = ok6 and min_margin > 0
    criteria.append(
        _criterion(6, "elliptic_point_count_oracle", ok6, min_hasse_margin=min_margin)
    )

    # 7. curve moment sum dominates pi(x)
    rep7 = ell.theorem5_report(ell.EllipticCurve(1, 1), 10**4, 1, sieve, primes)
    criteria.append(
        _criterion(
            7,
            "curve_moment_vs_pi",
            rep7.lhs >= rep7.rhs_core,
            ratio=rep7.implied_constant,
        )
    )

    # 8. representation profiles against the exhaustive pair loop
    ok8 = True
    explicit = seq.Explicit(tuple(sorted(rng.randint(1, 250) for _ in range(15))))
    for spec in (
        seq.Geometric(2, 0),
        seq.PowerTower(2, 2),
        seq.Polynomial(mom.PolynomialSpec((0, 0, 1))),
        explicit,
    ):
        for x in (50, 300):
            prof = rom.representation_counts(spec, x, primes)
            oracle = [0] * (x + 1)
            for a in seq.enumerate_terms(spec, max(x - 2, 1), primes):
                for p in primes.upto(x):
                    if int(p) + a <= x:
                        oracle[int(p) + a] += 1
            ok8 = ok8 and list(prof.r) == oracle
    spec8 = seq.Geometric(2, 0)
    prof8 = rom.representation_counts(spec8, 10**4, primes)
    identity = prof8.total() == sum(
        primes.count_leq(10**4 - a) for a in seq.enumerate_terms(spec8, 10**4 - 2)
    )
    ok8 = ok8 and identity
    criteria.append(_criterion(8, "representation_profile_oracle", ok8))

    # 9. squares witness: r(3) >= 1 and positive representable density
    prof9 = rom.representation_counts(
        seq.Polynomial(mom.PolynomialSpec((0, 0, 1))), 10**4, primes
    )
    density9 = rom.density_count(prof9, 1) / 10**4
    criteria.append(
        _criterion(
            9,
            "square_sequence_density",
            prof9.r[3] >= 1 and density9 >= 0.2,
            density=density9,
        )
    )

    # 10. shifted-prime counts
    ok10 = (
        rom.schnirelmann_pi2(100, 2, primes).count == 8
        and rom.schnirelmann_pi2(10, 2, primes).count == 2
    )
    normalized = {}
    for a in (2, 4, 6, 30):
        out = rom.schnirelmann_pi2(10**5, a, primes)
        normalized[str(a)] = out.normalized
        ok10 = ok10 and out.normalized > 0 and math.isfinite(out.normalized)
    criteria.append(
        _criterion(10, "shifted_prime_counts", ok10, normalized=normalized)
    )

    # 11. multiplicative orders divide p - 1; order-weighted sum stabilizes
    ok11 = (
        rom.multiplicative_order(2, 7) == 3 and rom.multiplicative_order(3, 7) == 6
    )
    plist = [int(p) for p in primes.upto(10**4)]
    for _ in range(500):
        p = plist[rng.randrange(len(plist))]
        a = rng.randint(2, 10**5)
        if a % p == 0:
            continue
        h = rom.multiplicative_order(a, p, sieve)
        ok11 = ok11 and (p - 1) % h == 0
    s_lo = rom.order_weighted_sum(2, 2, 10**3, primes, sieve)
    s_hi = rom.order_weighted_sum(2, 2, 10**4, primes, sieve)
    growth = (s_hi - s_lo) / s_lo
    ok11 = ok11 and 0 <= growth < 0.2
    criteria.append(
        _criterion(11, "multiplicative_orders", ok11, sum_growth=growth)
    )

    # 12. root counts compose multiplicatively over prime powers
    ok12 = True
    worst_ratio = 0.0
    checked = 0
    while checked < 30:
        degree = rng.randint(1, 4)
        coeffs = [rng.randint(-15, 15) for _ in range(degree)] + [
            rng.choice([-2, -1, 1, 2])
        ]
        f = mom.PolynomialSpec(tuple(coeffs))
        m = rng.randint(2, 2000)
        if math.gcd(f.content, m) != 1:
            continue
        direct = rom.root_count(f, m)
        composed = 1
        for p, e in factorize_trial(m):
            composed *= rom.root_count(f, p**e)
        ok12 = ok12 and direct == composed
        worst_ratio = max(worst_ratio, rom.konyagin_ratio(f, m))
        checked += 1
    criteria.append(
        _criterion(12, "root_count_crt", ok12, family_max_ratio=worst_ratio)
    )

    # 13. Cauchy-Schwarz support bound, exact on every profile above
    ok13 = all(
        rom.cauchy_schwarz_holds(prof)
        for prof in (prof8, prof9)
    )
    criteria.append(_criterion(13, "cauchy_schwarz_support", ok13))

    # 14. theta ratio sanity (determinism of this whole report is criterion
    # 14 proper and is asserted by running the battery twice)
    theta_ratio = chebyshev_theta(10**5, primes) / 10**5
    criteria.append(
        _criterion(14, "theta_ratio_window", 0.9 <= theta_ratio <= 1.1, ratio=theta_ratio)
    )

    return {
        "battery_version": BATTERY_VERSION,
        "seed": seed,
        "scales": {"sieve": sieve.limit, "primes": primes.limit},
        "criteria": criteria,
        "all_pass": all(c["pass"] for c in criteria),
    }
