"""The three library workloads: a fixed list of public romanoff_lab calls on
seeded inputs, each with the invariant its output must satisfy on every seed
and the digest compared across passes and against the golden record.

Every call goes through an attribute of the ``romanoff_lab`` package looked
up at call time, so the tracer's wrappers see it.  Inputs (lists, curves,
sets) are built before timing starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs as gen
from checks import FLOAT_REL_TOL, PrimeOracle, csv_digest, curve_order, int_array_digest, plain, ratio_power_sum
from setup_tables import CURVES_X

# seconds one pass of each op list took at the commit that defined the
# benchmark (2 vCPU Xeon, CPython 3.11, numpy 2.4); a run makes
# round(--seconds / nominal) passes, so two commits always do the same work
NOMINAL_PASS_S = {"moments": 4.0, "curves": 4.0, "profiles": 4.0}

T1_INTERVAL = 10**5
ALPHA_M = 5 * 10**5
T6_ECORDERS_X = CURVES_X // 2
CENSUS_MODULUS = 4
ORDER_SAMPLE_STEP = 20  # every 20th T5 order is counted again by the checks
ORDER_SUM_P = 3 * 10**5


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # invariant violations of one output, given this pass's earlier outputs
    # (``seen``) and the prime oracle
    check: Callable[[object, dict, PrimeOracle], list[str]]
    summary: Callable[[object], object]
    # False when the op's inputs do not depend on the seed: its output is then
    # compared with the golden record on every seed
    seeded: bool = True


def _fail_unless(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# --- moments -----------------------------------------------------------------


def _check_moment(values: list[int], s: int):
    """T1 lhs >= N, and lhs against a float recomputation from the oracle's phi."""

    def check(report, seen, oracle) -> list[str]:
        n = report.parameters.get("N", report.parameters.get("terms"))
        expected = ratio_power_sum(values, s, oracle.totients)
        return (
            _fail_unless(n == len(values), f"term count {n} != {len(values)}")
            + _fail_unless(report.lhs >= n, f"lhs {report.lhs} below the term count {n}")
            + _fail_unless(
                math.isclose(report.lhs, expected, rel_tol=FLOAT_REL_TOL), f"lhs {report.lhs} != {expected}"
            )
        )

    return check


def _check_alpha_sweep(entries, seen, oracle) -> list[str]:
    """Q, the member count and the mean ratio, rebuilt from the definition."""
    phi = oracle.totients
    errors = []
    for e in entries:
        window = [p for p in range(2, math.floor(e.z) + 1) if p > e.y and oracle.is_prime(p)]
        small = [p for p in range(2, math.floor(e.y) + 1) if oracle.is_prime(p)]
        members = [n for n in range(e.Q, ALPHA_M + 1, e.Q) if all(n % p for p in small)]
        mean = ratio_power_sum(members, 1, phi) / len(members) if members else math.nan
        errors += _fail_unless(e.Q == math.prod(window), f"alpha {e.alpha}: Q {e.Q} != product of {window}")
        errors += _fail_unless(
            e.count == len(members) and math.isclose(e.mean_ratio, mean, rel_tol=FLOAT_REL_TOL),
            f"alpha {e.alpha}: {e.count} members, mean {e.mean_ratio}; expected {len(members)}, {mean}",
        )
    return errors


def moments_ops(rl, tables: dict, seed: int) -> list[Op]:
    inp = gen.moments_inputs(seed)
    sieve = tables["sieve"]
    interval = list(range(1, T1_INTERVAL + 1))
    poly = (1, 0, inp.poly_constant)
    poly_values = [n * n + inp.poly_constant for n in range(-gen.POLY_Z, gen.POLY_Z + 1)]
    delta_values = [
        8 * math.prod(abs(s - b) for s in inp.delta_shifts)
        for b in range(-gen.DELTA_Z, gen.DELTA_Z + 1)
        if b not in inp.delta_shifts
    ]
    return [
        Op(
            "t1_interval_s1",
            lambda: rl.theorem1_report(interval, 1, 0.5, float(T1_INTERVAL), sieve),
            _check_moment(interval, 1),
            plain,
            seeded=False,
        ),
        Op(
            "t1_interval_s3",
            lambda: rl.theorem1_report(interval, 3, 0.5, float(T1_INTERVAL), sieve),
            _check_moment(interval, 3),
            plain,
            seeded=False,
        ),
        Op(
            "t1_random_s2",
            lambda: rl.theorem1_report(inp.t1_list, 2, 0.5, float(gen.MOMENTS_SIEVE), sieve),
            _check_moment(inp.t1_list, 2),
            plain,
        ),
        Op(
            "poly_s2",
            lambda: rl.poly_moment_report(rl.PolynomialSpec.from_descending(poly), gen.POLY_Z, 2, sieve),
            _check_moment(poly_values, 2),
            plain,
        ),
        Op(
            "delta_s2",
            lambda: rl.delta_moment_report(2, inp.delta_shifts, gen.DELTA_Z, 2, 1000.0, sieve),
            _check_moment(delta_values, 2),
            plain,
        ),
        Op(
            "alpha_sweep",
            lambda: rl.alpha_sweep(ALPHA_M, [0.5, 0.45, 0.4], sieve),
            _check_alpha_sweep,
            plain,
            seeded=False,
        ),
    ]


# --- curves ------------------------------------------------------------------


def _t5_summary(out):
    orders, report = out
    return {"report": plain(report), "orders_csv_sha256": csv_digest(orders.write_csv)}


def _check_t5(out, seen, oracle: PrimeOracle) -> list[str]:
    orders, report = out
    ps = [p for p, _ in orders.entries]
    pi_x = oracle.pi(CURVES_X)
    errors = _fail_unless(
        ps == [int(p) for p in oracle.primes_upto(CURVES_X)], "order sequence primes differ from the oracle"
    )
    errors += _fail_unless(report.rhs_core == pi_x, f"pi(x) {report.rhs_core} != {pi_x}")
    errors += _fail_unless(report.lhs >= pi_x, f"T5 lhs {report.lhs} below pi(x) {pi_x}")
    outside = [(p, n) for p, n in orders.entries if (n - p - 1) ** 2 > 4 * p]
    errors += _fail_unless(not outside, f"orders outside the Hasse bound: {outside[:3]}")
    A, B = orders.curve.A, orders.curve.B
    recount = [(p, n) for p, n in orders.entries[::ORDER_SAMPLE_STEP] if n != curve_order(A, B, p)]
    errors += _fail_unless(not recount, f"orders differ from an independent count: {recount[:3]}")
    return errors


def _check_census(census, seen, oracle) -> list[str]:
    orders, _ = seen["t5_curve0"]
    expected = {a: 0 for a in range(CENSUS_MODULUS)}
    for _, n in orders.entries:
        expected[n % CENSUS_MODULUS] += 1
    return _fail_unless(census == expected, f"census {census} != {expected} from the T5 orders")


def _check_t6_ecorders(estimates, seen, oracle) -> list[str]:
    orders, _ = seen["t5_curve0"]
    # every order <= x comes from q <= (sqrt(x)+1)^2 < CURVES_X, so the T5 orders cover them
    n_a = sum(1 for _, n in orders.entries if n <= T6_ECORDERS_X)
    half = sum(1 for _, n in orders.entries if n <= T6_ECORDERS_X / 2)
    got = estimates[0].parameters
    return _fail_unless(
        got["N_A"] == n_a and got["half_count"] == half,
        f"N_A {got['N_A']}/{got['half_count']} != {n_a}/{half} from the T5 orders",
    ) + _check_frontier(estimates)


def _check_frontier(estimates) -> list[str]:
    c2 = [e.value for e in estimates if e.name == "c2_at_c1"]
    ok = len(c2) == 11 and all(0.0 <= v <= 1.0 for v in c2) and all(math.isfinite(e.value) for e in estimates)
    return _fail_unless(ok, f"frontier values out of range: {c2}")


def curves_ops(rl, tables: dict, seed: int) -> list[Op]:
    inp = gen.curves_inputs(seed)
    sieve, primes = tables["sieve"], tables["primes"]
    curves = [rl.EllipticCurve(a, b) for a, b in inp.curves]

    def t5(curve):
        orders = rl.order_sequence(curve, CURVES_X, primes)
        return orders, rl.theorem5_report(curve, CURVES_X, 1, sieve, primes, orders=orders)

    ops = [
        Op(f"t5_curve{i}", lambda c=c: t5(c), _check_t5, _t5_summary, seeded=i > 0)
        for i, c in enumerate(curves)
    ]
    ops.append(
        Op(
            "census_mod4",
            lambda: rl.congruence_class_census(curves[0], CURVES_X, CENSUS_MODULUS, primes),
            _check_census,
            plain,
            seeded=False,
        )
    )
    ops.append(
        Op(
            "t6_ecorders",
            lambda: rl.theorem6_report(rl.EllipticOrders(curves[0]), T6_ECORDERS_X, 1.0, primes),
            _check_t6_ecorders,
            plain,
            seeded=False,
        )
    )
    return ops


# --- profiles ----------------------------------------------------------------


def _profile_summary(profile):
    return {"x": profile.x, "total": profile.total(), "r_sha256": int_array_digest(profile.r)}


def _check_profile(terms: list[int]):
    def check(profile, seen, oracle: PrimeOracle) -> list[str]:
        x = profile.x
        usable = [a for a in terms if a <= x - 2]
        pair_total = sum(oracle.pi(x - a) for a in usable)
        errors = _fail_unless(
            profile.total() == pair_total, f"sum r(n) {profile.total()} != sum pi(x-a) {pair_total}"
        )
        # pair loop over a prefix, against the oracle's primes
        prefix = 3000
        brute = np.zeros(prefix + 1, dtype=np.int64)
        ps = oracle.primes_upto(prefix)
        for a in usable:
            if a > prefix - 2:
                break
            hit = ps + a
            brute[hit[hit <= prefix]] += 1
        errors += _fail_unless(
            np.array_equal(np.asarray(profile.r[: prefix + 1], dtype=np.int64), brute),
            "r(n) differs from the pair loop below 3000",
        )
        return errors

    return check


def _check_frontier_count(expected_terms: int):
    def check(estimates, seen, oracle) -> list[str]:
        n_a = estimates[0].parameters["N_A"]
        return _fail_unless(n_a == expected_terms, f"N_A {n_a} != {expected_terms}") + _check_frontier(estimates)

    return check


def _check_theorem9(x: int):
    tower_terms = sum(1 for j in range(0, 10) if 2 ** (j * j) <= x)

    def check(estimates, seen, oracle: PrimeOracle) -> list[str]:
        p = estimates[0].parameters
        return _fail_unless(
            p["N_A"] == tower_terms and p["pi_x"] == oracle.pi(x) and 0 < p["representable"] <= x,
            f"T9 parameters {p} disagree with N_A={tower_terms}, pi={oracle.pi(x)}",
        )

    return check


def _check_pi2(x: int, shifts: list[int]):
    def check(counts, seen, oracle: PrimeOracle) -> list[str]:
        ps = oracle.primes_upto(x)
        expected = [int(np.count_nonzero(oracle.flags[ps + a])) for a in shifts]
        got = [c.count for c in counts]
        return _fail_unless(got == expected, f"pi_2 counts {got} != {expected}")

    return check


def _check_order_sum(rl, sieve, a: int, b: int, P: int):
    """Every order the sum uses against the least order the oracle finds among
    the divisors of p - 1 (so h | p - 1 and a^h = 1 hold, and h is the least
    such), and the sum against the oracle's own sum of those orders."""

    def check(value, seen, oracle: PrimeOracle) -> list[str]:
        wrong = []
        for p in oracle.primes_upto(P):
            p = int(p)
            if a % p:
                h = rl.multiplicative_order(a, p, sieve)
                if h != oracle.least_order(a, p):
                    wrong.append((p, h, oracle.least_order(a, p)))
        expected = oracle.order_weighted_sum(a, b, P)
        return _fail_unless(not wrong, f"orders (p, h, least order): {wrong[:3]}") + _fail_unless(
            math.isclose(value, expected, rel_tol=1e-12), f"order sum {value} != recomputed {expected}"
        )

    return check


def _check_order_distribution(dist, seen, oracle) -> list[str]:
    ok = len(dist.entries) == dist.z and all(e.d_n >= 0 and math.isfinite(e.d_n) for e in dist.entries)
    return _fail_unless(ok, "order distribution entries missing or negative")


def profiles_ops(rl, tables: dict, seed: int) -> list[Op]:
    inp = gen.profiles_inputs(seed)
    sieve, primes = tables["sieve"], tables["primes"]
    squares = rl.Polynomial(rl.PolynomialSpec((0, 0, 1)))
    profile_set = rl.Explicit(tuple(inp.profile_set))
    frontier_set = rl.Explicit(tuple(inp.frontier_set))
    x, fx = gen.PROFILE_X, gen.FRONTIER_X
    t9_x = primes.limit
    return [
        Op(
            "profile_squares",
            lambda: rl.representation_counts(squares, x, primes),
            _check_profile([j * j for j in range(1, math.isqrt(x) + 1)]),
            _profile_summary,
            seeded=False,
        ),
        Op(
            "profile_explicit",
            lambda: rl.representation_counts(profile_set, x, primes),
            _check_profile(inp.profile_set),
            _profile_summary,
        ),
        Op(
            "t6_squares",
            lambda: rl.theorem6_report(squares, fx, 1.0, primes),
            _check_frontier_count(math.isqrt(fx)),
            plain,
            seeded=False,
        ),
        Op(
            "t6_explicit",
            lambda: rl.theorem6_report(frontier_set, fx, 1.0, primes),
            _check_frontier_count(len(inp.frontier_set)),
            plain,
        ),
        Op(
            "t6_geom2",
            lambda: rl.theorem6_report(rl.Geometric(2, 0), x, 1.0, primes),
            _check_frontier_count(x.bit_length()),
            plain,
            seeded=False,
        ),
        Op("t9_tower", lambda: rl.theorem9_report(2, 2, t9_x, primes), _check_theorem9(t9_x), plain, seeded=False),
        Op(
            "pi2_shifts",
            lambda: [rl.schnirelmann_pi2(x, a, primes) for a in inp.pi2_shifts],
            _check_pi2(x, inp.pi2_shifts),
            plain,
        ),
        Op(
            "order_sum",
            lambda: rl.order_weighted_sum(2, 2, ORDER_SUM_P, primes, sieve),
            _check_order_sum(rl, sieve, 2, 2, ORDER_SUM_P),
            plain,
            seeded=False,
        ),
        Op(
            "order_distribution",
            lambda: rl.order_distribution(2, 40, 2 * 10**4),
            _check_order_distribution,
            plain,
            seeded=False,
        ),
    ]


OPS = {"moments": moments_ops, "curves": curves_ops, "profiles": profiles_ops}

# largest integer any check looks up in the prime oracle
ORACLE_LIMIT = {"moments": gen.MOMENTS_SIEVE, "curves": CURVES_X, "profiles": 2 * 10**6 + 1000}
