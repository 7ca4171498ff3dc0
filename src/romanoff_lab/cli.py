"""Command-line front door.

Subcommands mirror the library modules: sieve stats, moment reports,
extremal-set construction, elliptic-curve statistics, Romanoff-type density
reports, the analytic-lemma suite, and a deterministic verify-all battery.
JSON output is sorted and newline-terminated so identical invocations are
byte-identical; large tabular outputs (profiles, order sequences) use CSV.

Exit codes: 0 success, 2 parameter/usage errors (a path that cannot be read
or written too), 3 capacity or budget errors, 4 a table failed an integrity
check. ``run`` reads 3 and 4 from the ``exit_code`` of the error's class.
Each handler imports the library modules it runs, and ``sieve`` (with numpy)
only where it builds or reads a table, so ``--help`` loads ``errors`` alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from itertools import islice
from typing import Iterator

from .errors import CapacityError, DomainError, ParameterError, TableIntegrityError

DEFAULT_SIEVE_LIMIT = 10**7
DEFAULT_PRIME_LIMIT = 10**7
CACHE_ENV_VAR = "ROMANOFF_LAB_CACHE"


def _table_size(needed: float, cap: int, table: str, flag: str) -> int:
    """needed rounded up to a table limit of at least 2, within the flag's cap;
    needed is compared before it is rounded, so an infinite one is refused."""
    if needed > cap:
        raise CapacityError(f"this run needs {table} {needed}, above the {flag} cap {cap}")
    return max(math.ceil(needed), 2)


def make_sieve(args: argparse.Namespace, needed: float):
    from .sieve import build_sieve
    size = _table_size(needed, args.sieve_limit, "a sieve of size", "--sieve-limit")
    return build_sieve(size, cache_dir=os.environ.get(CACHE_ENV_VAR))


def _largest_value(
    args: argparse.Namespace, values: Iterator[int], least: int = 0, kept: list[int] | None = None
) -> int:
    """The largest of the values and least, read 2^16 at a time: the first
    block above the sieve cap is refused, before the rest is enumerated.
    kept, when given, collects the values read."""
    largest = least
    while block := list(islice(values, 2**16)):
        largest = max(largest, max(block))
        _table_size(largest, args.sieve_limit, "a sieve of size", "--sieve-limit")
        if kept is not None:
            kept += block
    return largest


def make_primes(args: argparse.Namespace, needed: float):
    from .sieve import PrimeList
    return PrimeList.build(_table_size(needed, args.prime_limit, "primes up to", "--prime-limit"))


def _emit(args: argparse.Namespace, writer) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
    else:
        writer(sys.stdout)


def _emit_json(args: argparse.Namespace, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(args, lambda fh: fh.write(text))


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan, inf and overflow exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_sieve(args: argparse.Namespace) -> None:
    from .sieve import chebyshev_theta, mertens_products
    limit = args.limit
    primes = make_primes(args, limit)
    x = args.x if args.x is not None else float(limit)
    theta = chebyshev_theta(x, primes)
    mert = mertens_products(x, primes)
    _emit_json(
        args,
        {
            "limit": limit,
            "x": x,
            "pi": primes.count_leq(x),
            "theta": theta,
            "theta_over_x": theta / x,
            "mertens": mert._asdict(),
        },
    )


def _cmd_moments(args: argparse.Namespace) -> None:
    if args.report == "theorem1" and args.seq is None:
        raise ParameterError("--report theorem1 needs --seq")
    if args.report == "poly" and args.poly is None:
        raise ParameterError("--report poly needs --poly")
    if args.report == "linear" and (args.a is None or args.bs is None):
        raise ParameterError("--report linear needs --a and --bs")
    from . import moments as mom

    if args.report == "theorem1":
        from . import sequences as seq

        spec = seq.parse_sequence_spec(args.seq)
        x = args.x
        primes = (
            make_primes(args, seq.elliptic_prime_bound(x))
            if isinstance(spec, seq.EllipticOrders)
            else None
        )
        values: list[int] = []
        largest = _largest_value(args, seq.iter_terms(spec, x, primes), kept=values)
        if not values:
            raise DomainError(f"sequence has no terms <= {x}")
        sieve = make_sieve(args, largest)
        values.sort()
        M = args.M if args.M is not None else float(x)
        report = mom.theorem1_report(values, args.s, args.alpha, M, sieve)
        payload = dataclasses.asdict(report)
        payload["parameters"]["sequence"] = seq.format_sequence_spec(spec)
        _emit_json(args, {"report": "theorem1", "moment": payload})
    elif args.report == "poly":
        poly = mom.PolynomialSpec.from_descending(_parse_int_list(args.poly))
        sieve = make_sieve(args, _largest_value(args, mom.iter_poly_values(poly, args.z)))
        report = mom.poly_moment_report(poly, args.z, args.s, sieve)
        _emit_json(args, {"report": "poly", "moment": dataclasses.asdict(report)})
    elif args.report == "linear":
        shifts = _parse_int_list(args.bs)
        deltas = mom.iter_delta_values(args.a, shifts, args.z)
        sieve = make_sieve(args, _largest_value(args, deltas, args.a))
        report = mom.delta_moment_report(args.a, shifts, args.z, args.s, args.x, sieve)
        _emit_json(args, {"report": "linear", "moment": dataclasses.asdict(report)})


def _cmd_extremal(args: argparse.Namespace) -> None:
    from . import extremal as ext

    sieve = make_sieve(args, args.M)
    if args.alphas:
        alphas = [float(v) for v in args.alphas.split(",")]
        entries = ext.alpha_sweep(args.M, alphas, sieve)
        _emit_json(
            args,
            {
                "report": "alpha_sweep",
                "M": args.M,
                "entries": [dataclasses.asdict(e) for e in entries],
            },
        )
        return
    if args.y is None or args.z is None:
        raise ParameterError("extremal needs either --alphas or both --y/--z")
    result = ext.construct_extremal_set(args.M, args.y, args.z, sieve)
    payload = {
        "report": "extremal",
        "M": result.M,
        "y": result.y,
        "z": result.z,
        "Q": result.Q,
        "count": result.count,
        "empty": result.is_empty,
        "mean_ratio": result.mean_ratio,
        "member_min": result.members[0] if result.members else None,
        "member_max": result.members[-1] if result.members else None,
    }
    _emit_json(args, payload)


def _cmd_elliptic(args: argparse.Namespace) -> None:
    from . import elliptic as ell
    from . import sequences as seq

    curve = seq.parse_curve(args.curve)
    x = args.x
    if x < 2:
        raise ParameterError(f"--x must be >= 2, got {x}")
    for flag, value in (("--s", args.s), ("--census-mod", args.census_mod)):
        if value is not None and value < 1:  # for both reports, before any point
            raise ParameterError(f"{flag} must be >= 1, got {value}")
    sieve = make_sieve(args, 1 + 2 * x) if args.report == "theorem5" else None
    primes = make_primes(args, x)
    orders = ell.order_sequence(curve, x, primes)
    if args.report == "orders":
        _emit(args, orders.write_csv)
        return
    report = ell.theorem5_report(curve, x, args.s, sieve, primes, orders=orders)
    payload = {
        "report": "theorem5",
        "curve": seq.format_curve(curve),
        "moment": dataclasses.asdict(report),
        "hasse_min_margin": orders.hasse_min_margin(),
    }
    if args.census_mod is not None:
        from .sieve import totient_trial
        t = args.census_mod
        census = ell.congruence_class_census(curve, x, t, primes, orders=orders)
        pi_x = len(orders.counts)
        payload["census"] = {str(a): count for a, count in census.items()}
        payload["census_modulus"] = t
        # equidistribution baseline the residue counts are tabulated against
        payload["census_pi_over_phi_t"] = pi_x / totient_trial(t)
    _emit_json(args, payload)


def _cmd_romanoff(args: argparse.Namespace) -> None:
    from . import romanoff as rom
    from . import sequences as seq

    report = args.report
    budget = rom.DEFAULT_BUDGET if args.budget is None else args.budget
    if report in ("frontier", "profile"):
        if args.seq is None:
            raise ParameterError(f"--report {report} needs --seq")
        spec = seq.parse_sequence_spec(args.seq)
        x = args.x
        primes = make_primes(
            args, seq.elliptic_prime_bound(x) if isinstance(spec, seq.EllipticOrders) else x
        )
        if report == "profile":
            profile = rom.representation_counts(spec, x, primes, budget=budget)
            _emit(args, profile.write_csv)
            return
        estimates = rom.theorem6_report(spec, x, args.alpha, primes, budget=budget)
        _emit_json(
            args,
            {
                "report": "frontier",
                "sequence": seq.format_sequence_spec(spec),
                "x": x,
                "alpha": args.alpha,
                "estimates": [dataclasses.asdict(e) for e in estimates],
            },
        )
    elif report == "theorem9":
        primes = make_primes(args, args.x)
        estimates = rom.theorem9_report(args.a, args.b, args.x, primes, budget=budget)
        _emit_json(
            args,
            {
                "report": "theorem9",
                "estimates": [dataclasses.asdict(e) for e in estimates],
            },
        )
    elif report == "schnirelmann":
        primes = make_primes(args, args.x + args.a)
        out = rom.schnirelmann_pi2(args.x, args.a, primes)
        _emit_json(
            args, {"report": "schnirelmann", "x": args.x, "a": args.a, **out._asdict()}
        )
    elif report == "order-sum":
        if args.P < 2:
            raise ParameterError(f"--P must be >= 2, got {args.P}")
        sieve = make_sieve(args, args.P)
        primes = make_primes(args, args.P)
        value = rom.order_weighted_sum(args.a, args.b, args.P, primes, sieve)
        _emit_json(
            args,
            {
                "report": "order-sum",
                "a": args.a,
                "b": args.b,
                "P": args.P,
                "value": value,
            },
        )
    elif report == "order-dist":
        dist = rom.order_distribution(args.a, args.z, args.trial_cap)
        _emit_json(
            args,
            {
                "report": "order-dist",
                **dataclasses.asdict(dist),
                "D": dist.total,
                "normalized": dist.normalized,
                "all_exact": dist.all_exact,
            },
        )


def _lemma_record(lemma: str, parameters: dict, witness: float, bound, ok: bool) -> dict:
    return {"lemma": lemma, "parameters": parameters, "witness_value": witness,
            "bound": bound, "pass": ok}


def _cmd_lemmas(args: argparse.Namespace) -> None:
    from . import lemmas as lem

    records = []
    if args.gamma:
        for s in range(1, args.s_max + 1):
            worst, ok = lem.gamma_bound_grid(s, args.x_max)
            params = {"s": s, "x_min": lem.GAMMA_GRID_X_MIN,
                      "x_max": args.x_max, "step": lem.GAMMA_GRID_STEP}
            records.append(_lemma_record("gamma_bound", params, worst, 1.0, ok))
    if args.prime_sums or args.min_pk:
        primes = make_primes(args, args.tail_limit)
    if args.prime_sums:
        for k in (2, 10, 100, 1000):
            for s in (1, 2, 3):
                out = lem.prime_log_power_sums(k, s, primes, args.tail_limit)
                ok = math.isfinite(out.head_ratio) and math.isfinite(out.tail_ratio)
                params = {"k": k, "s": s, "tail_limit": args.tail_limit}
                record = _lemma_record("prime_log_power_sums", params, out.head_ratio, None, ok)
                records.append(record)
    if args.min_pk:
        for k in (1, 2, 10, 100):
            for s in (1, 2, 3):
                out = lem.min_pk_sum(k, s, primes, args.tail_limit)
                ok = math.isfinite(out.normalized) and out.normalized > 0
                params = {"k": k, "s": s, "tail_limit": args.tail_limit}
                records.append(_lemma_record("min_pk_sum", params, out.normalized, None, ok))
    if args.abel:
        import random

        rng = random.Random(args.seed)
        worst = 0.0
        ok = True
        for _ in range(20):
            n = rng.randint(1, 80)
            weights = [rng.uniform(-3, 3) for _ in range(n)]
            for kind in ("reciprocal", "reciprocal_square"):
                direct, abel = lem.abel_check(weights, kind)
                deviation = abs(direct - abel) - 1e-9 * abs(direct)
                worst = max(worst, deviation)
                ok = ok and deviation <= 1e-12
        params = {"vectors": 20, "seed": args.seed}
        records.append(_lemma_record("abel_identity", params, worst, 1e-12, ok))
    if not records:
        raise ParameterError(
            "lemmas needs at least one of --gamma/--prime-sums/--min-pk/--abel"
        )
    _emit_json(args, {"report": "lemmas", "records": records})


def _cmd_verify_all(args: argparse.Namespace) -> None:
    from .verify import verify_all

    _emit_json(args, verify_all(seed=args.seed))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    sieve_limit = argparse.ArgumentParser(add_help=False)
    sieve_limit.add_argument("--sieve-limit", type=int, default=DEFAULT_SIEVE_LIMIT)
    prime_limit = argparse.ArgumentParser(add_help=False)
    prime_limit.add_argument("--prime-limit", type=int, default=DEFAULT_PRIME_LIMIT)
    both_caps = [common, sieve_limit, prime_limit]

    parser = argparse.ArgumentParser(
        prog="romanoff-lab",
        description="Desk-scale computations for totient-ratio moment sums "
        "and Romanoff-type representation counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common, prime_limit], help="prime table statistics")
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--x", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("moments", parents=both_caps, help="moment-sum reports")
    p.add_argument("--report", choices=("theorem1", "poly", "linear"), default="theorem1")
    p.add_argument("--seq", default=None)
    p.add_argument("--x", type=int, default=1000)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--alpha", type=_finite_float, default=0.5)
    p.add_argument("--M", type=_finite_float, default=None)
    p.add_argument("--poly", default=None, help="coefficients a_k,...,a_0")
    p.add_argument("--z", type=_finite_float, default=100.0)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--bs", default=None, help="comma-separated shifts b_i")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("extremal", parents=[common, sieve_limit], help="extremal-set construction")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--y", type=_finite_float, default=None)
    p.add_argument("--z", type=_finite_float, default=None)
    p.add_argument("--alphas", default=None, help="comma-separated alpha sweep")
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("elliptic", parents=both_caps, help="curve order statistics")
    p.add_argument("--curve", required=True, help="A,B; write a negative A as --curve=-3,2")
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--census-mod", type=int, default=None)
    p.add_argument("--report", choices=("theorem5", "orders"), default="theorem5")
    p.set_defaults(handler=_cmd_elliptic)

    p = sub.add_parser("romanoff", parents=both_caps, help="representation-count reports")
    p.add_argument(
        "--report",
        choices=(
            "frontier",
            "profile",
            "theorem9",
            "schnirelmann",
            "order-sum",
            "order-dist",
        ),
        default="frontier",
    )
    p.add_argument("--seq", default=None)
    p.add_argument("--x", type=int, default=2**16)
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--P", type=_finite_float, default=10**4)
    p.add_argument("--z", type=int, default=20)
    p.add_argument("--trial-cap", type=int, default=10**5)
    p.add_argument("--budget", type=int, default=None)  # None: romanoff.DEFAULT_BUDGET
    p.set_defaults(handler=_cmd_romanoff)

    p = sub.add_parser("lemmas", parents=[common, prime_limit], help="analytic lemma suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", action="store_true")
    p.add_argument("--s-max", type=int, default=12)
    p.add_argument("--x-max", type=_finite_float, default=50.0)
    p.add_argument("--prime-sums", action="store_true")
    p.add_argument("--min-pk", action="store_true")
    p.add_argument("--abel", action="store_true")
    p.add_argument("--tail-limit", type=_finite_float, default=10**5)
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser(
        "verify-all", parents=[common], help="deterministic desk-scale battery"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        args.handler(args)
    # ValueError: a parameter, range, domain or construction error; OSError: an
    # explicit:@file or --out path that cannot be used; both exit 2
    except (CapacityError, TableIntegrityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
