"""Command-line front door.

Subcommands mirror the library modules: sieve stats, moment reports,
extremal-set construction, elliptic-curve statistics, Romanoff-type density
reports, the analytic-lemma suite, and a deterministic verify-all battery.
JSON output is sorted and newline-terminated so identical invocations are
byte-identical; large tabular outputs (profiles, order sequences) use CSV.

Each report accepts only the flags it reads: REPORT_FLAGS lists them, and
``run`` refuses a flag given that the report does not read, or a needed one
left out, before any handler runs. Exit codes: 0 success, 2 parameter/usage
errors (a path that cannot be read or written too), 3 capacity or budget
errors, 4 a table failed an integrity check. ``run`` reads 3 and 4 from the
``exit_code`` of the error's class. Each handler imports the library modules
it runs, and ``sieve`` (with numpy) only where it builds or reads a table, so
``--help`` and a refused flag load ``errors`` alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Callable

from .errors import CapacityError, DomainError, ParameterError, TableIntegrityError

DEFAULT_SIEVE_LIMIT = 10**7
DEFAULT_PRIME_LIMIT = 10**7
CACHE_ENV_VAR = "ROMANOFF_LAB_CACHE"


# The flags each (subcommand, report) reads beside --out and --report, a needed
# one marked ! and a lower bound >=low after its flag; extremal is keyed by mode,
# lemmas by toggle (each given adds).
REPORT_FLAGS = {
    ("sieve", None): "--limit --x --prime-limit",
    ("moments", "theorem1"): "--seq! --x --s --alpha --M --sieve-limit --prime-limit",
    ("moments", "poly"): "--poly! --z --s --sieve-limit",
    ("moments", "linear"): "--a! --bs! --z --s --x --sieve-limit",
    ("extremal", "--alphas"): "--M --alphas --sieve-limit",
    ("extremal", None): "--M --y! --z! --sieve-limit",
    ("elliptic", "theorem5"): "--curve --x >=2 --s >=1 --census-mod >=1 --sieve-limit --prime-limit",
    ("elliptic", "orders"): "--curve --x >=2 --prime-limit",
    ("romanoff", "frontier"): "--seq! --x --alpha --budget --prime-limit",
    ("romanoff", "profile"): "--seq! --x --budget --prime-limit",
    ("romanoff", "theorem9"): "--a --b --x --budget --prime-limit",
    ("romanoff", "schnirelmann"): "--a --x --prime-limit",
    ("romanoff", "order-sum"): "--a --b --P >=2 --sieve-limit --prime-limit",
    ("romanoff", "order-dist"): "--a --z --trial-cap",
    ("lemmas", "--gamma"): "--gamma --s-max >=1 --x-max",
    ("lemmas", "--prime-sums"): "--prime-sums --tail-limit --prime-limit",
    ("lemmas", "--min-pk"): "--min-pk --tail-limit --prime-limit",
    ("lemmas", "--abel"): "--abel --seed",
    ("verify-all", None): "--seed",
}


def _reports(command: str) -> tuple:
    return tuple(k[1] for k in REPORT_FLAGS if k[0] == command)


def _check_flags(parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str]) -> None:
    """Refuse a flag given that its report does not read, a needed flag left
    out and a value below its flag's bound. The subcommand's argv is parsed
    again over a namespace of Nones, so only the flags given change: no flag
    value parses to None."""
    command = args.command
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    unset = sub.parse_args(argv[argv.index(command) + 1 :], argparse.Namespace(**dict.fromkeys(vars(args))))
    given = ["--" + a.dest.replace("_", "-") for a in sub._actions if getattr(unset, a.dest, None) is not None]
    # the mode or toggle flags given, else the report (None without one)
    keys = [(command, r) for r in _reports(command) if r in given] or [(command, getattr(args, "report", None))]
    label = " ".join([command] + [r if r in given else f"--report {r}" for _, r in keys if r])
    flags = " ".join(REPORT_FLAGS.get(k, "") for k in keys).split()
    if unread := [f for f in given if f not in ("--out", "--report", *flags) and f + "!" not in flags]:
        raise ParameterError(f"{label} does not read {', '.join(unread)}")
    if keys[0] not in REPORT_FLAGS:  # lemmas without a toggle
        raise ParameterError(f"{command} needs at least one of {'/'.join(_reports(command))}")
    if missing := [f[:-1] for f in flags if f.endswith("!") and f[:-1] not in given]:
        raise ParameterError(f"{label} needs {', '.join(missing)}")
    for flag, bound in zip(flags, flags[1:]):  # before any handler, so before numpy loads
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if bound.startswith(">=") and value is not None and value < int(bound[2:]):
            raise ParameterError(f"{flag} must be >= {bound[2:]}, got {value}")


def _table_size(needed: float, cap: int, table: str, flag: str) -> int:
    """needed rounded up to a table limit of at least 2, within the flag's cap;
    needed is compared before it is rounded, so an infinite one is refused."""
    if needed > cap:
        shown = needed if needed == math.inf else math.ceil(needed)
        raise CapacityError(f"this run needs {table} {shown}, above the {flag} cap {cap}")
    return max(math.ceil(needed), 2)


def make_sieve(args: argparse.Namespace, needed: float):
    from .sieve import build_sieve
    size = _table_size(needed, args.sieve_limit, "a sieve of size", "--sieve-limit")
    return build_sieve(size, cache_dir=os.environ.get(CACHE_ENV_VAR))


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


def _finite_floats(text: str) -> list[float]:
    """argparse type of --alphas: the entry that is no finite float exits 2."""
    return [_finite_float(v) for v in text.split(",")]


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
    from . import moments as mom

    def check(largest) -> None:  # for read_blocks: the first block past --sieve-limit is refused
        _table_size(largest, args.sieve_limit, "a sieve of size", "--sieve-limit")

    if args.report == "theorem1":
        import numpy as np

        from . import sequences as seq

        spec = seq.parse_sequence_spec(args.seq)
        x = args.x
        M = args.M if args.M is not None else float(x)
        mom.check_theorem1_parameters(args.s, args.alpha, M)
        primes = (
            make_primes(args, seq.elliptic_prime_bound(x))
            if isinstance(spec, seq.EllipticOrders)
            else None
        )
        blocks = [block for _, block in mom.read_blocks(seq.iter_terms(spec, x, primes), check)]
        if not blocks:
            raise DomainError(f"sequence has no terms <= {x}")
        values = np.concatenate(blocks)
        blocks.clear()
        values.sort(kind="stable")
        sieve = make_sieve(args, int(values[-1]))
        report = mom.theorem1_report(values, args.s, args.alpha, M, sieve)
        payload = dataclasses.asdict(report)
        payload["parameters"]["sequence"] = seq.format_sequence_spec(spec)
        _emit_json(args, {"report": "theorem1", "moment": payload})
    elif args.report == "poly":
        poly = mom.PolynomialSpec.from_descending(_parse_int_list(args.poly))
        blocks = mom.read_blocks(mom.iter_poly_values(poly, args.z), check)
        sieve = make_sieve(args, max([poly.content, *(largest for largest, _ in blocks)]))
        report = mom.poly_moment_report(poly, args.z, args.s, sieve)
        _emit_json(args, {"report": "poly", "moment": dataclasses.asdict(report)})
    elif args.report == "linear":
        shifts = _parse_int_list(args.bs)
        blocks = mom.read_blocks(mom.iter_delta_values(args.a, shifts, args.z), check)
        sieve = make_sieve(args, max([args.a, *(largest for largest, _ in blocks)]))
        report = mom.delta_moment_report(args.a, shifts, args.z, args.s, args.x, sieve)
        _emit_json(args, {"report": "linear", "moment": dataclasses.asdict(report)})


def _cmd_extremal(args: argparse.Namespace) -> None:
    from . import extremal as ext

    sieve = make_sieve(args, args.M)
    if args.alphas is not None:
        entries = [dataclasses.asdict(e) for e in ext.alpha_sweep(args.M, args.alphas, sieve)]
        _emit_json(args, {"report": "alpha_sweep", "M": args.M, "entries": entries})
        return
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
    if args.report == "orders":
        _emit(args, ell.order_sequence(curve, x, make_primes(args, x)).write_csv)
        return
    sieve = make_sieve(args, 1 + 2 * x)
    primes = make_primes(args, x)
    orders = ell.order_sequence(curve, x, primes)
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
    if report in ("frontier", "profile", "theorem9"):
        budget = args.budget if args.budget is not None else rom.DEFAULT_BUDGET
    if report in ("frontier", "profile"):
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
        _emit_json(args, {"report": "theorem9", "estimates": [dataclasses.asdict(e) for e in estimates]})
    elif report == "schnirelmann":
        primes = make_primes(args, args.x + args.a)
        out = rom.schnirelmann_pi2(args.x, args.a, primes)
        _emit_json(
            args, {"report": "schnirelmann", "x": args.x, "a": args.a, **out._asdict()}
        )
    elif report == "order-sum":
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
        powers, mins = lem.prime_sums(primes, args.tail_limit, powers=args.prime_sums, mins=args.min_pk)
        for (k, s), out in powers.items():
            ok = math.isfinite(out.head_ratio) and math.isfinite(out.tail_ratio)
            params = {"k": k, "s": s, "tail_limit": args.tail_limit}
            records.append(_lemma_record("prime_log_power_sums", params, out.head_ratio, None, ok))
        for (k, s), out in mins.items():
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
    _emit_json(args, {"report": "lemmas", "records": records})


def _cmd_verify_all(args: argparse.Namespace) -> None:
    from .verify import verify_all

    _emit_json(args, verify_all(seed=args.seed))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romanoff-lab",
        description="Desk-scale computations for totient-ratio moment sums "
        "and Romanoff-type representation counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, text: str) -> argparse.ArgumentParser:
        """A subparser with --out and each table cap that a report of it reads."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None)
        for flag, cap in (("--sieve-limit", DEFAULT_SIEVE_LIMIT), ("--prime-limit", DEFAULT_PRIME_LIMIT)):
            if any(flag in REPORT_FLAGS[(name, r)].split() for r in _reports(name)):
                p.add_argument(flag, type=int, default=cap)
        return p

    p = add("sieve", _cmd_sieve, "prime table statistics")
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--x", type=_finite_float, default=None)

    p = add("moments", _cmd_moments, "moment-sum reports")
    p.add_argument("--report", choices=_reports("moments"), default="theorem1")
    p.add_argument("--seq", default=None)
    p.add_argument("--x", type=int, default=1000)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--alpha", type=_finite_float, default=0.5)
    p.add_argument("--M", type=_finite_float, default=None)
    p.add_argument("--poly", default=None, help="coefficients a_k,...,a_0")
    p.add_argument("--z", type=_finite_float, default=100.0)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--bs", default=None, help="comma-separated shifts b_i")

    p = add("extremal", _cmd_extremal, "extremal-set construction")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--y", type=_finite_float, default=None)
    p.add_argument("--z", type=_finite_float, default=None)
    p.add_argument("--alphas", type=_finite_floats, default=None, help="comma-separated alpha sweep")

    p = add("elliptic", _cmd_elliptic, "curve order statistics")
    p.add_argument("--curve", required=True, help="A,B; write a negative A as --curve=-3,2")
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--census-mod", type=int, default=None)
    p.add_argument("--report", choices=_reports("elliptic"), default="theorem5")

    p = add("romanoff", _cmd_romanoff, "representation-count reports")
    p.add_argument("--report", choices=_reports("romanoff"), default="frontier")
    p.add_argument("--seq", default=None)
    p.add_argument("--x", type=int, default=2**16)
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--P", type=_finite_float, default=10**4)
    p.add_argument("--z", type=int, default=20)
    p.add_argument("--trial-cap", type=int, default=10**5)
    p.add_argument("--budget", type=int, default=None)  # None: romanoff.DEFAULT_BUDGET

    p = add("lemmas", _cmd_lemmas, "analytic lemma suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", action="store_true")
    p.add_argument("--s-max", type=int, default=12)
    p.add_argument("--x-max", type=_finite_float, default=50.0)
    p.add_argument("--prime-sums", action="store_true")
    p.add_argument("--min-pk", action="store_true")
    p.add_argument("--abel", action="store_true")
    p.add_argument("--tail-limit", type=_finite_float, default=10**5)

    p = add("verify-all", _cmd_verify_all, "deterministic desk-scale battery")
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _check_flags(parser, args, argv)
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
