"""Output checks shared by the workloads: an independent prime oracle, JSON
digests of library results, and the comparison against the golden record.

Golden records hold the outputs of the default seed at the commit that defined
the benchmark.  Integers, strings and digests of integer arrays or CSV bytes
compare exactly; floats compare within FLOAT_REL_TOL, so that a change from
exact ``Fraction`` sums to correctly rounded float sums (which moves the last
few bits of a sum over 10^5 terms) still passes, while a wrong number fails.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_SEED = 0
FLOAT_REL_TOL = 1e-9
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class PrimeOracle:
    """pi(x) and the primes up to a limit from a plain sieve of Eratosthenes,
    kept apart from romanoff_lab so that checks do not trust the code they
    check."""

    def __init__(self, limit: int):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        self.limit = limit
        self.flags = flags
        self.cumulative = np.cumsum(flags, dtype=np.int32)

    def pi(self, x: float) -> int:
        return int(self.cumulative[math.floor(x)])

    def primes_upto(self, x: float) -> np.ndarray:
        return np.nonzero(self.flags[: math.floor(x) + 1])[0]

    def is_prime(self, n: int) -> bool:
        return bool(self.flags[n])

    @functools.cached_property
    def smallest_factors(self) -> np.ndarray:
        """The least prime factor of every 2 <= n <= limit."""
        spf = np.arange(self.limit + 1, dtype=np.int64)
        # largest prime first, so that the least one writes last
        for p in self.primes_upto(math.isqrt(self.limit))[::-1]:
            spf[p * p :: p] = p
        return spf

    @functools.cache
    def least_order(self, a: int, p: int) -> int:
        """The least d >= 1 with a^d = 1 (mod p), found by trying the divisors
        of p - 1 in increasing order; p - 1 is factored with this oracle."""
        divisors = [1]
        m = p - 1
        while m > 1:
            q = int(self.smallest_factors[m])
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            divisors = [d * q**k for d in divisors for k in range(e + 1)]
        return next(d for d in sorted(divisors) if pow(a, d, p) == 1)

    def order_weighted_sum(self, a: int, b: int, P: int) -> float:
        """fsum over primes p <= P not dividing a of ln(p) / (p * h^(1/b)),
        with h the least order of a mod p from ``least_order``."""
        parts = []
        for p in self.primes_upto(P):
            p = int(p)
            if a % p:
                parts.append(math.log(p) / (p * self.least_order(a, p) ** (1.0 / b)))
        return math.fsum(parts)

    @functools.cached_property
    def totients(self) -> np.ndarray:
        """phi(n) for n <= limit by the product n * prod(1 - 1/p) over the oracle's primes."""
        phi = np.arange(self.limit + 1, dtype=np.int64)
        for p in self.primes_upto(self.limit):
            phi[p :: p] -= phi[p :: p] // p
        return phi


def ratio_power_sum(values, s: int, phi: np.ndarray) -> float:
    """fsum of (n / phi(n))^s in floats: the moment sum to within a few ulps per term."""
    v = np.asarray(values, dtype=np.int64)
    return math.fsum(((v / phi[v]) ** s).tolist())


def curve_order(A: int, B: int, p: int) -> int:
    """#E(F_p) counted as 1 + #{(x, y)}, with the number of y per x read off a
    table of squares: a different route from the library's character sum."""
    xs = np.arange(p, dtype=np.int64)
    roots = np.bincount(xs * xs % p, minlength=p)
    f = (xs * xs % p * xs + A * xs + B) % p
    return 1 + int(roots[f].sum())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def int_array_digest(values) -> str:
    return digest(np.ascontiguousarray(values, dtype=np.int64).tobytes())


def csv_digest(write_csv) -> str:
    buf = io.StringIO()
    write_csv(buf)
    return digest(buf.getvalue().encode())


def plain(obj):
    """JSON-ready copy of a report: dataclasses and named tuples become dicts
    and lists, tuple keys are not expected."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {k: plain(v) for k, v in zip(obj._fields, obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def differences(expected, actual, path: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected``: exact for everything but
    floats, which may differ by FLOAT_REL_TOL relative."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return [f"{path}: {actual!r} != {expected!r}"]
        if isinstance(expected, bool) or isinstance(actual, bool):
            return [f"{path}: {actual!r} != {expected!r}"]
        if math.isnan(expected) and math.isnan(actual):
            return []
        if math.isclose(expected, actual, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} differs from {expected!r} beyond rel {FLOAT_REL_TOL}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for k in expected:
            out += differences(expected[k], actual[k], f"{path}.{k}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += differences(e, a, f"{path}[{i}]")
        return out
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict | None:
    path = golden_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_golden(workload: str, outputs: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    record = {"seed": GOLDEN_SEED, "float_rel_tol": FLOAT_REL_TOL, "outputs": outputs}
    golden_path(workload).write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
