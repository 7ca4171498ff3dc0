"""Exact point counting #E(F_p) for short-Weierstrass curves, Hasse-bound
margins, order sequences over ascending primes, and congruence-class
statistics of curve orders.

Counting is Shanks-Mestre baby-step giant-step (Cohen, GTM 138, section 7.4):
every m in the Hasse interval H = [p + 1 - r, p + 1 + r], r = isqrt(4p),
that kills a point of E is kept, and so is every m for which 2p + 2 - m
kills a point of the quadratic twist. The points, fixed by (A, B, p), come
from a scan of x = 0, 1, ... that skips (_decides_nothing) each x giving no
point or one of order 3 or 4, which would decide nothing. The true order
always survives, so a single survivor is the order; for p > 229 Mestre's
theorem says points that leave one survivor exist, and below that a prime
may stay ambiguous. Cost is about p^(1/4) group operations per point.

An order_sequence counts its primes of good reduction from p = 5 to
_LANE_PRIME_LIMIT = 2^31 (int64 products) in numpy lanes
(_count_points_lanes): one lane per prime, rounds of 16 (isqrt(r) + 1) lanes
for the r of the sequence's largest prime with one baby-step count s each,
Jacobian coordinates with mixed addition, baby and giant x-coordinates made
affine by Montgomery's batch inversion (one Fermat inversion per lane), and
matches found by sorting lane-keyed x and one searchsorted. Each round gives
every open lane the next point of the scalar scan and intersects the orders
it allows by the Chinese remainder theorem. The lanes left open, runs of
fewer than _LANE_MIN_BATCH primes and primes from 2^31 up take
_count_points_prime: a round costs 2-8 ms in numpy calls (p = 4096 to 10^7),
so lanes and scalar BSGS break even near 30-45 primes at p = 4096 and near
16 at p = 10^7. Per prime, the lanes took 22 / 24 / 32 us against 105 / 194 /
407 us for the scalar BSGS on the primes of [4096, 10^5], [8*10^5, 10^6] and
[9.8*10^6, 10^7], and 15 against 40 us for the character sum on [5, 4096)
(2-core x86 host, CPython 3.11, numpy 2.4).

_count_points_prime, which also serves single count_points calls, takes the
scalar BSGS from _BSGS_MIN_PRIME up. Everything else goes to the O(p)
character sum, which stays as the oracle: #E(F_p) = p + 1 + sum_x
chi(x^3 + Ax + B) with chi the quadratic character mod p, evaluated through
a residue table rather than per-x exponentiation. It serves smaller primes,
primes of bad reduction (p | disc), and the rare prime that
_BSGS_POINT_TRIES points per side leave ambiguous.
Only the character table is capped (_MAX_CHARACTER_PRIME): a prime above
the cap that BSGS resolves is counted, one that needs the character sum
raises CapacityError. p = 2 and p = 3 are enumerated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np

from .errors import CapacityError, DomainError, ParameterError, RangeError
from .moments import MomentReport, _ratio_power_fsum
from .sieve import (
    _LANE_PRIME_LIMIT,
    FactorSieve,
    PrimeList,
    _powmod_lanes,
    _residues,
    factorize_trial,
    is_prime,
)

# cap for the vectorized character table: a few p-length int64 arrays are
# live at once, so this bounds peak memory near half a GB; int64 overflow
# would only bite far later, near p ~ 3e9
_MAX_CHARACTER_PRIME = 2**24

# single count_points calls and the lanes an order_sequence leaves open take
# the scalar BSGS from here up and the character sum below: the scalar BSGS
# breaks even with it between p = 1.5e3 and 2e3 on a 2-core x86 host
# (CPython 3.11) and is 1.6-1.7x faster at 4096
_BSGS_MIN_PRIME = 2**12
# points tried on E and on its twist before falling back to the character sum
_BSGS_POINT_TRIES = 4
# every round of a lane batch holds this many lanes per baby step s of the
# sequence's largest prime: 272 lanes at x = 2e4, 1280 at x = 1e7. Rounds of
# small primes are as wide as the last one, so they pay the fixed cost of a
# round less often (9 rounds at x = 2e4; 13 when each round was sized from
# its first prime), and their (s + 1, lanes) arrays stay small. Fixed batches
# of 512 to 2048 lanes raised the peak RSS of T5 at x = 2e4 by 0.3 to 2.7 MB
# more, and 4096 lanes were no faster at x = 1e7
_LANES_PER_STEP = 16
# fewer open lanes than this go to the scalar BSGS (the measured break-even
# is 30-45 at p = 4096 and falls to about 16 by p = 1e7)
_LANE_MIN_BATCH = 40

# CSV lines formatted by one % operation
_CSV_ROWS = 2**16


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 = x^3 + Ax + B with nonzero discriminant 4A^3 + 27B^2."""

    A: int
    B: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise ParameterError(
                f"curve ({self.A}, {self.B}) is singular (zero discriminant)"
            )

    @property
    def discriminant(self) -> int:
        return 4 * self.A**3 + 27 * self.B**2

    def singular_primes(self) -> list[int]:
        """Primes dividing the discriminant (bad reduction).

        This trial-factors all of the discriminant, so it can take tens of
        seconds for coefficients near 10^9 (about 40 s for (10^9 + 7,
        10^9 + 9)). theorem5_report does not call it: it tests disc % p for
        the primes p <= x that it already has.
        """
        return [p for p, _ in factorize_trial(abs(self.discriminant))]


@dataclass(frozen=True)
class OrderSequence:
    """(p, #E(F_p)) for every prime p <= x, ascending in p."""

    curve: EllipticCurve
    x: float
    entries: tuple[tuple[int, int], ...]

    def orders(self) -> list[int]:
        return [order for _, order in self.entries]

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("p,order\n")
        for i in range(0, len(self.entries), _CSV_ROWS):
            chunk = self.entries[i : i + _CSV_ROWS]
            stream.write("%d,%d\n" * len(chunk) % tuple(chain.from_iterable(chunk)))


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic character of a mod p via Euler's criterion; p an odd prime."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"p={p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _count_points_bruteforce(curve: EllipticCurve, p: int) -> int:
    """1 (the point at infinity) + #{(x, y) : y^2 = x^3 + Ax + B mod p}, with
    every pair compared in one p-by-p table; for small p only."""
    v = np.arange(p, dtype=np.int64)
    square = v * v % p
    rhs = (square * v + curve.A % p * v + curve.B % p) % p
    return 1 + int(np.count_nonzero(rhs[:, None] == square))


def _count_points_character(curve: EllipticCurve, p: int) -> int:
    """The O(p) character sum for an odd prime p; the oracle of the BSGS path."""
    if p > _MAX_CHARACTER_PRIME:
        raise CapacityError(
            f"p={p} exceeds the character-table prime cap {_MAX_CHARACTER_PRIME}"
        )
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[(xs * xs) % p] = 1
    chi[0] = 0
    a = curve.A % p
    b = curve.B % p
    f = ((xs * xs) % p * xs + a * xs + b) % p
    return int(p + 1 + chi[f].sum())


# Affine points are (x, y) tuples and None is the point at infinity.


def _ec_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a: int, p: int):
    """kP for k >= 0 by double-and-add."""
    R = None
    for bit in bin(k)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _multiples_in(n: int, lo: int, hi: int) -> list[int]:
    return list(range(-(-lo // n) * n, hi + 1, n))


def _annihilators(P, a: int, p: int, lo: int, hi: int) -> list[int]:
    """Every m in [lo, hi] with mP = O, for a point P with y != 0.

    Baby steps jP (1 <= j <= s) are filed by x-coordinate; giant steps cP,
    c = lo + s, lo + 3s + 1, ..., match cP = +-jP, which covers m = c -+ j
    and so every m of [c - s, c + s]. The scan is complete only while the
    baby x-coordinates are distinct. Should some jP be O, have y = 0, or
    share its x with an earlier iP (then jP = -iP), ord(P) <= 2s is j, 2j
    or i + j exactly, and its multiples in [lo, hi] are the answer.
    """
    s = math.isqrt((hi - lo + 1) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    R = P
    for j in range(1, s + 1):
        if R is None:
            return _multiples_in(j, lo, hi)
        x, y = R
        if y == 0:
            return _multiples_in(2 * j, lo, hi)
        if x in baby:
            return _multiples_in(baby[x][0] + j, lo, hi)
        baby[x] = (j, y)
        R = _ec_add(R, P, a, p)
    step = 2 * s + 1
    G = _ec_mul(step, P, a, p)
    c = lo + s
    C = _ec_mul(c, P, a, p)
    found = []
    while c - s <= hi:
        if C is None:
            found.append(c)
        elif C[0] in baby:
            j, y = baby[C[0]]
            found.append(c - j if C[1] == y else c + j)
        C = _ec_add(C, G, a, p)
        c += step
    return [m for m in found if lo <= m <= hi]


def _decides_nothing(x, v, a, b, p):
    """True where the scan's x yields no point that decides an order (ints or
    lane arrays; a, b reduced mod p, v = x^3 + ax + b): v = 0 gives no point,
    x = 0 with a = 0 the point (0, b^2) of order 3, and x^2 = a with b = 0 a
    point P with 2P = (0, 0), of order 4. The last rule starts at p = 7: at
    p = 5 with a = 1 or 4 it would leave no x, and the lane scan would hang."""
    return (v == 0) | ((x == 0) & (a == 0)) | ((b == 0) & (p > 5) & (x * x % p == a))


def _count_points_bsgs(a: int, b: int, p: int) -> int | None:
    """#E(F_p) by Shanks-Mestre for a, b reduced mod a prime p of good
    reduction, or None if the points tried leave more than one candidate.

    Points come from x = 0, 1, ..., skipping every x for which
    _decides_nothing holds: (vx, v^2) with v = x^3 + ax + b lies on
    y^2 = X^3 + av^2 X + bv^3, which is E when v is a square and its
    quadratic twist, with 2p + 2 - #E points, when it is not.
    """
    r = math.isqrt(4 * p)
    lo, hi = p + 1 - r, p + 1 + r
    half = (p - 1) // 2
    left = {1: _BSGS_POINT_TRIES, p - 1: _BSGS_POINT_TRIES}  # Euler's criterion of v
    candidates = None
    for x in range(p):
        v = (x * x * x + a * x + b) % p
        if _decides_nothing(x, v, a, b, p):
            continue
        side = pow(v, half, p)
        if not left[side]:
            if not any(left.values()):
                break
            continue
        left[side] -= 1
        found = _annihilators((v * x % p, v * v % p), a * v * v % p, p, lo, hi)
        survivors = set(found) if side == 1 else {2 * p + 2 - m for m in found}
        candidates = survivors if candidates is None else candidates & survivors
        if len(candidates) == 1:
            return candidates.pop()
    return None


def count_points(curve: EllipticCurve, p: int) -> int:
    """#E(F_p): solutions of y^2 = x^3 + Ax + B over F_p, plus infinity.

    The congruence count is computed for every prime, including primes of
    bad reduction (p | discriminant); callers that care should consult
    curve.singular_primes(). Primes of good reduction from _BSGS_MIN_PRIME
    up go to BSGS, which has no size cap; the rest, and any prime BSGS
    leaves ambiguous, go to the character sum, which raises CapacityError
    above _MAX_CHARACTER_PRIME.
    """
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    return _count_points_prime(curve, p)


def _count_points_prime(curve: EllipticCurve, p: int) -> int:
    """count_points without the primality test, for p from a PrimeList."""
    if p <= 3:
        return _count_points_bruteforce(curve, p)
    if p >= _BSGS_MIN_PRIME and curve.discriminant % p:
        order = _count_points_bsgs(curve.A % p, curve.B % p, p)
        if order is not None:
            return order
    return _count_points_character(curve, p)


# --- Lane-parallel Shanks-Mestre: one numpy lane per prime -------------------
#
# Points are Jacobian (X : Y : Z) with x = X/Z^2, y = Y/Z^3; Z = 0 is O. Every
# product is of two residues mod p < 2^31, so it stays below 2^62 in int64.


def _dbl_lanes(X, Y, Z, a, p):
    """2(X : Y : Z) on y^2 = x^3 + ax + b; exact for O and for y = 0 too."""
    XX = X * X % p
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = 4 * (X * YY % p) % p
    M = (3 * XX + a * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * (YY * YY % p)) % p
    return X3, Y3, 2 * (Y * Z % p) % p


def _madd_lanes(X1, Y1, Z1, x2, y2, a, p):
    """(X1 : Y1 : Z1) + (x2, y2) with the second point affine, exact in every
    case: the formula gives Z = 0 for Q + (-Q) by itself, and the lanes where
    the first point is O or equals the second are mended afterwards."""
    ZZ = Z1 * Z1 % p
    H = (x2 * ZZ - X1) % p
    R = (y2 * ZZ % p * Z1 - Y1) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Y3 = (R * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    if not Z3.all():  # Z3 = Z1 H is 0 in every lane that needs mending
        i = np.flatnonzero((Z1 == 0) | ((H == 0) & (R == 0)))
        at_infinity = Z1[i] == 0
        for out, doubled, affine in zip(
            (X3, Y3, Z3), _dbl_lanes(X1[i], Y1[i], Z1[i], a[i], p[i]), (x2[i], y2[i], 1)
        ):
            out[i] = np.where(at_infinity, affine, doubled)
    return X3, Y3, Z3


def _mul_lanes(k, bx, by, a, p):
    """kP lane by lane for k >= 0, w bits at a time, from the affine
    multiples jP = (bx[j - 1], by[j - 1]) for 1 <= j < 2^w <= len(bx) + 1."""
    w = min(3, (len(bx) + 1).bit_length() - 1)
    lane = np.arange(len(p))
    R = np.ones_like(p), np.ones_like(p), np.zeros_like(p)
    for shift in range(-(-int(k.max()).bit_length() // w) * w - w, -1, -w):
        for _ in range(w):
            R = _dbl_lanes(*R, a, p)
        d = (k >> shift) & (2**w - 1)
        added = _madd_lanes(*R, bx[d - 1, lane], by[d - 1, lane], a, p)
        R = tuple(np.where(d > 0, s, r) for s, r in zip(added, R))
    return R


def _affine(X, Y, Z, p):
    """Affine (x, y) of (steps, lanes) Jacobian arrays, by Montgomery's batch
    inversion along the step axis with one Fermat inversion per lane. A point
    at infinity comes back as arbitrary residues."""
    Z = np.where(Z == 0, 1, Z)
    inv = np.empty_like(Z)  # prefix products first, then the inverses
    inv[0] = Z[0]
    for i in range(1, len(Z)):
        inv[i] = inv[i - 1] * Z[i] % p
    acc = _powmod_lanes(inv[-1], p - 2, p)
    for i in range(len(Z) - 1, 0, -1):
        inv[i], acc = acc * inv[i - 1] % p, acc * Z[i] % p
    inv[0] = acc
    zz = inv * inv % p
    return X * zz % p, Y * (zz * inv % p) % p


def _event(j, order):
    # the earliest step that shows a small order wins. At one step, jP = O
    # (order j) beats an x collision of the arbitrary x that O is given
    # (order i + j); (2s + 1)P = O counts as step s + 1
    return j << 10 | order


_NO_EVENT = np.iinfo(np.int64).max


def _lane_killers(px, py, a, p, lo, hi, s):
    """Every m in [lo, hi] with mP = O, lane by lane, for P = (px, py) on
    y^2 = x^3 + ax + b, as the progression first + i * gap, 0 <= i < count
    (gap = 1 when count < 2).

    The steps of _annihilators, one lane per prime and one s for all: baby
    steps jP (1 <= j <= s) keyed lane << 40 | x << 9 | j and sorted, giant
    steps cP (c = lo + s, lo + 3s + 1, ...) looked up by searchsorted. The
    killers are the multiples of ord(P) in [lo, hi], so gap = ord(P) when
    there are two or more. A small order (jP = O, y = 0, an x collision, or
    (2s + 1)P = O) is read off the baby steps exactly, as _annihilators does.
    """
    n = len(p)
    lane = np.arange(n, dtype=np.int64)
    # rows 0..s-1: baby steps jP; row s: the giant step (2s + 1)P
    X, Y, Z = (np.empty((s + 1, n), dtype=np.int64) for _ in range(3))
    R = (px, py, np.ones_like(px))
    for j in range(s):
        if j:
            R = _madd_lanes(*R, px, py, a, p)
        X[j], Y[j], Z[j] = R
    X[s], Y[s], Z[s] = _madd_lanes(*_dbl_lanes(*R, a, p), px, py, a, p)

    j = np.arange(1, s + 1, dtype=np.int64)[:, None]
    infinite = Z[:s] == 0
    event = np.minimum(
        np.where(infinite, _event(j, j), _NO_EVENT).min(axis=0),
        np.where(~infinite & (Y[:s] == 0), _event(j, 2 * j), _NO_EVENT).min(axis=0),
    )
    event = np.where(Z[s] == 0, np.minimum(event, _event(s + 1, 2 * s + 1)), event)
    bx, by = _affine(X, Y, Z, p)
    baby = np.sort((lane << 40 | bx[:s] << 9 | j).ravel())
    same = np.flatnonzero((baby[1:] ^ baby[:-1]) < 512)
    if same.size:
        i, k = baby[same] & 511, baby[same + 1]
        np.minimum.at(event, k >> 40, _event(k & 511, i + (k & 511)))
    small = event != _NO_EVENT

    step = 2 * s + 1
    c0 = lo + s
    steps = int((hi - lo).max()) // step + 1
    R = _mul_lanes(c0, bx[:s], by[:s], a, p)
    for k in range(steps):
        if k:
            R = _madd_lanes(*R, bx[s], by[s], a, p)
        X[k], Y[k], Z[k] = R  # steps <= s rows
    cx, cy = _affine(X[:steps], Y[:steps], Z[:steps], p)
    # giant keys lane << 40 | x << 9 | k; sorted needles halve searchsorted's time
    giant = np.sort((lane << 40 | cx << 9 | np.arange(steps)[:, None]).ravel())
    pos = np.minimum(np.searchsorted(baby, giant & ~511), len(baby) - 1)
    hit = (baby[pos] ^ giant) < 512
    gl, gk, j = giant[hit] >> 40, giant[hit] & 511, baby[pos[hit]] & 511
    c = c0[gl] + step * gk
    m = np.where(cy[gk, gl] == by[j - 1, gl], c - j, c + j)
    finite = Z[gk, gl] != 0
    ik, il = np.nonzero(Z[:steps] == 0)  # cP = O: c itself kills P
    ls = np.concatenate([gl[finite], il])
    ms = np.concatenate([m[finite], c0[il] + step * ik])
    found = np.sort((ls << 32 | ms)[(lo[ls] <= ms) & (ms <= hi[ls])])
    count = np.bincount(found >> 32, minlength=n)
    start = np.searchsorted(found >> 32, lane)
    killers = np.append(found & 0xFFFFFFFF, [0, 0])
    first = killers[start]
    gap = np.where(count > 1, killers[start + 1] - first, 1)

    order = event & 1023
    low = -(-lo // order)
    first = np.where(small, low * order, first)
    gap = np.where(small, order, gap)
    count = np.where(small, hi // order - low + 1, count)
    return first, gap, count


def _lane_orders(curve: EllipticCurve, ps: np.ndarray) -> np.ndarray:
    """#E(F_p) for ascending good-reduction primes, or 0 in the lanes that
    the points tried leave ambiguous.

    Each round gives every lane of a batch the next x of _count_points_bsgs's
    scan, skipping those for which _decides_nothing holds, and (vx, v^2) with
    v = x^3 + ax + b on E or on its twist as Euler's criterion of v says. The
    orders a point allows form a progression N = f (mod g) in the Hasse
    interval; a lane keeps the intersection of its progressions by the Chinese
    remainder theorem and is resolved when one N is left. A batch holds the open lanes of the last round, then the next
    primes not yet started: _LANES_PER_STEP * s lanes for the s of the last
    prime. A lane stops after 2 * _BSGS_POINT_TRIES points, and rounds stop
    once every prime has started and fewer than _LANE_MIN_BATCH lanes are open.
    """
    a, b = _residues(curve.A, ps), _residues(curve.B, ps)
    r = np.array([math.isqrt(4 * p) for p in ps.tolist()], dtype=np.int64)
    lo, hi = ps + 1 - r, ps + 1 + r
    orders = np.zeros(len(ps), dtype=np.int64)
    x = np.zeros(len(ps), dtype=np.int64)
    tried = np.zeros(len(ps), dtype=np.int64)
    allowed: dict[int, tuple[int, int]] = {}  # lane -> (N mod g, g) so far
    retry = np.zeros(0, dtype=np.int64)
    started = 0
    size = _LANES_PER_STEP * (math.isqrt(int(r[-1])) + 1) if len(ps) else 0
    while started < len(ps) or len(retry) >= _LANE_MIN_BATCH:
        fresh = np.arange(started, min(len(ps), started + max(0, size - len(retry))))
        started += len(fresh)
        lanes = np.concatenate([retry, fresh])
        # isqrt((hi - lo + 1) // 2) + 1 at the largest p of the batch
        s = math.isqrt(int(r[lanes].max())) + 1
        q, al, bl, xl = ps[lanes], a[lanes], b[lanes], x[lanes]
        while True:
            v = ((xl * xl % q * xl % q) + al * xl % q + bl) % q
            skip = _decides_nothing(xl, v, al, bl, q)
            if not skip.any():
                break
            xl = xl + skip
        x[lanes] = xl + 1
        tried[lanes] += 1
        vv = v * v % q
        first, gap, count = _lane_killers(
            v * xl % q, vv, al * vv % q, q, lo[lanes], hi[lanes], s
        )
        # m kills a point of the twist when 2p + 2 - m is the order of E; of
        # a progression of two or more, only N mod gap is used
        twist = _powmod_lanes(v, (q - 1) // 2, q) != 1
        first = np.where(twist, 2 * q + 2 - first, first)
        one = count == 1
        orders[lanes[one]] = first[one]
        for i, f, g in zip(lanes[~one].tolist(), first[~one].tolist(), gap[~one].tolist()):
            res, mod = allowed.get(i, (0, 1))
            d = math.gcd(mod, g)
            res += mod * ((f - res) // d * pow(mod // d, -1, g // d) % (g // d))
            mod = mod // d * g
            low = int(lo[i]) + (res - int(lo[i])) % mod
            if low <= hi[i] < low + mod:
                orders[i] = low
            else:
                allowed[i] = (res, mod)
        retry = lanes[(orders[lanes] == 0) & (tried[lanes] < 2 * _BSGS_POINT_TRIES)]
    return orders


def _count_points_lanes(curve: EllipticCurve, ps) -> np.ndarray:
    """#E(F_p) for ascending primes of good reduction with
    5 <= p < _LANE_PRIME_LIMIT, in numpy lanes; the lanes left open go to
    the scalar _count_points_prime."""
    ps = np.asarray(ps, dtype=np.int64)
    if ps.size and int(ps.max()) >= _LANE_PRIME_LIMIT:
        raise CapacityError(
            f"p={int(ps.max())} is not below the lane bound {_LANE_PRIME_LIMIT}"
        )
    orders = _lane_orders(curve, ps)
    for i in np.flatnonzero(orders == 0).tolist():
        orders[i] = _count_points_prime(curve, int(ps[i]))
    return orders


def hasse_margin(curve: EllipticCurve, p: int, order: int | None = None) -> float:
    """2*sqrt(p) - |#E(F_p) - (p+1)|; positive for every prime.

    A known order #E(F_p) is used as given; otherwise it is counted.
    """
    if order is None:
        order = count_points(curve, p)
    return 2.0 * math.sqrt(p) - abs(order - (p + 1))


def order_sequence(curve: EllipticCurve, x: float, primes: PrimeList) -> OrderSequence:
    """Curve orders at every prime p <= x, assembled in ascending p.

    The primes of good reduction in [5, _LANE_PRIME_LIMIT) are counted in
    lanes when there are at least _LANE_MIN_BATCH of them; every other prime
    goes to _count_points_prime.
    """
    ps = primes.upto(x)
    orders = np.zeros(len(ps), dtype=np.int64)
    lanes = (ps > 3) & (ps < _LANE_PRIME_LIMIT)
    lanes[lanes] = _residues(curve.discriminant, ps[lanes]) != 0
    if np.count_nonzero(lanes) >= _LANE_MIN_BATCH:
        orders[lanes] = _count_points_lanes(curve, ps[lanes])
    else:
        lanes[:] = False
    for i in np.flatnonzero(~lanes).tolist():
        orders[i] = _count_points_prime(curve, int(ps[i]))
    return OrderSequence(curve=curve, x=x, entries=tuple(zip(ps.tolist(), orders.tolist())))


def _orders_for(
    curve: EllipticCurve, x: float, primes: PrimeList, orders: OrderSequence | None
) -> OrderSequence:
    """The given orders, checked to be those of the curve to x, or counted."""
    if orders is None:
        return order_sequence(curve, x, primes)
    if (orders.curve, orders.x) != (curve, x):
        raise ParameterError(f"orders of {orders.curve} to x={orders.x}, not {curve} to x={x}")
    return orders


def congruence_class_census(
    curve: EllipticCurve,
    x: float,
    t: int,
    primes: PrimeList,
    *,
    orders: OrderSequence | None = None,
) -> dict[int, int]:
    """#{p <= x : #E(F_p) = a (mod t)} for every residue a in [0, t)."""
    if t < 1:
        raise ParameterError(f"modulus t={t} must be >= 1")
    census = {a: 0 for a in range(t)}
    for _, order in _orders_for(curve, x, primes, orders).entries:
        census[order % t] += 1
    return census


def theorem5_report(
    curve: EllipticCurve,
    x: float,
    s: int,
    sieve: FactorSieve,
    primes: PrimeList,
    *,
    orders: OrderSequence | None = None,
) -> MomentReport:
    """Moment sum of #E(F_p)/phi(#E(F_p)) over p <= x against pi(x) (T5).

    The sum is exactly >= pi(x) (each term >= 1); the implied constant is the
    plain ratio lhs/pi(x), the measured constant of the matching upper bound.
    A gathered phi outside [1, #E(F_p)] raises TableIntegrityError.
    The absence of complex multiplication is a hypothesis of that upper
    bound; it is not checked here, and the report records that.
    """
    if s < 1:
        raise ParameterError(f"s={s} must be >= 1")
    if x < 2:
        raise ParameterError(f"x={x} must be >= 2")
    if 1 + 2 * x > sieve.limit:
        raise RangeError(
            f"orders up to 1+2x = {1 + 2 * x:g} exceed sieve limit {sieve.limit}"
        )
    orders = _orders_for(curve, x, primes, orders)
    lhs = _ratio_power_fsum(orders.orders(), s, sieve)
    pi_x = len(orders.entries)
    disc = curve.discriminant
    return MomentReport(
        lhs=lhs,
        rhs_core=float(pi_x),
        implied_constant=lhs / pi_x,
        parameters={
            "A": curve.A,
            "B": curve.B,
            "x": x,
            "s": s,
            "pi_x": pi_x,
            "cm_checked": False,
            "singular_primes": [p for p, _ in orders.entries if disc % p == 0],
        },
    )
