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

An OrderSequence holds two read-only int64 arrays, the primes p <= x (a view
of the PrimeList) and their counts #E(F_p), and builds (p, #E) pairs only
when they are read. order_sequence counts the primes as one stream of numpy
lanes (_count_points_lanes), one lane per prime of good reduction from p = 5
to _LANE_PRIME_LIMIT = 2^31 (int64 products), and keeps state only for the
lanes in flight, so its memory beyond the two arrays does not grow with x.
Rounds of up to _ROUND_LANES = 4096 lanes take one baby-step count s each,
Jacobian coordinates with mixed addition, baby and giant tables made
affine in place by Montgomery's batch inversion (one Fermat inversion per
lane, in 3-bit windows like each lane Legendre symbol: sieve._powmod_lanes),
and matches found by sorting lane-keyed x in place and one searchsorted. A
lane first takes #E mod 2 from the roots of x^3 + Ax + B (_parity_lanes) and
searches only that class of H, with baby steps over 2P: its tables are
sqrt(2) shorter. Each round gives every open lane the next point of the
scalar scan and intersects the orders it allows by the Chinese remainder
theorem. Rounds run while at least _LANE_MIN_BATCH primes are open or not
yet started; the lanes still ambiguous after 2 * _BSGS_POINT_TRIES points,
the lanes open when the rounds stop (so every prime of a shorter run) and
primes from 2^31 up take _count_points_prime. A round costs 2-8 ms in numpy
calls (p = 4096 to 10^7), so lanes and scalar BSGS break even near 30-45
primes at p = 4096 and near 16 at p = 10^7. Per prime, the lanes took 10-13 /
15-17 / 23-27 us, against 105 / 194 / 407 us for the scalar BSGS on the
primes of [4096, 10^5], [8*10^5, 10^6] and [9.8*10^6, 10^7], and 10-18
against 40 us for the character sum on [5, 4096) (2-core x86 host, CPython
3.11, numpy 2.4).

_count_points_prime, which also serves single count_points calls, counts a
prime p > 3 of bad reduction (p | disc) in closed form: the cubic has a
repeated root, so E has a cusp (p | A, B) with p + 1 points or a node with
p + 1 - (-2AB / p). It takes the scalar BSGS from _BSGS_MIN_PRIME up.
Everything else goes to the O(p) character sum, which stays as the oracle:
#E(F_p) = p + 1 + sum_x chi(x^3 + Ax + B) with chi the quadratic character
mod p, evaluated through a residue table rather than per-x exponentiation.
It serves smaller good primes and the rare prime that _BSGS_POINT_TRIES
points per side leave ambiguous.
Only the character table is capped (_MAX_CHARACTER_PRIME): a prime above
the cap that BSGS or the closed form counts is counted, one that needs the
character sum raises CapacityError. p = 2 and p = 3 are enumerated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import (CapacityError, DomainError, ParameterError, RangeError, check_at_least, check_finite,
                     check_integer)
from .moments import MomentReport, _ratio_power_fsum
from .sequences import elliptic_prime_bound
from .sieve import (
    _LANE_PRIME_LIMIT,
    FactorSieve,
    PrimeList,
    _isqrt_lanes,
    _powmod_lanes,
    _residues,
    _write_csv,
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
# lanes a round holds. Each numpy call of a round costs a fixed few us, so the
# 2262 primes to 2e4 take one round where 1024 lanes took 3. Over 16384 primes
# (full rounds), 2048 / 4096 / 8192 lanes took 16.0-17.5 / 15.4-16.2 /
# 15.3-15.8 us a prime near 1e6 and 39-43 / 38-41 / 39-42 us near 1e8 - 1e6:
# 8192 gains nothing beyond the noise and doubles the five (s + 1) x lanes
# tables, which at 4096 lanes add about 18 MB of peak RSS near 1e8 and 37 MB
# at the lane bound (s <= 217)
_ROUND_LANES = 4096
# lane rounds run while at least this many primes are open or not yet
# started; the rest go to the scalar BSGS (the measured break-even is 30-45
# at p = 4096 and falls to about 16 by p = 1e7)
_LANE_MIN_BATCH = 40


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 = x^3 + Ax + B with nonzero discriminant 4A^3 + 27B^2."""

    A: int
    B: int

    def __post_init__(self):
        for name in ("A", "B"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
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
    """#E(F_p) for every prime p <= x, ascending in p, as two read-only int64
    arrays: the primes (a view of the PrimeList) and their point counts."""

    curve: EllipticCurve
    x: float
    primes: np.ndarray
    counts: np.ndarray

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.primes.tolist(), self.counts.tolist()))

    def orders(self) -> list[int]:
        return self.counts.tolist()

    def hasse_min_margin(self) -> float:
        return float(_hasse_margins(self.primes, self.counts).min())

    def write_csv(self, stream: IO[str]) -> None:
        _write_csv(stream, "p,order\n", self.primes, self.counts)


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic character of a mod p via Euler's criterion; p an odd prime."""
    if (p := check_integer("p", p)) == 2 or not is_prime(p):
        raise DomainError(f"p={p} is not an odd prime")
    a = check_integer("a", a) % p
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
    bad reduction (p | discriminant), counted in closed form for p > 3;
    callers that care should consult curve.singular_primes(). Primes of
    good reduction from _BSGS_MIN_PRIME up go to BSGS, which has no size
    cap; the smaller ones, and any prime BSGS leaves ambiguous, go to the
    character sum, which raises CapacityError above _MAX_CHARACTER_PRIME.
    """
    if not is_prime(p := check_integer("p", p)):
        raise DomainError(f"p={p} is not prime")
    return _count_points_prime(curve, p)


def _count_points_prime(curve: EllipticCurve, p: int) -> int:
    """count_points without the primality test, for p from a PrimeList."""
    if p <= 3:
        return _count_points_bruteforce(curve, p)
    if curve.discriminant % p == 0:  # a cusp (p | A, B; the symbol is 0) or a node
        symbol = pow(-2 * curve.A * curve.B, (p - 1) // 2, p)  # Euler: 0, 1 or p - 1
        return p + 1 - (symbol if symbol <= 1 else -1)
    if p >= _BSGS_MIN_PRIME:
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


def _madd_lanes(X1, Y1, Z1, x2, y2, a, p, mend=True):
    """(X1 : Y1 : Z1) + (x2, y2) with the second point affine, exact wherever
    mend holds: the formula gives Z = 0 for Q + (-Q) by itself, and the lanes
    where the first point is O or equals the second are mended, or left at O."""
    ZZ = Z1 * Z1 % p
    H = (x2 * ZZ - X1) % p
    R = (y2 * ZZ % p * Z1 - Y1) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Y3 = (R * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    i = np.flatnonzero(((Z1 == 0) | ((H == 0) & (R == 0))) & mend) if not Z3.all() else ()
    if len(i):  # Z3 = Z1 H is 0 in every lane that needs mending
        at_infinity = Z1[i] == 0
        doubled = (0, 0, 0) if at_infinity.all() else _dbl_lanes(X1[i], Y1[i], Z1[i], a[i], p[i])
        for out, twice, affine in zip((X3, Y3, Z3), doubled, (x2[i], y2[i], 1)):
            out[i] = np.where(at_infinity, affine, twice)
    return X3, Y3, Z3


def _mul_lanes(k, bx, by, a, p):
    """kP lane by lane for k >= 0, w bits at a time, from the affine
    multiples jP = (bx[j - 1], by[j - 1]) for 1 <= j < 2^w <= len(bx) + 1,
    starting at the entry of the top digit (O where that digit is 0)."""
    w = min(5, (len(bx) + 1).bit_length() - 1)
    lane = np.arange(len(p))
    top = -(-(int(k.max()).bit_length() or 1) // w) * w - w
    d = k >> top
    R = bx[d - 1, lane], by[d - 1, lane], (d > 0).astype(np.int64)
    for shift in range(top - w, -1, -w):
        for _ in range(w):
            R = _dbl_lanes(*R, a, p)
        d = (k >> shift) & (2**w - 1)
        added = _madd_lanes(*R, bx[d - 1, lane], by[d - 1, lane], a, p)
        R = tuple(np.where(d > 0, s, r) for s, r in zip(added, R))
    return R


def _affine(X, Y, Z, p):
    """(steps, lanes) Jacobian arrays made affine in place by Montgomery's batch
    inversion along the step axis, one Fermat inversion per lane: X, Y become
    x, y and Z becomes 1/Z, where a point at infinity counts as Z = 1."""
    Z[Z == 0] = 1
    pre = Z.copy()  # prefix products, then (1/Z)^2 and (1/Z)^3
    for i in range(1, len(Z)):
        pre[i] = pre[i - 1] * Z[i] % p
    acc = _powmod_lanes(pre[-1], p - 2, p)
    for i in range(len(Z) - 1, 0, -1):
        Z[i], acc = acc * pre[i - 1] % p, acc * Z[i] % p
    Z[0] = acc
    pre[:] = Z
    for out, factor in ((pre, Z), (X, pre), (pre, Z), (Y, pre)):
        out *= factor
        out %= p


def _keys(x, y, row, lane):
    """Sorted keys lane << 41 | x << 10 | row << 1 | (y & 1), built over the
    (rows, lanes) x in place; for one x, the parity of y tells jP from -jP."""
    x <<= 10
    for part in (row << 1, y & 1, lane << 41):
        x |= part
    x.reshape(-1).sort()  # a view of x, so x is sorted in place
    return x.reshape(-1)


def _event(j, order):
    # the earliest step that shows a small order wins. At one step, jP = O
    # (order j) beats an x collision of the arbitrary x that O is given
    # (order i + j); (2s + 1)P = O counts as step s + 1
    return j << 10 | order


_NO_EVENT = np.iinfo(np.int64).max


def _lane_killers(px, py, a, p, lo, hi, s):
    """Every m = lo (mod 2) in [lo, hi] with mP = O, lane by lane, for
    P = (px, py), py != 0, on y^2 = x^3 + ax + b, as the progression
    first + i * gap, 0 <= i < count (gap = 1 when count < 2). ord(P) must be
    odd where lo is odd, as it is when lo = #E (mod 2).

    The steps of _annihilators over Q = 2P, one lane per prime and one s for
    all: baby steps jQ (1 <= j <= s) keyed by _keys and sorted, giant steps
    cP (c = lo + 2s, lo + 6s + 2, ...) looked up by searchsorted. The killers
    are the multiples of ord(P) in the class, so gap = lcm(ord(P), 2) when
    there are two or more. A small ord(Q) (jQ = O, y = 0, an x collision, or
    (2s + 1)Q = O) is read off the baby steps exactly; ord(P) is then ord(Q)
    or 2 ord(Q), and either way the killers are the m = lo ord(Q) mod 2 ord(Q).
    """
    n = len(p)
    lane = np.arange(n, dtype=np.int64)
    # Q = 2P = (X : Y : Z) is (X, Y) on y^2 = x^3 + aZ^4 x + bZ^6, where P is (px Z^2, py Z^3)
    qx, qy, qz = _dbl_lanes(px, py, np.ones_like(px), a, p)
    zz = qz * qz % p
    a = a * (zz * zz % p) % p
    px, py = px * zz % p, py * (zz * qz % p) % p
    # rows 0..s-1: baby steps jQ; row s: the giant step (2s + 1)Q
    X, Y, Z = (np.empty((s + 1, n), dtype=np.int64) for _ in range(3))
    R = (qx, qy, np.ones_like(qx))
    for j in range(s):
        if j:  # the rows after a lane's first jQ = O decide nothing: no mending
            R = _dbl_lanes(*R, a, p) if j == 1 else _madd_lanes(*R, qx, qy, a, p, mend=False)
        X[j], Y[j], Z[j] = R
    X[s], Y[s], Z[s] = _madd_lanes(*_dbl_lanes(*R, a, p), qx, qy, a, p, mend=False)

    event = np.full(n, _NO_EVENT)
    row, col = np.nonzero((Z[:s] == 0) | (Y[:s] == 0))  # jQ = O, or y = 0
    j = row + 1
    np.minimum.at(event, col, _event(j, np.where(Z[row, col] == 0, j, 2 * j)))
    np.minimum.at(event, np.flatnonzero(Z[s] == 0), _event(s + 1, 2 * s + 1))
    _affine(X, Y, Z, p)
    j = np.arange(1, s + 1, dtype=np.int64)[:, None]
    step = 2 * (2 * s + 1)
    c0 = lo + 2 * s
    R = _mul_lanes(c0 >> 1, X[:s], Y[:s], a, p)
    # c0 P = (c0 >> 1)Q + P where c0 is odd
    R = tuple(np.where(c0 & 1, t, r) for t, r in zip(_madd_lanes(*R, px, py, a, p), R))
    baby = _keys(X[:s], Y[:s], j, lane)  # row s keeps the giant step
    same = np.flatnonzero((baby[1:] ^ baby[:-1]) < 1024)
    if same.size:
        i, k = (baby[same] >> 1) & 511, baby[same + 1]
        np.minimum.at(event, k >> 41, _event((k >> 1) & 511, i + ((k >> 1) & 511)))
    small = event != _NO_EVENT

    # giant steps over the freed rows of Z and Y and one new array: 5 tables live
    steps = int((hi - lo).max()) // step + 1
    GX, GY, GZ = Z[:steps], Y[:steps], np.empty((steps, n), dtype=np.int64)
    for k in range(steps):
        if k:
            R = _madd_lanes(*R, X[s], Y[s], a, p, mend=~small)
        GX[k], GY[k], GZ[k] = R  # steps <= s rows
    at_infinity = GZ == 0
    _affine(GX, GY, GZ, p)
    del GZ
    giant = _keys(GX, GY, np.arange(steps)[:, None], lane)
    # sorted needles halve searchsorted's time; d ^ giant is the baby key found
    d = baby.take(np.searchsorted(baby, giant & ~1023), mode="clip") ^ giant
    hit = np.flatnonzero(d < 1024)
    g, d = giant[hit], d[hit]
    gl, gk, j = g >> 41, (g >> 1) & 511, ((d ^ g) >> 1) & 511
    c = c0[gl] + step * gk
    m = np.where((d & 1) == 0, c - 2 * j, c + 2 * j)  # same y: cP = jQ
    finite = ~at_infinity[gk, gl]
    ik, il = np.nonzero(at_infinity)  # cP = O: c itself kills P
    ls = np.concatenate([gl[finite], il])
    ms = np.concatenate([m[finite], c0[il] + step * ik])
    found = np.sort((ls << 32 | ms)[(lo[ls] <= ms) & (ms <= hi[ls])])
    count = np.bincount(found >> 32, minlength=n)
    start = np.searchsorted(found >> 32, lane)
    killers = np.append(found & 0xFFFFFFFF, [0, 0])
    first = killers[start]
    gap = np.where(count > 1, killers[start + 1] - first, 1)

    order = event & 1023  # ord(Q) in the small lanes
    low = lo + ((lo & 1) * order - lo) % (2 * order)
    first = np.where(small, low, first)
    gap = np.where(small, 2 * order, gap)
    count = np.where(small, (hi - low) // (2 * order) + 1, count)
    return first, gap, count


def _parity_lanes(a, b, p):
    """#E(F_p) mod 2 lane by lane for a, b reduced mod primes p of good
    reduction (Schoof's l = 2 step): #E and 2p + 2 - #E are even exactly when
    x^3 + ax + b has a root. By Stickelberger it has one root if its
    discriminant -(4a^3 + 27b^2) is not a square mod p, else three or none:
    three exactly when x^p = x mod the cubic, by square-and-multiply."""
    disc = -(a * a % p * a % p * 4 + b * b % p * 27) % p
    parity = np.zeros_like(p)
    i = np.flatnonzero(_powmod_lanes(disc, (p - 1) // 2, p) == 1)
    a, b, p = a[i], b[i], p[i]
    c0, c1, c2 = np.ones_like(p), np.zeros_like(p), np.zeros_like(p)
    for bit in range(int(p.max(initial=0)).bit_length() - 1, -1, -1):
        # square, with x^3 = -ax - b and x^4 = -ax^2 - bx. Products of two
        # residues are below 2^62, and the signs of each sum keep it in int64
        t, u = 2 * c1 * c2 % p, c2 * c2 % p
        c0, c1, c2 = (
            (c0 * c0 - b * t) % p,
            (2 * c0 * c1 - a * t - b * u) % p,
            (c1 * c1 - a * u + 2 * c0 * c2 % p) % p,
        )
        odd = (p >> bit) & 1 == 1  # then multiply by x
        times_x = -b * c2 % p, (c0 - a * c2) % p, c1
        c0, c1, c2 = (np.where(odd, m, c) for m, c in zip(times_x, (c0, c1, c2)))
    parity[i] = (c0 != 0) | (c1 != 1) | (c2 != 0)
    return parity


def _lane_orders(curve: EllipticCurve, ps: np.ndarray) -> np.ndarray:
    """#E(F_p) for ascending primes, or 0 for the primes that no lane
    resolves: p <= 3, p >= _LANE_PRIME_LIMIT, p | disc, the lanes that the
    points tried leave ambiguous and the primes left when the rounds stop.

    Each round holds the open lanes, then the next primes of ps, to
    _ROUND_LANES lanes, and runs while at least _LANE_MIN_BATCH primes are
    open or not yet started. A fresh lane takes the class N = #E (mod 2)
    that _parity_lanes gives. Each round gives every lane the next x of
    _count_points_bsgs's scan, skipping those for which _decides_nothing
    holds, and (vx, v^2) with v = x^3 + ax + b on E or on its twist as
    Euler's criterion of v says. The orders a point allows form a
    progression N = f (mod g) in the Hasse interval; a lane keeps the
    intersection of its progressions by the Chinese remainder theorem and
    is resolved when one N is left, or stops after 2 * _BSGS_POINT_TRIES
    points.
    """
    orders = np.zeros(len(ps), dtype=np.int64)
    # a column per open lane, a row per field: index in ps, a, b, lo, hi,
    # next x, points tried
    lanes = np.zeros((7, 0), dtype=np.int64)
    allowed: dict[int, tuple[int, int]] = {}  # index -> (N mod g, g) of an open lane that tried a point
    started = 0
    while lanes.shape[1] + len(ps) - started >= _LANE_MIN_BATCH:
        fresh = ps[started : started + _ROUND_LANES - lanes.shape[1]]
        new = np.flatnonzero((fresh > 3) & (fresh < _LANE_PRIME_LIMIT))
        new = new[_residues(curve.discriminant, fresh[new]) != 0]
        q = fresh[new]
        a, b, r = _residues(curve.A, q), _residues(curve.B, q), _isqrt_lanes(4 * q)
        lo = q + 1 - r
        lo += (lo ^ _parity_lanes(a, b, q)) & 1  # into the class of #E (mod 2)
        zero = np.zeros_like(q)
        lanes = np.concatenate([lanes, [started + new, a, b, lo, q + 1 + r, zero, zero]], axis=1)
        started += len(fresh)
        if not lanes.shape[1]:
            continue
        idx, a, b, lo, hi, x, tried = lanes
        q = ps[idx]
        # isqrt(r / 2) + 1 at the largest p of the round, for r + 1 candidates
        s = math.isqrt(math.isqrt(4 * int(q.max())) // 2) + 1
        while True:
            v = ((x * x % q * x % q) + a * x % q + b) % q
            skip = _decides_nothing(x, v, a, b, q)
            if not skip.any():
                break
            x = x + skip
        vv = v * v % q
        first, gap, count = _lane_killers(v * x % q, vv, a * vv % q, q, lo, hi, s)
        # m kills a point of the twist when 2p + 2 - m is the order of E; of
        # a progression of two or more, only N mod gap is used
        twist = _powmod_lanes(v, (q - 1) // 2, q) != 1
        first = np.where(twist, 2 * q + 2 - first, first)
        one = count == 1
        orders[idx[one]] = first[one]
        for i in idx[one & (tried > 0)].tolist():
            del allowed[i]
        last = tried + 1 == 2 * _BSGS_POINT_TRIES
        ambiguous = (column[~one].tolist() for column in (idx, first, gap, lo, hi, last))
        for i, f, g, start, end, spent in zip(*ambiguous):
            res, mod = allowed.pop(i, (0, 1))
            d = math.gcd(mod, g)
            res += mod * ((f - res) // d * pow(mod // d, -1, g // d) % (g // d))
            mod = mod // d * g
            low = start + (res - start) % mod
            if low <= end < low + mod:
                orders[i] = low
            elif not spent:
                allowed[i] = (res, mod)
        lanes[5], lanes[6] = x + 1, tried + 1
        lanes = lanes[:, (orders[idx] == 0) & ~last]
    return orders


def _count_points_lanes(curve: EllipticCurve, ps) -> np.ndarray:
    """#E(F_p) for ascending primes: _lane_orders, then the scalar
    _count_points_prime for every prime it leaves at 0."""
    ps = np.asarray(ps, dtype=np.int64)
    orders = _lane_orders(curve, ps)
    for i in np.flatnonzero(orders == 0).tolist():
        orders[i] = _count_points_prime(curve, int(ps[i]))
    return orders


def hasse_margin(curve: EllipticCurve, p: int, order: int | None = None) -> float:
    """2*sqrt(p) - |#E(F_p) - (p+1)|; positive for every prime.

    A known order #E(F_p) is used as given; otherwise it is counted.
    """
    p = check_integer("p", p)
    order = count_points(curve, p) if order is None else check_integer("order", order, 1)
    return 2.0 * math.sqrt(p) - abs(order - (p + 1))


def _hasse_margins(ps: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """hasse_margin over int64 arrays of primes and orders, bit for bit (np.sqrt rounds as math.sqrt)."""
    return 2.0 * np.sqrt(ps) - np.abs(orders - (ps + 1))


def order_sequence(curve: EllipticCurve, x: float, primes: PrimeList) -> OrderSequence:
    """Curve orders at every prime p <= x, in ascending p, counted as one
    stream of lanes (_count_points_lanes)."""
    ps = primes.upto(x)
    counts = _count_points_lanes(curve, ps)
    counts.setflags(write=False)
    return OrderSequence(curve=curve, x=x, primes=ps, counts=counts)


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
    t = check_integer("modulus t", t, 1)
    pi_x = primes.count_leq(x)
    if t > pi_x:  # more residues than primes to count
        raise CapacityError(f"census modulus t={t} exceeds pi(x) = {pi_x}")
    counts = _orders_for(curve, x, primes, orders).counts
    return dict(enumerate(np.bincount(counts % t, minlength=t).tolist()))


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
    An spf entry that is not the least prime of its n raises
    TableIntegrityError.
    The absence of complex multiplication is a hypothesis of that upper
    bound; it is not checked here, and the report records that.
    """
    s = check_integer("s", s, 1)
    check_finite("x", x)
    check_at_least("x", x, 2)
    if (bound := elliptic_prime_bound(x)) > sieve.limit:  # Hasse: orders <= x + 2 sqrt(x) + 1
        raise RangeError(f"orders up to {bound} exceed sieve limit {sieve.limit}")
    orders = _orders_for(curve, x, primes, orders)
    lhs = _ratio_power_fsum(orders.counts, s, sieve)
    pi_x = len(orders.counts)
    singular = orders.primes[_residues(curve.discriminant, orders.primes) == 0]
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
            "singular_primes": singular.tolist(),
        },
    )
