"""Exact accumulation helpers.

Moment sums are exact rationals whose reduced denominators grow like the lcm
of the per-term denominators, so naive left-to-right Fraction addition is
quadratic in practice.  ``exact_fraction_sum`` sums in two stages: raw
(num, den) tree merges inside fixed-size chunks, one gcd per chunk, then a
balanced Fraction tree over the chunk totals.

``float_sum`` adds float64 arrays exactly and rounds once, the result
``math.fsum`` gives (Shewchuk, Discrete Comput. Geom. 18, 1997) but taken a
whole array at a time: the terms are bucketed by binary exponent, as in
Neal's superaccumulator (arXiv:1505.05571), and ``np.bincount`` adds each
bucket's mantissa halves. ``float_sums`` does so for several series at once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

# terms per bincount: a bucket's total of mantissa halves (each below 2^27 in
# magnitude) stays below 2^40, exact in float64, and each temporary (64 KB)
# under glibc's mmap threshold
_SUM_CHUNK = 1 << 13
_FRACTION_CHUNK = 512  # Fractions per raw (num, den) tree merge of exact_fraction_sum


def _tree_total(items: list, add):
    """The total of a nonempty list as a balanced tree: add adjacent pairs,
    carry an odd last item up, and repeat until one item is left."""
    while len(items) > 1:
        merged = [add(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def pair_tree_sum(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Sum (numerator, denominator) pairs by _tree_total, without any gcd
    reduction: the pair a/b + c/d is (ad + cb, bd); (0, 1) for no pairs."""
    items = list(pairs)
    if not items:
        return (0, 1)
    return _tree_total(items, lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]))


def exact_fraction_sum(fractions: Iterable[Fraction]) -> Fraction:
    """Exact sum of many Fractions, balanced to keep intermediate gcds cheap: pair_tree_sum
    of each _FRACTION_CHUNK terms, reduced once, then the same tree over the chunk totals."""
    terms = iter(fractions)
    totals = []
    while chunk := [(f.numerator, f.denominator) for f in islice(terms, _FRACTION_CHUNK)]:
        totals.append(Fraction(*pair_tree_sum(chunk)))
    return _tree_total(totals, operator.add) if totals else Fraction(0)


def float_sum(blocks: Iterable[np.ndarray]) -> float:
    """The sum of every float64 entry of ``blocks``, correctly rounded: the
    bits math.fsum gives wherever it has no intermediate overflow, +0.0 for a
    zero or empty sum, and the same for any split of the terms into blocks.

    np.frexp writes a term as m * 2^e with 0.5 <= |m| < 1, and m * 2^53 =
    hi * 2^26 + lo with hi = floor(m * 2^27) and 0 <= lo < 2^26. Per chunk,
    np.bincount adds hi and lo over the terms of each e, exactly (below 2^40);
    one Python int holds the sum in units of 2^-1127 (e >= -1073), and the
    int / int division rounds it once. A term that is infinite or nan, and a
    sum beyond float64, raise OverflowError.
    """
    # map, not a loop variable: a caller's block of terms is freed before
    # the caller makes the next one
    return sum(map(_block_total, blocks)) / (1 << 1127)


def float_sums(rows: Iterable[Iterable[np.ndarray]], n: int) -> list[float]:
    """float_sum of n series at once: each row holds one block of each series,
    in series order, and each series keeps its own exact total, rounded once."""
    totals = [0] * n
    for i, total in enumerate(map(_block_total, chain.from_iterable(rows))):
        totals[i % n] += total
    return [total / (1 << 1127) for total in totals]


def _block_total(block) -> int:
    flat = np.asarray(block, dtype=np.float64).ravel()
    return sum(
        _chunk_total(flat[i : i + _SUM_CHUNK]) for i in range(0, flat.size, _SUM_CHUNK)
    )


def _chunk_total(chunk: np.ndarray) -> int:
    if not np.isfinite(chunk).all():
        raise OverflowError("a term is infinite or nan")
    mant, exp = np.frexp(chunk)
    low = int(exp.min())
    key = np.subtract(exp, low, dtype=np.intp)
    mant *= 2.0**27
    hi = np.floor(mant)
    mant -= hi
    mant *= 2.0**26
    his, los = np.bincount(key, hi).tolist(), np.bincount(key, mant).tolist()
    return sum(
        ((int(h) << 26) + int(lo)) << k
        for k, (h, lo) in enumerate(zip(his, los), low + 1074)
        if h or lo
    )
