"""Checks that still hold where no brute oracle runs, each independent of the
code it checks.

Erdős's covering class: every k >= 0 lies in one of 0 (mod 2), 0 (mod 3),
1 (mod 4), 3 (mod 8), 7 (mod 12) and 23 (mod 24), so for n = 7629217 (mod
11184810) every n - 2^k is divisible by one of 3, 7, 5, 17, 13 and 241 (Erdős,
Summa Brasil. Math. 2, 1950). No n - 2^k of the least member is prime, so the
powers of 2 give it r(n) = 0.

The T1 mean value rides on the golden rows of tests/test_report_outputs.py.
"""

from romanoff_lab.romanoff import representation_counts
from romanoff_lab.sequences import Geometric
from romanoff_lab.sieve import PrimeList

COVERED = 7629217
COVER = (3, 5, 7, 13, 17, 241)


def test_every_shift_of_the_covered_n_is_a_proper_multiple_of_the_cover():
    shifts = [COVERED - 2**k for k in range(COVERED.bit_length()) if 2**k < COVERED]
    assert len(shifts) == 23
    assert all(any(d % q == 0 and d > q for q in COVER) for d in shifts)


def test_the_covered_n_has_no_representation_on_the_powers_of_two():
    r = representation_counts(Geometric(2, 0), COVERED, PrimeList.build(COVERED)).r
    # its odd neighbour below is represented: r does not vanish there too
    assert r[COVERED] == 0 and r[COVERED - 2] == 5
