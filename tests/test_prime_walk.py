"""The one walk over a PrimeList: every reader of a whole table takes its
primes through ``steps`` (int64 views of _PRIME_STEP primes), so each sum sees
the same terms in the same order at any step. With x on a step edge, theta,
the Mertens products, both lemma prime sums and the lemma-2 table keep the
bits of the default step."""

import hashlib

import numpy as np
import pytest

from romanoff_lab import sieve as sieve_module
from romanoff_lab.errors import ParameterError, RangeError
from romanoff_lab.lemmas import prime_sums
from romanoff_lab.moments import lemma2_product_table
from romanoff_lab.sieve import PrimeList, chebyshev_theta, mertens_products

STEPS = [1, 7, 64, sieve_module._PRIME_STEP]
DEFAULT_STEP = sieve_module._PRIME_STEP
# (power ks, min ks, ss) of the lemma prime sums: k = 10 at s = 1 and 3 (6 series),
# and the 36-series grid of `lemmas --prime-sums --min-pk`
LEMMA_GRIDS = {
    "lemma": ([10], [10], [1, 3]),
    "lemma_command": ([2, 10, 100, 1000], [1, 2, 10, 100], [1, 2, 3]),
}


def walk_readers(primes: PrimeList, x: int, lemma_grids=tuple(LEMMA_GRIDS)) -> dict:
    """Every float a walk reader returns at x, as hex, and a digest of the table;
    the lemma prime sums on each of the named grids."""
    table = lemma2_product_table(x, primes)
    bits = {
        "theta": chebyshev_theta(x, primes).hex(),
        "mertens": [v.hex() for v in mertens_products(x, primes)],
        "lemma2": hashlib.sha256(table.tobytes()).hexdigest(),
    }
    for name in lemma_grids:
        powers, mins = prime_sums(*LEMMA_GRIDS[name], primes, x)
        bits[name] = [v.hex() for out in [*powers.values(), *mins.values()] for v in out]
    return bits


@pytest.fixture(scope="module")
def edges(primes1m):
    # 448 = 7 * 64 primes end a step of 1, 7 and 64; 2^16 primes end the default step
    return [int(primes1m.values[448 - 1]), int(primes1m.values[DEFAULT_STEP - 1])]


@pytest.fixture(scope="module")
def default_bits(primes1m, edges):
    return [walk_readers(primes1m, x) for x in edges]


@pytest.mark.parametrize("step", STEPS)
def test_every_reader_keeps_its_bits_at_any_step(step, primes1m, edges, default_bits, monkeypatch):
    monkeypatch.setattr(sieve_module, "_PRIME_STEP", step)
    # the lemma walk pays one exact block total per series per step: on the
    # 2^16-prime edge the command's grid runs from a step of 64, the small grid
    # from a step of 7, and neither at a step of 1
    far = ("lemma", "lemma_command") if step >= 64 else ("lemma",) if step > 1 else ()
    got = [walk_readers(primes1m, edges[0]), walk_readers(primes1m, edges[1], far)]
    assert got == [default_bits[0], {key: default_bits[1][key] for key in got[1]}]


class TestSteps:
    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("x, above", [(2, 0), (3, 2), (1000, 0), (1000, 2), (7919, 10), (1.5, 0)])
    def test_steps_chain_to_the_primes_in_the_range(self, step, x, above, primes100k, monkeypatch):
        want = [p for p in primes100k.upto(x).tolist() if p > above]
        monkeypatch.setattr(sieve_module, "_PRIME_STEP", step)
        steps = list(primes100k.steps(x, above))
        assert all(len(s) == step for s in steps[:-1])
        assert all(0 < len(s) <= step for s in steps)
        assert [p for s in steps for p in s.tolist()] == want

    def test_steps_are_int64_views_of_the_table(self, primes100k):
        steps = list(primes100k.steps(10**5))
        assert len(steps) == 1 and steps[0].dtype == np.int64
        assert np.shares_memory(steps[0], primes100k.values)

    def test_a_step_holds_no_more_than_the_step(self, primes1m):
        steps = list(primes1m.steps(10**6, above=2))
        assert [len(s) for s in steps] == [DEFAULT_STEP, primes1m.count_leq(10**6) - 1 - DEFAULT_STEP]

    def test_range_is_checked_before_the_first_step(self, primes100k):
        # the walk raises at the call, not at the first next()
        with pytest.raises(RangeError, match="x=200000"):
            primes100k.steps(2 * 10**5)
        with pytest.raises(ParameterError):
            primes100k.steps(float("nan"))
