"""The T3 and T4 values come from one numpy Horner in blocks of 2^16 values
of n, int64 while the coefficient bound allows it; the scalar ``evaluate``
and ``delta_L`` are their oracles. Also the refusals that ride along: a
float ``a`` or shift, a lemma sum beyond float64, and a CLI T3 run whose
values all vanish."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romanoff_lab import romanoff, sequences
from romanoff_lab.cli import run
from romanoff_lab.errors import CapacityError, ParameterError
from romanoff_lab.lemmas import min_pk_sum, prime_log_power_sums
from romanoff_lab.moments import (
    PolynomialSpec,
    delta_L,
    delta_moment_report,
    iter_delta_values,
    iter_poly_values,
    poly_moment_report,
)
from romanoff_lab.sieve import build_sieve

# one and two blocks of n, around the 2^16 values from -z to z
Z_VALUES = st.sampled_from([0.5, 1, 32767, 32768]) | st.integers(0, 4 * 10**4)
COEFFS = st.integers(-(2**40), 2**40) | st.sampled_from([2**63, -(2**63) - 1, 3 * 2**64])


def expected_dtype(coeffs, z):
    bound = sum(abs(c) * max(math.floor(z), 1) ** i for i, c in enumerate(coeffs))
    return np.dtype(np.int64) if bound < 2**63 else np.dtype(object)


def check_blocks(blocks, expected, dtype, z):
    half = math.floor(z)
    assert len(blocks) == len(range(-half, half + 1, 2**16))
    assert all(block.dtype == dtype for block in blocks)
    assert np.concatenate(blocks).tolist() == expected


@given(st.lists(COEFFS, min_size=1, max_size=5).filter(lambda c: c[-1] != 0), Z_VALUES)
@settings(max_examples=25, deadline=None)
def test_poly_blocks_are_the_scalar_values(coeffs, z):
    poly = PolynomialSpec(tuple(coeffs))
    half = math.floor(z)
    expected = [abs(r) for r in map(poly.evaluate, range(-half, half + 1)) if r != 0]
    check_blocks(list(iter_poly_values(poly, z)), expected, expected_dtype(coeffs, z), z)


def family_coeffs(a, bs):
    """a^(k+1) prod (b_i - b), ascending, by an explicit convolution."""
    coeffs = [a ** (len(bs) + 1)]
    for bi in bs:
        product = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            product[i] += bi * c
            product[i + 1] -= c
        coeffs = product
    return coeffs


@given(
    st.integers(1, 12),
    st.lists(st.integers(-40, 40) | st.just(0), min_size=1, max_size=4),
    Z_VALUES,
)
@settings(max_examples=25, deadline=None)
def test_delta_blocks_are_the_scalar_values(a, bs, z):
    half = math.floor(z)
    expected = [delta_L(a, b, bs) for b in range(-half, half + 1) if b not in bs]
    dtype = expected_dtype(family_coeffs(a, bs), z)
    check_blocks(list(iter_delta_values(a, bs, z)), expected, dtype, z)


def test_delta_blocks_run_past_int64():
    # 12^5 * 40000^4 is beyond int64: the values are Python ints
    bs = [-3, 0, 0, 7]
    blocks = list(iter_delta_values(12, bs, 40000))
    assert {block.dtype for block in blocks} == {np.dtype(object)}
    expected = [delta_L(12, b, bs) for b in range(-40000, 40001) if b not in bs]
    assert np.concatenate(blocks).tolist() == expected


@pytest.mark.parametrize(
    "coeffs,dtype",
    [
        ((2**63 - 1,), np.int64),
        ((2**63,), object),
        ((2**62 - 1, 2**62), np.int64),  # R(1) = 2^63 - 1
        ((2**62, 2**62), object),  # R(1) = 2^63
    ],
)
def test_bound_at_two_to_the_63(coeffs, dtype):
    poly = PolynomialSpec(coeffs)
    (block,) = iter_poly_values(poly, 1)
    assert block.dtype == np.dtype(dtype)
    assert block.tolist() == [abs(poly.evaluate(n)) for n in (-1, 0, 1) if poly.evaluate(n)]


def test_evaluate_keeps_its_scalar_form():
    poly = PolynomialSpec((7, 0, 1))
    assert poly.evaluate(3) == 16 and type(poly.evaluate(3)) is int
    n = np.arange(-2, 3, dtype=np.int64)
    assert poly.evaluate(n).tolist() == [11, 8, 7, 8, 11]
    assert n.tolist() == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("a,bs", [(2.0, [1]), (2, [1.5]), (2, [1, 3.0])])
def test_float_a_or_shift_is_refused(a, bs):
    with pytest.raises(ParameterError, match="not an integer"):
        iter_delta_values(a, bs, 10)
    with pytest.raises(ParameterError):
        delta_moment_report(a, bs, 10, 1, 100, build_sieve(100))


def test_huge_coefficient_below_z_one_keeps_the_z_error(capsys):
    # R(0) = 1 but R's leading coefficient is beyond int64: Horner runs on Python ints
    argv = "moments --report poly --poly 99999999999999999999,1 --z 0.5 --s 1".split()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: z=0.5 must be >= 1\n"


def test_poly_whose_values_all_vanish_sizes_the_sieve_to_the_content(tmp_path):
    # 3n^3 - 3n vanishes on -1, 0, 1; phi of the content 3 needs a sieve to 3
    out = tmp_path / "t3.json"
    argv = "moments --report poly --poly 3,0,-3,0 --z 1 --s 1 --out".split()
    assert run(argv + [str(out)]) == 0
    report = poly_moment_report(PolynomialSpec.from_descending([3, 0, -3, 0]), 1.0, 1, build_sieve(100))
    expected = {"report": "poly", "moment": dataclasses.asdict(report)}
    assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert report.lhs == 0.0


@pytest.mark.parametrize(
    "call,s",
    [
        (lambda primes: prime_log_power_sums(2, 500, primes, 1000), 500),
        (lambda primes: prime_log_power_sums(1000, 200, primes, 1000), 200),
        (lambda primes: min_pk_sum(2, 2000, primes, 10**5), 2000),
    ],
    ids=["head", "tail_ratio", "min_pk"],
)
def test_lemma_sums_beyond_float64_are_capacity_errors(call, s, primes100k):
    with pytest.raises(CapacityError, match=f"s={s} "):
        call(primes100k)


def test_theorem6_reads_its_counts_off_one_list(monkeypatch, primes100k):
    # the pair sum and the histogram take a copy; gamma_1, the half count and rho_A do not
    calls = []
    enumerate_terms = sequences.enumerate_terms

    def counted(*args, **kwargs):
        calls.append(args[0])
        return enumerate_terms(*args, **kwargs)

    monkeypatch.setattr(sequences, "enumerate_terms", counted)
    monkeypatch.setattr(romanoff, "enumerate_terms", counted)
    spec = sequences.Polynomial(PolynomialSpec.from_descending([1, 0, 1]))
    out = romanoff.theorem6_report(spec, 10**4, 1.0, primes100k)
    assert len(calls) == 3
    terms = [n * n + 1 for n in range(1, 100)]
    gamma1 = next(e for e in out if e.name == "gamma1")
    assert gamma1.parameters["half_count"] == sum(t <= 5000 for t in terms)
    assert gamma1.value == gamma1.parameters["half_count"] / len(terms)
    second = next(e for e in out if e.name == "second_moment_constant")
    assert second.parameters["rho_A"] == 1
