"""romanoff-lab: exact desk-scale computation of totient-ratio moment sums,
Romanoff-type representation counts, elliptic-curve order statistics, and
the empirical constants of the inequalities that tie them together.

The usual entry points:

    from romanoff_lab import build_sieve, PrimeList, totient
    from romanoff_lab import moment_sum, theorem1_report
    from romanoff_lab import representation_counts, theorem6_report

No submodule loads with the package. Every public name, and every
submodule, loads on first access (PEP 562), so a CLI call compiles only the
modules its subcommand runs, and one that computes nothing never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it owns; the one list behind __all__ and __getattr__
_PUBLIC = {
    "cli": "",
    "elliptic": (
        "EllipticCurve OrderSequence congruence_class_census count_points "
        "hasse_margin legendre_symbol order_sequence theorem5_report"
    ),
    "errors": (
        "CapacityError ConstructionError DomainError ParameterError RangeError "
        "TableIntegrityError"
    ),
    "exact": "",
    "extremal": "AlphaSweepEntry ExtremalSet alpha_sweep construct_extremal_set",
    "lemmas": (
        "GammaValue MinPkSum PrimeLogPowerSums abel_check incomplete_gamma prime_sums"
    ),
    "moments": (
        "MomentReport PolynomialSpec delta_L delta_moment_report lemma1_product "
        "lemma2_check lemma2_product_table lemma3_report moment_sum omega_count "
        "poly_moment_report theorem1_report"
    ),
    "romanoff": (
        "ConstantEstimate OrderDistribution RepresentationProfile "
        "cauchy_schwarz_holds density_count konyagin_ratio multiplicative_order "
        "order_distribution order_weighted_sum representation_counts root_count "
        "schnirelmann_pi2 second_moment theorem6_report theorem9_report"
    ),
    "sequences": (
        "EllipticOrders Explicit Geometric Polynomial PowerTower SequenceSpec "
        "congruence_pair_sum enumerate_terms format_sequence_spec parse_sequence_spec"
    ),
    "sieve": (
        "FactorSieve MertensProducts PrimeList build_sieve chebyshev_theta is_prime "
        "is_squarefree mertens_products nu p_minus p_plus totient totient_ratio "
        "totient_table"
    ),
    "verify": "verify_all",
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_PUBLIC})
