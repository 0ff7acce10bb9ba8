"""Exact arithmetic for curves with non-special divisors: polar-term
recursions, the genus-2 universal curve, and divisor cohomology on singular
rational curves."""

from .curves import (
    INF,
    Branch,
    CurveModel,
    Divisor,
    MarkedPoint,
    SingularPoint,
    arithmetic_genus,
    delta_invariant,
    h0,
    h1,
    h1_corank,
    validate,
)
from .genus2 import (
    G2Params,
    buchberger_verify,
    fit_parameters,
    normalize_presentation,
    solve_c,
    universal_relations,
)
from .laurent import LaurentSeries, ParamChange, series_substitute
from .multipoly import MultiPoly, PolyRing, poly_reduce, s_polynomial
from .normalform import closed_form_check, correction_monomial_check, run_recursion
from .rational import Rational, format_rational, parse_rational
from .sections import alpha_beta, canonical_parameter, f_sections
from .zoo import zoo

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Branch",
    "CurveModel",
    "Divisor",
    "G2Params",
    "LaurentSeries",
    "MarkedPoint",
    "MultiPoly",
    "ParamChange",
    "PolyRing",
    "Rational",
    "SingularPoint",
    "alpha_beta",
    "arithmetic_genus",
    "buchberger_verify",
    "canonical_parameter",
    "closed_form_check",
    "correction_monomial_check",
    "delta_invariant",
    "f_sections",
    "fit_parameters",
    "format_rational",
    "h0",
    "h1",
    "h1_corank",
    "normalize_presentation",
    "parse_rational",
    "poly_reduce",
    "run_recursion",
    "s_polynomial",
    "series_substitute",
    "solve_c",
    "universal_relations",
    "validate",
    "zoo",
]
