"""Sections with prescribed principal parts, canonical formal parameters, and
the two residue-type coefficients deciding cohomology vanishing.

For weights (a_1, ..., a_n) summing to the genus and m > a_i, the section
f_i[-m] is the unique global function with poles bounded by m p_i + sum_j a_j
p_j whose expansion at p_i in the chosen parameter is

    u^-m  +  (nothing between exponents -m and -a_i)  +  c_{-a_i} u^-a_i + ...

with constant term zero.  One solver serves every caller.  It takes a basis
of the regular functions with poles bounded by m_max p_i + sum_{j != i} a_j
p_j once, by one nullspace of the jet conditions, and expands it once at p_i.
The basis is triangular in the pole order at p_i, so f_i[-m] for m <= m_max
is a small solve over the basis functions with poles of order at most m.
The canonical parameter at p_i is the unique tangent-compatible parameter
making the coefficient at u^-a_i vanish for every m; it is found order by
order, advancing the basis expansions through each exact correction step.
The sections in the canonical parameter are solved over those advanced
expansions; their expansions at the other marked points need no change.
Every expansion of a function is its coordinates' combination (`_combine`)
of the ambient elements' series at the marked point, each built once
(`_element_series`) straight from the element's integer numerators over one
denominator, the tangent's powers folded in on the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .curves import (
    CurveModel,
    Divisor,
    FunctionOnCurve,
    _elt_expansion,
    _power,
    arithmetic_genus,
    constraints,
    validate,
)
from .errors import CohomologyError, TruncationError, ValidationError
from .laurent import LaurentSeries, ParamChange, series_substitute


def _normalize_weights(curve: CurveModel, weights: dict) -> dict:
    out = {}
    for pid, a in weights.items():
        idx = curve.point_index(pid)
        if type(a) is not int or a < 0:
            raise ValidationError("weights must be nonnegative integers")
        out[f"p{idx}"] = a
    if sum(out.values()) != arithmetic_genus(curve):
        raise ValidationError(
            f"weights sum to {sum(out.values())}, genus is {arithmetic_genus(curve)}"
        )
    return out


def _check_int(name: str, m) -> None:
    """Reject a pole order that is not an int (a bool included)."""
    if type(m) is not int:
        raise ValidationError(f"{name} {m!r} must be an int, not a {type(m).__name__}")


def _element_series(curve, pid, elts, coords, low, high) -> list:
    """Each ambient element's expansion at a marked point on exponents
    [low, high), in the tangent-rescaled parameter u = s/v, for the elements
    with a nonzero coordinate in some vector of coords: None for the others,
    which `_combine` never reads.  With v = p/q, the coefficient n_e/D at s^e
    is n_e v^e / D = n_e v^low p^(e-low) q^(high-1-e) / (D q^(high-1-low))
    at u^e: one integer factor per exponent over one denominator."""
    mp = curve.marked(pid)
    p, q = mp.tangent.numerator, mp.tangent.denominator
    top = max(high - 1 - low, 0)
    head, foot = _power(mp.tangent, low)
    factors = [head * p ** i * q ** (top - i) for i in range(top + 1)]
    foot *= q ** top
    out = []
    for k, elt in enumerate(elts):
        if not any(y[k] for y in coords):
            out.append(None)
            continue
        nums, den = _elt_expansion(elt, mp.component, mp.point, low, high)
        out.append(LaurentSeries._of("u", low, [x * f for x, f in zip(nums, factors)], den * foot, high, None))
    return out


@dataclass(frozen=True)
class Section:
    point_id: str
    order: int
    function: FunctionOnCurve
    expansions: dict  # point_id -> LaurentSeries

    def alpha(self, other_id: str, exponent: int) -> Fraction:
        """Expansion coefficient of this section at another marked point."""
        return self.expansions[other_id].coefficient(exponent)


def _regular_basis(curve, weights, i, m_max, high):
    """(ambient basis, regular-function basis, expansions at p_i) for the
    divisor weights + m_max p_i: one nullspace of the jet conditions (the
    identity when there are none), each basis function expanded at p_i on
    exponents [-m_max, high) in u = s/v.

    The poles at p_i are the last columns eliminated, by order, so each
    kernel vector ends at its free column: the basis is triangular in the
    pole order at p_i, and its first functions, those with a pole of order at
    most m there, span every such function."""
    elts, rows = constraints(curve, Divisor.of({**weights, i: m_max}))
    mp = curve.marked(i)
    at_i = ("pole", mp.component, mp.point)
    cols = sorted(range(len(elts)), key=lambda c: elts[c][3] if elts[c][:3] == at_i else 0)
    kernel = linalg.nullspace([[row[c] for c in cols] for row in rows], ncols=len(elts))
    back = sorted(range(len(cols)), key=cols.__getitem__)  # the inverse permutation
    basis = [[v[k] for k in back] for v in kernel]
    series = _element_series(curve, i, elts, basis, -m_max, high)
    return elts, basis, [_combine(b, series) for b in basis]


def _canonicalise(weights, i, m_max, expansions, order):
    """(pc, expansions): the tangent-compatible change at p_i, known below
    u^order, making the coefficient at u^-a_i of every f_i[-m] with
    a_i < m <= m_max vanish, and the basis expansions advanced through it.

    Each correction u -> u + (alpha/m) u^r is exact, so the expansions
    advance by it with no loss of window."""
    a_i = weights.get(i, 0)
    pc = ParamChange.identity("u", order=order)
    for m in range(a_i + 1, m_max + 1):
        y = _solve_section(weights, i, m, expansions, order)
        alpha = sum(c * s.numerator(-a_i) / s.den for c, s in zip(y, expansions) if c)
        if alpha:
            eps, r = alpha / m, m - a_i + 1
            pc = pc.compose(eps, r)
            expansions = [series_substitute(s, eps, r) for s in expansions]
    return pc, expansions


def _solve_section(weights, i, m, expansions, order):
    """Coordinates of f_i[-m] over the first basis functions, those with a
    pole of order at most m at p_i, given the basis expansions there: the
    unique combination with coefficient 1 at -m, none on (-m, -a_i) and
    constant term zero.  The expansions are in a parameter known below
    u^order (None: u = s/v itself); a valuation-1 change keeps each
    expansion's valuation.  The rows are the expansions' integer numerators:
    the solve is for z_k = y_k / den_k, and y_k = z_k * den_k."""
    if order is not None and order <= m + 1:
        raise TruncationError(
            f"a parameter known below u^{order} cannot fix the constant term of "
            f"f_{i}[-{m}]: it must be known below u^{m + 2}"
        )
    near = [s for s in expansions if s.low >= -m]
    targets = [(-m, 1)] + [(e, 0) for e in range(-m + 1, -weights.get(i, 0))] + [(0, 0)]
    rows = [[s.numerator(e) for s in near] for e, _ in targets]
    solved = linalg.solve_affine(rows, [value for _, value in targets])
    if solved is None:
        raise CohomologyError(
            f"no section with principal part u^-{m} at {i}: h1 obstruction "
            f"(weights {weights})"
        )
    z, kernel = solved
    if kernel:
        raise CohomologyError(
            f"section of order {m} at {i} is not unique: "
            f"h1({Divisor.of({**weights, i: m}).items}) != 0"
        )
    return [x * s.den for x, s in zip(z, near)]


def _combine(y, series) -> LaurentSeries:
    """The combination sum_k y_k series_k, for coordinates y with a nonzero
    entry: a section's expansion from the basis expansions."""
    terms = [s.scale(c) for c, s in zip(y, series) if c]
    return sum(terms[1:], terms[0])


def _function(curve, elts, basis, y) -> FunctionOnCurve:
    """The function with coordinates y over the (first) basis functions."""
    return FunctionOnCurve(curve, elts, [sum(c * b[k] for c, b in zip(y, basis) if c)
                                         for k in range(len(elts))])


def f_sections(curve: CurveModel, weights: dict, i: str, m: int, tail: int = 6) -> Section:
    """Solve for f_i[-m]; expansions are returned at every marked point to
    exponents < tail, in each point's parameter u = s/v."""
    _check_int("m", m)
    validate(curve)
    weights = _normalize_weights(curve, weights)
    i = f"p{curve.point_index(i)}"
    a_i = weights.get(i, 0)
    if m <= a_i:
        raise ValidationError(f"need m > a_i = {a_i}, got m = {m}")
    elts, basis, expansions = _regular_basis(curve, weights, i, m, 1)
    fn = _function(curve, elts, basis, _solve_section(weights, i, m, expansions, None))
    expansions = {}
    for pid in curve.point_ids():
        low = -m if pid == i else -weights.get(pid, 0)
        expansions[pid] = _combine(fn.coords, _element_series(curve, pid, elts, [fn.coords], low, tail))
    return Section(i, m, fn, expansions)


def canonical_parameter(curve: CurveModel, weights: dict, i: str, m_max: int,
                        order: int | None = None) -> ParamChange:
    """Tangent-compatible parameter change at p_i making the coefficient at
    u^-a_i of every f_i[-m], m <= m_max, vanish exactly; m_max must exceed
    a_i, or there is no correction to compute.  The change is the
    composition of the exact correction steps, known below u^order."""
    _check_int("m_max", m_max)
    validate(curve)
    weights = _normalize_weights(curve, weights)
    i = f"p{curve.point_index(i)}"
    a_i = weights.get(i, 0)
    if m_max <= a_i:
        raise ValidationError(f"need m_max > a_i = {a_i} for a correction step, got m_max = {m_max}")
    _, _, expansions = _regular_basis(curve, weights, i, m_max, 1)
    return _canonicalise(weights, i, m_max, expansions, m_max + 6 if order is None else order)[0]


def alpha_beta(curve: CurveModel, i: str = "p0", j: str = "p1",
               weights: dict | None = None):
    """The coefficients of t_j^-1 in f_i[-g] and f_i[-(g+1)], computed in the
    canonical parameter at p_i.  (alpha != 0) detects h1(g p_i) = 0 and
    ((alpha, beta) != (0,0)) detects h1((g+1) p_i) = 0."""
    validate(curve)
    g = arithmetic_genus(curve)
    i = f"p{curve.point_index(i)}"
    j = f"p{curve.point_index(j)}"
    if i == j:
        raise ValidationError(f"alpha_beta needs two different marked points, got {i} twice")
    if weights is None:
        weights = {i: g - 1, j: 1}
    weights = _normalize_weights(curve, weights)
    if weights.get(j, 0) < 1:
        raise ValidationError("the second point must carry weight >= 1")
    elts, basis, expansions = _regular_basis(curve, weights, i, g + 1, 1)
    _, expansions = _canonicalise(weights, i, g + 1, expansions, g + 4)
    fns = [_function(curve, elts, basis, _solve_section(weights, i, m, expansions, g + 4)) for m in (g, g + 1)]
    # the expansions at p_j need no parameter change: only p_i's moves
    at_j = _element_series(curve, j, elts, [fn.coords for fn in fns], -weights[j], 1)
    return tuple(_combine(fn.coords, at_j).coefficient(-1) for fn in fns)


def rescale_tangent(curve: CurveModel, point_id: str, factor) -> CurveModel:
    """The same curve with one marked point's tangent scalar times an int or a Fraction."""
    if isinstance(factor, bool) or not isinstance(factor, (int, Fraction)):
        raise ValidationError(f"tangent rescale factor {factor!r} must be an int or a Fraction")
    factor = Fraction(factor)
    if factor == 0:
        raise ValidationError("tangent rescale factor must be nonzero")
    idx = curve.point_index(point_id)
    marked = list(curve.marked_points)
    old = marked[idx]
    marked[idx] = type(old)(old.component, old.point, old.tangent * factor, old.weight)
    return type(curve)(curve.components, curve.singularities, tuple(marked))
