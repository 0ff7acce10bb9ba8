"""Sections with prescribed principal parts, canonical formal parameters, and
the two residue-type coefficients deciding cohomology vanishing.

For weights (a_1, ..., a_n) summing to the genus and m > a_i, the section
f_i[-m] is the unique global function with poles bounded by m p_i + sum_j a_j
p_j whose expansion at p_i in the chosen parameter is

    u^-m  +  (nothing between exponents -m and -a_i)  +  c_{-a_i} u^-a_i + ...

with constant term zero.  One entry, `solve_sections`, serves every caller:
`f_sections`, `canonical_parameter`, `alpha_beta`, the genus-2 fit's section
series and the desk check's alpha table.  It takes a basis of the regular
functions with poles bounded by m_max p_i + sum_{j != i} a_j p_j once, by one
`linalg.kernel` of the jet conditions, and expands it once at p_i.  The basis
is triangular in the pole order at p_i, so f_i[-m] for m <= m_max is a small
solve over the basis functions with poles of order at most m.  Where their
expansions' lows are exactly the exponents the section prescribes, -m, ...,
-(a_i+1) and 0, the solve is forward substitution on the expansions'
integer numerators, with no elimination; only at a Weierstrass-type point or
a degenerate weight, where another low appears or one is missing, is it one
integer kernel, which finds the section or shows it missing or not unique.
The canonical parameter at p_i is the unique tangent-compatible parameter
making the coefficient at u^-a_i vanish for every m; given a depth, the
entry finds it order by order as exact correction steps u -> u + eps u^r,
each alpha one integer dot product, advancing the basis expansions through
each step, solves the sections over those advanced expansions and returns
the steps.  Only `canonical_parameter` composes them, into the change known
below u^(m_max + 6).  From the kernel to the sections, every coordinate is
an integer over one denominator; Fractions are made only where results
leave.  A section's expansion at p_i is its coordinates' combination
(`_combine`) of the basis expansions.  Its expansion at another marked point
in `at`, which the change at p_i leaves alone, is its ambient coordinates'
combination of the elements' series there (`_element_series`); the ambient
coordinates are built only for the points in `at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
from .errors import CohomologyError, ValidationError
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


def _element_series(curve, pid, elts, used, low, high) -> dict:
    """{k: expansion of elts[k] at a marked point on exponents [low, high)}
    for the indices k in used, in the tangent-rescaled parameter u = s/v.
    With v = p/q, the coefficient n_e/D at s^e is n_e v^e / D =
    n_e v^low p^(e-low) q^(high-1-e) / (D q^(high-1-low)) at u^e: one
    integer factor per exponent over one denominator."""
    mp = curve.marked(pid)
    p, q = mp.tangent.numerator, mp.tangent.denominator
    top = max(high - 1 - low, 0)
    head, foot = _power(mp.tangent, low)
    factors = [head * p ** i * q ** (top - i) for i in range(top + 1)]
    foot *= q ** top
    out = {}
    for k in used:
        nums, den = _elt_expansion(elts[k], mp.component, mp.point, low, high)
        out[k] = LaurentSeries._of("u", low, [x * f for x, f in zip(nums, factors)], den * foot, high)
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
    divisor weights + m_max p_i: one kernel of the jet conditions (the
    identity when there are none), (functions, den), each function a
    {element: int} map of its coordinates over den, and each expanded at p_i
    on exponents [-m_max, high) in u = s/v.

    The poles at p_i are the last columns eliminated, by order, so each
    kernel vector ends at its free column: the basis is triangular in the
    pole order at p_i, and its first functions, those with a pole of order at
    most m there, span every such function."""
    elts, rows = constraints(curve, Divisor.of({**weights, i: m_max}))
    mp = curve.marked(i)
    at_i = ("pole", mp.component, mp.point)
    cols = sorted(range(len(elts)), key=lambda c: elts[c][3] if elts[c][:3] == at_i else 0)
    vectors, den = linalg.kernel([[row[c] for c in cols] for row in rows], ncols=len(elts))
    basis = [{cols[c]: x for c, x in v.items()} for v in vectors]
    series = _element_series(curve, i, elts, {k for v in basis for k in v}, -m_max, high)
    return elts, (basis, den), [_combine(v, den, series) for v in basis]


def _canonicalise(weights, i, m_max, expansions):
    """(steps, expansions): the correction steps (eps, r), each the exact
    change u -> u + eps u^r applied in turn, making the coefficient at
    u^-a_i of every f_i[-m] with a_i < m <= m_max vanish, and the basis
    expansions advanced through them.

    Each step is exact, so the expansions advance by it with no loss of
    window."""
    a_i = weights.get(i, 0)
    steps = []
    for m in range(a_i + 1, m_max + 1):
        z, den = _solve_section(weights, i, m, expansions)
        alpha = sum(x * s.numerator(-a_i) for x, s in zip(z, expansions) if x)
        if alpha:
            eps, r = Fraction(alpha, den * m), m - a_i + 1
            steps.append((eps, r))
            expansions = [series_substitute(s, eps, r) for s in expansions]
    return steps, expansions


def _solve_section(weights, i, m, expansions):
    """Coordinates of f_i[-m] over the first basis functions, those with a
    pole of order at most m at p_i, given the basis expansions there: the
    unique combination with coefficient 1 at -m, none on (-m, -a_i) and
    constant term zero, as integers (Z, D), D > 0: Z_k / D weighs expansion
    k's numerators n_k, so the section's numerators are sum_k Z_k n_k over D.
    The expansions are in u = s/v or advanced through exact correction
    steps; a valuation-1 change keeps each expansion's valuation.

    When the expansions' lows are exactly the target exponents, -m, ...,
    -(a_i+1) and 0, the system is triangular with nonzero pivots, the lead
    numerators: `_forward_substitute` solves it, with no elimination.  Any
    other shape, at a Weierstrass-type point or a degenerate weight, is one
    `linalg.kernel` of the numerators with minus the values as one more
    column: a unique section is its one vector, D at that column."""
    near = [s for s in expansions if s.low >= -m]
    targets = [(-m, 1)] + [(e, 0) for e in range(-m + 1, -weights.get(i, 0))] + [(0, 0)]
    order = sorted(range(len(near)), key=lambda k: near[k].low)
    if [near[k].low for k in order] == [e for e, _ in targets]:
        return _forward_substitute(near, order, targets)
    n = len(near)
    kernel, den = linalg.kernel([[s.numerator(e) for s in near] + [-value] for e, value in targets], n + 1)
    if not kernel or n not in kernel[-1]:  # a pivot in the values' column
        raise CohomologyError(f"no section with principal part u^-{m} at {i}: h1 obstruction (weights {weights})")
    if len(kernel) > 1:
        raise CohomologyError(f"section of order {m} at {i} is not unique: "
                              f"h1({Divisor.of({**weights, i: m}).items}) != 0")
    return [kernel[0].get(k, 0) for k in range(n)], den


def _forward_substitute(near, order, targets):
    """(Z, D) for the triangular system sum_k z_k near_k(e) = value at each
    target (e, value) in the numerators, near[order[t]] having its lead at
    the t-th target: z_k = Z_k / D over one common denominator D > 0.  At
    the pivot k with lead numerator p, R = value*D - sum_done Z_j n_j(e)
    gives z_k = R / (D p), so the finished Z's and D scale by p / gcd(R, p),
    its sign moved onto Z_k."""
    den, z, done = 1, [0] * len(near), []
    for (e, value), k in zip(targets, order):
        pivot = near[k].numerator(e)
        r = value * den
        for j in done:
            s = near[j]
            r -= z[j] * s.coeffs[e - s.low]
        g = gcd(r, pivot)
        f, r = (pivot // g, r // g) if pivot > 0 else (-pivot // g, -r // g)
        if f != 1:
            den *= f
            for j in done:
                z[j] *= f
        z[k] = r
        done.append(k)
    return z, den


def _combine(coords, den, series) -> LaurentSeries:
    """sum_k coords[k] series[k] / den for integer coordinates, coords a
    nonempty {index: nonzero int} map over den > 0: a basis function's or a
    section's expansion, on one list of integer numerators over
    den * lcm(series[k].den), on [min low, min cut), content divided once."""
    terms = [(c, series[k]) for k, c in coords.items()]
    low, cut = min(s.low for _, s in terms), min(s.cut for _, s in terms)
    common = lcm(*[s.den for _, s in terms])
    acc = [0] * (cut - low)
    for c, s in terms:
        f = c * (common // s.den)
        for k, x in enumerate(s.coeffs[:max(cut - s.low, 0)], s.low - low):
            acc[k] += f * x
    return LaurentSeries._of(terms[0][1].var, low, acc, den * common, cut)


def solve_sections(curve: CurveModel, weights: dict, i: str, orders, high: int = 1,
                   depth: int | None = None, at=()):
    """(steps, elts, {m: (coords, expansions)}): f_i[-m] for m in orders over
    one basis, with poles at p_i bounded by depth or max(orders).  Given a
    depth, at most MAX_DEPTH, the sections are in the canonical parameter
    for f_i[-m], m <= depth, reached from u = s/v by the exact correction
    steps (eps, r), u -> u + eps u^r in turn; else steps is None.
    expansions maps p_i to the expansion on [-m, high) and each other point
    in at to the one on [-a_j, high).  Coordinates stay integers over one
    denominator; coords, Fractions over elts, are built only if at is not
    empty, else None."""
    if depth is not None and depth > MAX_DEPTH:
        raise ValidationError(f"depth {depth} is out of range: the limit is {MAX_DEPTH}")
    validate(curve)
    weights = _normalize_weights(curve, weights)
    i = f"p{curve.point_index(i)}"
    a_i = weights.get(i, 0)
    if depth is not None and depth <= a_i:
        raise ValidationError(f"need m_max > a_i = {a_i} for a correction step, got m_max = {depth}")
    for m in orders:
        if m <= a_i:
            raise ValidationError(f"need m > a_i = {a_i}, got m = {m}")
    elts, (basis, bden), expansions = _regular_basis(curve, weights, i, depth or max(orders), high)
    steps = None
    if depth is not None:
        steps, expansions = _canonicalise(weights, i, depth, expansions)
    found = {}
    for m in orders:
        z, den = _solve_section(weights, i, m, expansions)
        y = {k: c * expansions[k].den for k, c in enumerate(z) if c}  # over the basis, over den
        ambient = {}  # sum_k y_k basis_k over den * bden, only for the points in at
        for k, c in y.items() if at else ():
            for e, b in basis[k].items():
                ambient[e] = ambient.get(e, 0) + c * b
        found[m] = (y, den), ({e: c for e, c in ambient.items() if c}, den * bden)
    # the other points keep their own parameters: only p_i's moves
    used = {e for _, (x, _) in found.values() for e in x}
    series = {pid: _element_series(curve, pid, elts, used, -weights.get(pid, 0), high) for pid in at if pid != i}
    return steps, elts, {m: ([Fraction(x.get(e, 0), xden) for e in range(len(elts))] if at else None,
                             {pid: _combine(x, xden, series[pid]) if pid in series else _combine(*y, expansions)
                              for pid in curve.point_ids() if pid == i or pid in series})
                         for m, (y, (x, xden)) in found.items()}


# f_sections expands on [-m, tail): 1 <= tail, so the window holds the zero
# constant term, and tail <= MAX_TAIL.  At the bound f_3 on zoo("Ia") takes
# about 0.015 s, and f_37 on ccusp31, marked at 3 and at infinity, about
# 0.23 s (Python 3.11, one core of a shared x86-64 host).
MAX_TAIL = 1024

# canonical_parameter's m_max is at most MAX_M_MAX.  At the bound it takes
# about 0.12 s on zoo("Ia") marked at p0, and at m_max 64 about 1 s, about
# as the cube of m_max (Python 3.11, one core of a shared x86-64 host).
MAX_M_MAX = 32

# solve_sections' depth is at most MAX_DEPTH, 2g + 7 at g = 62: the deepest
# alpha table of the contraction-point family <g, g+2, ..., 2g+1> that
# curves.MAX_JET_WIDTH admits.  At the bound that table (marked at 2, tangent
# -3) takes about 8 s, and the correction steps on zoo("Ia") at p0 about
# 11 s, about as the cube of the depth (Python 3.11, one core of a shared
# x86-64 host).
MAX_DEPTH = 131


def f_sections(curve: CurveModel, weights: dict, i: str, m: int, tail: int = 6) -> Section:
    """Solve for f_i[-m]; expansions are returned at every marked point to
    exponents < tail, in each point's parameter u = s/v."""
    _check_int("m", m)
    _check_int("tail", tail)
    if not 1 <= tail <= MAX_TAIL:
        raise ValidationError(f"tail {tail} must be in 1..{MAX_TAIL}")
    _, elts, solved = solve_sections(curve, weights, i, (m,), high=tail, at=curve.point_ids())
    coords, expansions = solved[m]
    return Section(f"p{curve.point_index(i)}", m, FunctionOnCurve(curve, elts, coords), expansions)


def canonical_parameter(curve: CurveModel, weights: dict, i: str, m_max: int) -> ParamChange:
    """Tangent-compatible parameter change at p_i making the coefficient at
    u^-a_i of every f_i[-m], m <= m_max, vanish exactly; m_max must exceed
    a_i, or there is no correction to compute, and be at most MAX_M_MAX.
    The change is the composition of the exact correction steps, known below
    u^(m_max + 6)."""
    _check_int("m_max", m_max)
    if m_max > MAX_M_MAX:
        raise ValidationError(f"m-max {m_max} is out of range: the limit is {MAX_M_MAX}")
    steps = solve_sections(curve, weights, i, (), depth=m_max)[0]
    pc = ParamChange.identity("u", m_max + 6)
    for eps, r in steps:
        pc = pc.compose(eps, r)
    return pc


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
    _, _, solved = solve_sections(curve, weights, i, (g, g + 1), depth=g + 1, at=(j,))
    return tuple(solved[m][1][j].coefficient(-1) for m in (g, g + 1))


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
