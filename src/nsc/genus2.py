"""The genus-2 one-pointed universal curve over affine 5-space.

The affine curve minus its marked point is cut out, in variables f, h, k of
weights 3, 4, 5, by three relations whose coefficients are polynomials in the
five parameters q1, q20, q21, q30, q31 (weights 4, 5, 2, 6, 3).  The
relations are those of one normalized presentation, written once in
`normal_presentation`: the relations, the symbolic solve for the
inhomogeneous coefficients c1, c2, c3 (`solve_c`) and the fit's closed-form
check all read it.  Everything here is exact: Buchberger verification of the
relations, that solve, and the fit of the five parameters from a concrete
curve via its section expansions f, h, k at the marked point.  The fit's
(A, B, C) normalization acts on those series: it reads the gauge off their
presentation, moves them to the normalized generators and reads the
presentation again.  The Groebner property is certified once, over Q[q]
(`buchberger_verify` on the symbolic relations, `nsc verify --suite
buchberger`); a fit checks its normalized presentation against
`normal_presentation` at the fitted parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .curves import CurveModel, Divisor, _h0_dimension, arithmetic_genus, validate
from .errors import CohomologyError, InternalInconsistencyError, ValidationError
from .laurent import LaurentSeries
from .multipoly import MultiPoly, PolyRing, poly_reduce, s_polynomial
from .sections import _combine, _normalize_weights, _regular_basis, _solve_section

Q_VARIABLES = ("q1", "q20", "q21", "q30", "q31")
Q_WEIGHTS = (4, 5, 2, 6, 3)
FHK_WEIGHTS = (5, 4, 3)
RELATION_DEGREES = (8, 9, 10)


def parameter_ring() -> PolyRing:
    return PolyRing(Q_VARIABLES, Q_WEIGHTS)


def relation_ring(base=None) -> PolyRing:
    return PolyRing(("k", "h", "f"), FHK_WEIGHTS, base=base)


@dataclass(frozen=True)
class G2Params:
    """The five parameter values; Fractions or elements of parameter_ring()."""

    q1: object
    q20: object
    q21: object
    q30: object
    q31: object

    @classmethod
    def symbolic(cls) -> "G2Params":
        ring = parameter_ring()
        return cls(*(ring.var(v) for v in Q_VARIABLES))

    @classmethod
    def zero(cls) -> "G2Params":
        return cls(*(Fraction(0),) * 5)

    def astuple(self):
        return (self.q1, self.q20, self.q21, self.q30, self.q31)

    def base_ring(self):
        """The ring the values live in: None for rationals, else their PolyRing."""
        for v in self.astuple():
            if isinstance(v, MultiPoly):
                return v.ring
        return None


@dataclass(frozen=True)
class G2Relations:
    ring: PolyRing
    relations: tuple  # three MultiPoly, everything moved to the left-hand side

    def leading_monomials(self):
        return tuple(r.leading_term()[0] for r in self.relations)

    def leads_are_h2_hk_k2(self) -> bool:
        return self.leading_monomials() == ((0, 2, 0), (1, 1, 0), (2, 0, 0))


def universal_relations(params: G2Params) -> G2Relations:
    """The three displayed relations, as polynomials vanishing on the curve."""
    return normal_presentation(params).relations()


@dataclass(frozen=True)
class BuchbergerCertificate:
    ok: bool
    reductions: tuple  # per S-pair: (pair, quotients, remainder)

    def to_jsonable(self):
        return {
            "status": "pass" if self.ok else "fail",
            "pairs": [
                {
                    "pair": list(pair),
                    "quotients": [str(q) for q in quotients],
                    "remainder": str(rem),
                }
                for pair, quotients, rem in self.reductions
            ],
        }


def buchberger_verify(rels: G2Relations) -> BuchbergerCertificate:
    """All three S-polynomials must reduce to zero modulo the relations."""
    if not rels.leads_are_h2_hk_k2():
        raise ValidationError(
            f"leading monomials {rels.leading_monomials()} are not h^2, hk, k^2"
        )
    reductions = []
    ok = True
    for a, b in itertools.combinations(range(3), 2):
        s = s_polynomial(rels.relations[a], rels.relations[b])
        quotients, rem = poly_reduce(s, rels.relations)
        ok = ok and rem.is_zero()
        reductions.append(((a, b), tuple(quotients), rem))
    return BuchbergerCertificate(ok, tuple(reductions))


# ---------------------------------------------------------------------------
# presentations h^2 = p1 k + q1 h + c1, hk = ..., k^2 = ...
# ---------------------------------------------------------------------------

def coefficient_f_ring(base=None) -> PolyRing:
    return PolyRing(("f",), (3,), base=base)


def _deg(p: MultiPoly) -> int:
    return p.degree_in("f")


def _fcoeff(p: MultiPoly, i: int):
    return p.coefficient((i,))


@dataclass(frozen=True)
class GeneralPresentation:
    """Polynomials in f presenting h^2, hk, k^2 on the basis f^n, f^n h, f^n k."""

    p1: MultiPoly
    p2: MultiPoly
    p3: MultiPoly
    q1: MultiPoly
    q2: MultiPoly
    q3: MultiPoly
    c1: MultiPoly
    c2: MultiPoly
    c3: MultiPoly

    def __post_init__(self):
        ring = self.p1.ring
        one = ring.coeff_one()
        checks = [
            (_deg(self.p1) == 1 and _fcoeff(self.p1, 1) == one, "p1 must be monic of degree 1"),
            (_deg(self.p2) <= 1, "p2 must have degree <= 1"),
            (_deg(self.p3) <= 1, "p3 must have degree <= 1"),
            (_deg(self.q1) <= 1, "q1 must have degree <= 1"),
            (_deg(self.q2) <= 1, "q2 must have degree <= 1"),
            (_deg(self.q3) == 2 and _fcoeff(self.q3, 2) == one, "q3 must be monic of degree 2"),
            (_deg(self.c1) <= 2, "c1 must have degree <= 2"),
            (_deg(self.c2) == 3 and _fcoeff(self.c2, 3) == one, "c2 must be monic of degree 3"),
            (_deg(self.c3) <= 3, "c3 must have degree <= 3"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValidationError(msg)

    @property
    def ring(self):
        return self.p1.ring

    def relations(self) -> G2Relations:
        """The presentation as vanishing polynomials in Q[...][k, h, f]."""
        ring = relation_ring(self.ring.base)
        k, h, f = ring.gens()

        def lift(p: MultiPoly) -> MultiPoly:
            return ring.element({(0, 0, e[0]): c for e, c in p.terms.items()})

        rel1 = h * h - (lift(self.p1) * k + lift(self.q1) * h + lift(self.c1))
        rel2 = h * k - (lift(self.p2) * k + lift(self.q2) * h + lift(self.c2))
        rel3 = k * k - (lift(self.p3) * k + lift(self.q3) * h + lift(self.c3))
        return G2Relations(ring, (rel1, rel2, rel3))

    def is_normalized(self) -> bool:
        return (
            self.p3.is_zero()
            and _deg(self.p2) <= 0
            and _deg(self.q1) <= 0
            and self.p2 == -self.q1
            and _deg(self.p1) == 1
            and _fcoeff(self.p1, 0) == self.ring.coeff_zero()
        )

    def parameters(self) -> G2Params:
        """Read the five coordinates off a normalized presentation."""
        if not self.is_normalized():
            raise ValidationError("presentation is not normalized")
        return G2Params(
            q1=_fcoeff(self.q1, 0),
            q20=_fcoeff(self.q2, 0),
            q21=_fcoeff(self.q2, 1),
            q30=_fcoeff(self.q3, 0),
            q31=_fcoeff(self.q3, 1),
        )


def normal_presentation(params: G2Params, c=None) -> GeneralPresentation:
    """The normalized presentation with coordinates params: p1 = f, p2 = -q1,
    p3 = 0, q2 = q20 + q21 f, q3 = q30 + q31 f + f^2.

    c = (c1, c2, c3) defaults to the closed forms c1 = 2 q1^2 + f q2,
    c2 = f q3 + q1 q2, c3 = q2^2 - 2 q1 q3.  The coefficients live in
    params.base_ring().
    """
    ring = coefficient_f_ring(params.base_ring())
    f = ring.var("f")
    q1, q20, q21, q30, q31 = (ring.const(v) for v in params.astuple())
    q2 = q20 + q21 * f
    q3 = q30 + q31 * f + f * f
    if c is None:
        c = (2 * q1 * q1 + f * q2, f * q3 + q1 * q2, q2 * q2 - 2 * q1 * q3)
    return GeneralPresentation(f, -q1, ring.zero(), q1, q2, q3, *c)


# ---------------------------------------------------------------------------
# solving for c1, c2, c3 from the Groebner condition
# ---------------------------------------------------------------------------

C_VARIABLES = ("c10", "c11", "c12", "c20", "c21", "c22", "c30", "c31", "c32", "c33")
C_WEIGHTS = (8, 5, 2, 9, 6, 3, 10, 7, 4, 1)


@dataclass(frozen=True)
class SolveCReport:
    solution: dict            # c-variable name -> MultiPoly in Q[q..., c...]
    matches_closed_forms: bool
    closed_forms: dict
    residuals: tuple

    @property
    def ok(self) -> bool:
        return self.matches_closed_forms and not self.residuals


def solve_c() -> SolveCReport:
    """Impose that all three S-polynomials reduce to zero on the normalized
    presentation over Q[q...] with indeterminate c-coefficients; solve the
    resulting equations exactly by successive elimination, and compare the
    solution with the closed forms of normal_presentation."""
    big = PolyRing(Q_VARIABLES + C_VARIABLES, Q_WEIGHTS + C_WEIGHTS)
    params = G2Params(*(big.var(v) for v in Q_VARIABLES))
    fring = coefficient_f_ring(big)
    f = fring.var("f")

    def unknown(i: int, degree: int) -> MultiPoly:
        """c_i with the indeterminate c_ij as its f^j coefficient, j <= degree."""
        out = fring.zero()
        for j in range(degree + 1):
            out = out + fring.const(big.var(f"c{i}{j}")) * f ** j
        return out

    cs = (unknown(1, 2), unknown(2, 2) + f ** 3, unknown(3, 3))
    rels = normal_presentation(params, cs).relations().relations
    equations = []
    for a, b in itertools.combinations(range(3), 2):
        _, rem = poly_reduce(s_polynomial(rels[a], rels[b]), rels)
        equations.extend(rem.terms.values())

    solution = {}
    remaining = [e for e in equations if e]
    progress = True
    while progress:
        progress = False
        for eq in list(remaining):
            pivot = _unit_linear_pivot(big, eq)
            if pivot is None:
                continue
            name, coeff = pivot
            var_exp = tuple(1 if v == name else 0 for v in big.variables)
            rest = MultiPoly(big, {e: c for e, c in eq.terms.items() if e != var_exp})
            value = rest / (-coeff)
            # earlier values may name this variable; no later one will
            solution = {n: v.substitute({name: value}) for n, v in solution.items()}
            solution[name] = value
            remaining = [e.substitute({name: value}) for e in remaining]
            remaining = [e for e in remaining if e]
            progress = True
            break
    residuals = tuple(remaining)

    expected = normal_presentation(params)
    closed_forms = {"c1": expected.c1, "c2": expected.c2, "c3": expected.c3}
    # c_ij is the f^j coefficient of c_i
    matches = not residuals and all(
        name in solution and solution[name] == _fcoeff(closed_forms[name[:2]], int(name[2]))
        for name in C_VARIABLES
    )
    return SolveCReport(solution, matches, closed_forms, residuals)


def _unit_linear_pivot(ring: PolyRing, eq: MultiPoly):
    """A c-variable occurring exactly once in eq, alone in its monomial, with a
    rational coefficient; returns (name, coefficient) or None."""
    for idx, name in enumerate(ring.variables):
        if name not in C_VARIABLES:
            continue
        occurrences = [e for e in eq.terms if e[idx] > 0]
        if len(occurrences) != 1:
            continue
        e = occurrences[0]
        if e[idx] == 1 and all(x == 0 for p, x in enumerate(e) if p != idx):
            return name, eq.terms[e]
    return None


# ---------------------------------------------------------------------------
# fitting the parameters from a concrete curve
# ---------------------------------------------------------------------------

# the span of h^2, hk, k^2 at the marked point: f^a h^b k^c as (a, b, c), by
# descending pole order 3a + 4b + 5c (10, 9, 8, 7, 6, 5, 4, 3, 0)
_SPAN_MONOMIALS = ((2, 1, 0), (3, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
                   (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0))


def presentation_from_series(sf: LaurentSeries, sh: LaurentSeries, sk: LaurentSeries) -> GeneralPresentation:
    """Expand h^2, hk, k^2 (pole orders 8, 9, 10) on the span: read each
    coordinate off the residual's principal part, poles descending, subtract
    that term, and check that the residual vanishes identically through the
    sound window.  f^a k goes to p, f^a h to q and f^a to c."""
    ring = coefficient_f_ring()
    span = {(0, 0, 0): LaurentSeries.monomial(sf.var, 0, 1, cut=sf.cut), (1, 0, 0): sf, (0, 1, 0): sh, (0, 0, 1): sk}
    for a, b, c in reversed(_SPAN_MONOMIALS):  # f^(a-1) h^b k^c is built first
        if (a, b, c) not in span:
            span[(a, b, c)] = span[(a - 1, b, c)] * sf
    rows = []
    for residual, pole_bound in ((sh * sh, 8), (sh * sk, 9), (sk * sk, 10)):
        terms = ({}, {}, {})  # f-power -> coordinate, for p, q and c
        for a, b, c in _SPAN_MONOMIALS:
            pole = 3 * a + 4 * b + 5 * c
            if pole > pole_bound:
                continue
            x = residual.coefficient(-pole)
            terms[0 if c else 1 if b else 2][(a,)] = x
            if x:
                residual = residual - span[(a, b, c)].scale(x)
        if not residual.is_known_zero():
            raise InternalInconsistencyError(
                f"pole-{pole_bound} product does not lie on the section basis: residual {residual}"
            )
        rows.append(tuple(ring.element(t) for t in terms))
    # rows hold (p_i, q_i, c_i); the fields run p1, p2, p3, q1, ...
    return GeneralPresentation(*(x for column in zip(*rows) for x in column))


# The section series are known below u^24: the pole-10 product k^2 is then
# known through u^18.  A residual that vanishes through u^0 is already zero
# as a function (it has no pole and vanishes at the marked point); the terms
# beyond check the expansions themselves.
_SECTION_TAIL = 24


def section_series(curve: CurveModel, point_id: str):
    """Expansions of the degree 3, 4, 5 section generators at the marked point,
    solved over one basis of the regular functions."""
    pid = f"p{curve.point_index(point_id)}"
    validate(curve)
    weights = _normalize_weights(curve, {pid: 2})
    _, _, expansions = _regular_basis(curve, weights, pid, 5, _SECTION_TAIL)
    return tuple(_combine(_solve_section(weights, pid, m, expansions, None), expansions) for m in (3, 4, 5))


def normalize_presentation(sf: LaurentSeries, sh: LaurentSeries, sk: LaurentSeries) -> GeneralPresentation:
    """The normalized presentation of the series f, h, k: p3 = 0, p2 = -q1
    constant, p1 = f.

    The gauge is read off their presentation: A = -(q1 + p2)/3,
    B = (q1[f] - 2 p2[f])/3, C = -p3/2 - B^2 p1/2 - B p2 and shift = p1(0).
    The series move to F = f + shift, H = h + A(f), K = k + B h + C(f), and
    the presentation is read again.  The span monomials F^a H^b K^c have the
    pole orders and lead coefficients of f^a h^b k^c, so the coordinates of
    H^2, HK and K^2 on them are unique, and the second read checks that the
    normalized relations vanish on F, H, K through the window.  Needs 6
    invertible, which holds over Q.
    """
    pres = presentation_from_series(sf, sh, sk)
    p1, p2, p3, q1 = ((_fcoeff(p, 0), _fcoeff(p, 1)) for p in (pres.p1, pres.p2, pres.p3, pres.q1))
    B = (q1[1] - 2 * p2[1]) / 3
    A = [-(x + y) / 3 for x, y in zip(q1, p2)]
    C = [-z / 2 - x * B * B / 2 - y * B for x, y, z in zip(p1, p2, p3)]
    one = LaurentSeries.monomial(sf.var, 0, 1, cut=sf.cut)
    normalized = presentation_from_series(
        sf + one.scale(p1[0]),
        sh + one.scale(A[0]) + sf.scale(A[1]),
        sk + sh.scale(B) + one.scale(C[0]) + sf.scale(C[1]),
    )
    if not normalized.is_normalized():
        raise InternalInconsistencyError("normalization postconditions failed")
    return normalized


def fit_parameters(curve: CurveModel, point_id: str) -> G2Params:
    """Compute the five parameter values of a genus-2 curve at a non-Weierstrass
    marked point; the normalized presentation must equal
    normal_presentation(params).  No Groebner check runs per fit, as none
    could fail: the symbolic relations have lead coefficient 1 in Q[q] on
    h^2, hk and k^2, so the standard representations of their S-polynomials
    specialize to standard representations at any rational q, and
    `nsc verify --suite buchberger` certifies the symbolic case."""
    validate(curve)
    if arithmetic_genus(curve) != 2:
        raise ValidationError("fit requires an arithmetic genus 2 curve")
    pid = f"p{curve.point_index(point_id)}"
    if _h0_dimension(curve, Divisor.of({pid: 2})) != 1:
        raise CohomologyError(
            "marked point is a Weierstrass-type point: h1(2p) != 0, no fit exists"
        )
    normalized = normalize_presentation(*section_series(curve, pid))
    params = normalized.parameters()
    if normalized != normal_presentation(params):
        raise InternalInconsistencyError("normalized c1, c2, c3 disagree with their closed forms")
    return params
