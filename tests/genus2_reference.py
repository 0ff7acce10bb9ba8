"""The reference genus-2 fit for the tests.

`presentation_from_series` is as it was before the single pass over
`genus2._SPAN_MONOMIALS`, matching each product against named basis series.
`normalize_presentation` and `transform_presentation` are the normalization
as it was before it moved to the section series: the gauge (A, B, C, shift)
applied to the presentation's polynomials.  The tests compare the package's
presentation and its normalization against them.
"""

from __future__ import annotations

from fractions import Fraction

from nsc.errors import InternalInconsistencyError, ValidationError
from nsc.genus2 import RING, GeneralPresentation, universal_relations
from nsc.laurent import LaurentSeries
from nsc.multipoly import MultiPoly


def _f(i: int) -> tuple:
    """The exponents of f^i in RING."""
    return (0, 0, i) + (0,) * (len(RING.variables) - 3)


def presentation_from_series(sf: LaurentSeries, sh: LaurentSeries, sk: LaurentSeries) -> GeneralPresentation:
    """Expand h^2, hk, k^2 on the basis f^n, f^n h, f^n k by matching principal
    parts at the marked point, checking that the residual tail vanishes
    identically through the sound window."""
    ring = RING
    f = ring.var("f")

    f2 = sf * sf
    one = LaurentSeries.monomial(sf.var, 0, 1, cut=sf.cut)
    # (name, pole order at the marked point, series), poles descending
    basis = (("f2h", 10, f2 * sh), ("f3", 9, f2 * sf), ("fk", 8, sf * sk), ("fh", 7, sf * sh),
             ("f2", 6, f2), ("k", 5, sk), ("h", 4, sh), ("f", 3, sf), ("one", 0, one))

    def match(target: LaurentSeries, pole_bound: int):
        residual = target
        coords = {}
        for name, pole, series in basis:
            if pole > pole_bound:
                continue
            x = residual.coefficient(-pole)
            coords[name] = x
            if x:
                residual = residual - series.scale(x)
        if not residual.is_known_zero():
            raise InternalInconsistencyError(
                f"pole-{pole_bound} product does not lie on the section basis: residual {residual}"
            )
        return coords

    def poly_of(coords, names):
        out = ring.zero()
        for name, power in names:
            out = out + ring.const(coords.get(name, Fraction(0))) * f ** power
        return out

    ch2 = match(sh * sh, 8)
    chk = match(sh * sk, 9)
    ck2 = match(sk * sk, 10)
    pres = GeneralPresentation(
        p1=poly_of(ch2, (("k", 0), ("fk", 1))),
        q1=poly_of(ch2, (("h", 0), ("fh", 1))),
        c1=poly_of(ch2, (("one", 0), ("f", 1), ("f2", 2))),
        p2=poly_of(chk, (("k", 0), ("fk", 1))),
        q2=poly_of(chk, (("h", 0), ("fh", 1))),
        c2=poly_of(chk, (("one", 0), ("f", 1), ("f2", 2), ("f3", 3))),
        p3=poly_of(ck2, (("k", 0), ("fk", 1))),
        q3=poly_of(ck2, (("h", 0), ("fh", 1), ("f2h", 2))),
        c3=poly_of(ck2, (("one", 0), ("f", 1), ("f2", 2), ("f3", 3))),
    )
    return pres


# ---------------------------------------------------------------------------
# the normalization as it was: the gauge applied to the presentation
# ---------------------------------------------------------------------------

def transform_presentation(pres: GeneralPresentation, A: MultiPoly, B, C: MultiPoly,
                           shift) -> GeneralPresentation:
    """Presentation in the generators h + A(f), k + B h + C(f), f + shift.

    A and C have degree <= 1, B and shift are scalars.  The new relation
    polynomials are unimodular combinations of the old ones, so the presented
    algebra is unchanged.
    """
    ring = pres.ring
    B = ring.coerce_coeff(B)
    p1, p2, p3, q1, q2, q3, c1, c2, c3 = (pres.p1, pres.p2, pres.p3, pres.q1, pres.q2, pres.q3,
                                          pres.c1, pres.c2, pres.c3)
    if A.degree_in("f") > 1 or C.degree_in("f") > 1:
        raise ValidationError("A and C must have degree <= 1")

    nq1 = q1 + 2 * A - B * p1
    nc1 = c1 + A * A - p1 * C - A * nq1
    np2 = p2 + B * p1 + A
    nq2 = q2 + B * q1 + C - B * p2 - B * B * p1
    nc2 = c2 + B * c1 + A * C - C * np2 - A * nq2
    np3 = p3 + B * B * p1 + 2 * B * p2 + 2 * C
    nq3 = q3 + B * B * q1 + 2 * B * q2 - B * p3 - B * B * B * p1 - 2 * B * B * p2
    nc3 = c3 + B * B * c1 + 2 * B * c2 + C * C - C * np3 - A * nq3

    shifted = ring.var("f") - ring.const(shift)
    return GeneralPresentation(*(p.substitute({"f": shifted})
                                 for p in (p1, np2, np3, nq1, nq2, nq3, nc1, nc2, nc3)))


def normalize_presentation(pres: GeneralPresentation):
    """Fix the gauge: p3 = 0, p2 = -q1 constant, p1 = f.

    Returns (normalized, (A, B, C, shift)).  Needs 6 invertible, which holds
    over Q.
    """
    ring = pres.ring
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    A = (pres.q1 + pres.p2) * (-third)
    B = (pres.q1.coefficient(_f(1)) - 2 * pres.p2.coefficient(_f(1))) * third
    Bc = ring.coerce_coeff(B)
    C = pres.p3 * (-half) - pres.p1 * (Bc * Bc) * half - pres.p2 * Bc
    shift = pres.p1.coefficient(_f(0))  # the transform leaves p1 as it is
    normalized = transform_presentation(pres, A, B, C, shift)
    if not normalized.is_normalized():
        raise InternalInconsistencyError("normalization postconditions failed")
    return normalized, (A, B, C, shift)


def _at_series(p: MultiPoly, series: tuple) -> LaurentSeries:
    """p, free of the q's, evaluated at the series (K, H, F) of k, h and f,
    each power by repeated products; a series p does not use may be None."""
    sf = series[-1]
    acc = LaurentSeries.zero(sf.var, cut=sf.cut)
    for exps, coeff in p.terms.items():
        term = LaurentSeries.monomial(sf.var, 0, Fraction(coeff), cut=sf.cut)
        for s, e in zip(series, exps):
            for _ in range(e):
                term = term * s
        acc = acc + term
    return acc


def normalized_series(sf: LaurentSeries, sh: LaurentSeries, sk: LaurentSeries):
    """(params, (F, H, K)): the parameters the reference normalization reads
    off the series, and the series in its normalized generators F = f + shift,
    H = h + A(f), K = k + B h + C(f)."""
    normalized, (A, B, C, shift) = normalize_presentation(presentation_from_series(sf, sh, sk))
    nsf = sf + LaurentSeries.monomial(sf.var, 0, Fraction(shift), cut=sf.cut)
    nsh = sh + _at_series(A, (None, None, sf))
    nsk = sk + sh.scale(Fraction(B)) + _at_series(C, (None, None, sf))
    return normalized.parameters(), (nsf, nsh, nsk)


def relations_vanish(params, series) -> bool:
    """The universal relations at params vanish identically on the series
    (F, H, K) through their window."""
    nsf, nsh, nsk = series
    return all(_at_series(rel, (nsk, nsh, nsf)).is_known_zero()
               for rel in universal_relations(params).relations)
