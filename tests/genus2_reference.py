"""The reference presentation for the tests: `presentation_from_series` as
it was before the single pass over `genus2._SPAN_MONOMIALS`, matching each
product against named basis series.  The tests compare the package's
presentation against it.
"""

from __future__ import annotations

from fractions import Fraction

from nsc.errors import InternalInconsistencyError
from nsc.genus2 import GeneralPresentation, coefficient_f_ring
from nsc.laurent import LaurentSeries


def presentation_from_series(sf: LaurentSeries, sh: LaurentSeries, sk: LaurentSeries) -> GeneralPresentation:
    """Expand h^2, hk, k^2 on the basis f^n, f^n h, f^n k by matching principal
    parts at the marked point, checking that the residual tail vanishes
    identically through the sound window."""
    ring = coefficient_f_ring()
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
