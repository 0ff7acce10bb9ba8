"""Built-in singular rational curves: the genus-2 classification cases and the
cuspidal family.

Default branch points live in {0, 1, 2, 3}; default markings avoid them:
generic cases carry p0 at t=5 and p1 at t=7, the pinched curve with a
distinguished point at infinity ("IIc-C0") carries p0 at t=1 and p1 at inf,
and the cuspidal family "ccusp<a>" carries p0 at inf (weight a) and p1 at t=1.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .curves import INF, Branch, CurveModel, MarkedPoint, SingularPoint, check_jet_width, validate
from .errors import ValidationError

ZOO_IDS = (
    "Ia",
    "Ib",
    "Ic",
    "IIa",
    "IIb-tacnode",
    "IIb-cusp-node",
    "IIc-ccusp2",
    "IIc-C0",
)


def _unit(width, i):
    v = [Fraction(0)] * width
    v[i] = Fraction(1)
    return tuple(v)


def _tail_units(width, k, branches, conductor):
    return [_unit(width, b * k + d) for b in range(branches) for d in range(conductor, k)]


def node(component, a, b) -> SingularPoint:
    """Two branches glued transversally: equal constant terms."""
    k, width = 2, 4
    ones = [Fraction(0)] * width
    ones[0] = ones[k] = Fraction(1)
    basis = [tuple(ones)] + _tail_units(width, k, 2, 1)
    return SingularPoint((Branch(component, a), Branch(component, b)), k, 1, tuple(basis))


def cusp(component, a) -> SingularPoint:
    """One branch with the s^1 jet removed: span {1, s^2, s^3}."""
    k, width = 4, 4
    basis = [_unit(width, 0)] + _tail_units(width, k, 1, 2)
    return SingularPoint((Branch(component, a),), k, 2, tuple(basis))


def coordinate_cross(component, a, b, c) -> SingularPoint:
    """Three branches glued transversally at one point."""
    k, width = 2, 6
    ones = [Fraction(0)] * width
    ones[0] = ones[2] = ones[4] = Fraction(1)
    basis = [tuple(ones)] + _tail_units(width, k, 3, 1)
    return SingularPoint((Branch(component, a), Branch(component, b), Branch(component, c)), k, 1, tuple(basis))


def tacnode(component, a, b) -> SingularPoint:
    """Two branches matching to first order: f(0)=g(0), f'(0)=g'(0)."""
    k, width = 4, 8
    ones = [Fraction(0)] * width
    ones[0] = ones[k] = Fraction(1)
    lin = [Fraction(0)] * width
    lin[1] = lin[k + 1] = Fraction(1)
    basis = [tuple(ones), tuple(lin)] + _tail_units(width, k, 2, 2)
    return SingularPoint((Branch(component, a), Branch(component, b)), k, 2, tuple(basis))


def cusp_node(component, a, b) -> SingularPoint:
    """First branch pinched to a cusp, then glued transversally to the second:
    f'(0)=0 and f(0)=g(0)."""
    k, width = 4, 8
    ones = [Fraction(0)] * width
    ones[0] = ones[k] = Fraction(1)
    basis = [tuple(ones), _unit(width, k + 1)] + _tail_units(width, k, 2, 2)
    return SingularPoint((Branch(component, a), Branch(component, b)), k, 2, tuple(basis))


def deep_cusp(component, point, delta: int) -> SingularPoint:
    """Unibranch point whose local functions are constants plus everything
    vanishing to order > delta; its delta invariant is delta and its jet
    order 2 (delta + 1), at most MAX_JET_WIDTH."""
    c = delta + 1
    k = 2 * c
    check_jet_width(1, k)
    basis = [_unit(k, 0)] + _tail_units(k, k, 1, c)
    return SingularPoint((Branch(component, point),), k, c, tuple(basis))


def semigroup_two_five(component, point) -> SingularPoint:
    """Unibranch point with value semigroup <2,5>: span {1, s^2} plus
    everything of order >= 4; delta invariant 2."""
    k, width = 6, 6
    basis = [_unit(width, 0), _unit(width, 2)] + _tail_units(width, k, 1, 4)
    return SingularPoint((Branch(component, point),), k, 4, tuple(basis))


def _q(x) -> Fraction:
    return Fraction(x)


def zoo(case_id: str, marked=None) -> CurveModel:
    """A validated curve for one classification case (or "ccusp<a>")."""
    c0 = "c0"
    if case_id == "Ia":
        sings = (node(c0, _q(0), _q(1)), node(c0, _q(2), _q(3)))
    elif case_id == "Ib":
        sings = (node(c0, _q(0), _q(1)), cusp(c0, _q(2)))
    elif case_id == "Ic":
        sings = (cusp(c0, _q(0)), cusp(c0, _q(1)))
    elif case_id == "IIa":
        sings = (coordinate_cross(c0, _q(0), _q(1), _q(2)),)
    elif case_id == "IIb-tacnode":
        sings = (tacnode(c0, _q(0), _q(1)),)
    elif case_id == "IIb-cusp-node":
        sings = (cusp_node(c0, _q(0), _q(1)),)
    elif case_id == "IIc-ccusp2":
        sings = (deep_cusp(c0, _q(0), 2),)
    elif case_id == "IIc-C0":
        sings = (semigroup_two_five(c0, _q(0)),)
    elif re.fullmatch("ccusp[0-9]+", case_id) and int(case_id[5:]) >= 1:
        a = int(case_id[5:])
        sings = (deep_cusp(c0, _q(0), a),)
        if marked is None:
            marked = (MarkedPoint(c0, INF, _q(1), a), MarkedPoint(c0, _q(1), _q(1), None))
    else:
        raise ValidationError(f"unknown zoo case {case_id!r}")
    if marked is None:
        if case_id == "IIc-C0":
            marked = (MarkedPoint(c0, _q(1), _q(1), None), MarkedPoint(c0, INF, _q(1), None))
        else:
            marked = (MarkedPoint(c0, _q(5), _q(1), None), MarkedPoint(c0, _q(7), _q(1), None))
    return validate(CurveModel((c0,), sings, tuple(marked)))


def glued_cusps(a1: int, a2: int) -> CurveModel:
    """Two projective lines carrying deep cusps of delta a1 and a2, glued
    transversally at the cusps: the torus-fixed curve of genus a1 + a2.

    Marked points sit at the two infinities with weights (a1, a2); every
    section of the weighted divisors is a monomial there, so all expansion
    coefficients vanish at both points.
    """
    if a1 < 1 or a2 < 1:
        raise ValidationError("cusp orders must be >= 1")
    c = max(a1, a2) + 1
    k = 2 * c
    width = 2 * k
    ones = [Fraction(0)] * width
    ones[0] = ones[k] = Fraction(1)
    basis = [tuple(ones)]
    for d in range(a1 + 1, k):
        basis.append(_unit(width, d))
    for d in range(a2 + 1, k):
        basis.append(_unit(width, k + d))
    sing = SingularPoint((Branch("c0", _q(0)), Branch("c1", _q(0))), k, c, tuple(basis))
    marked = (
        MarkedPoint("c0", INF, _q(1), a1),
        MarkedPoint("c1", INF, _q(1), a2),
    )
    return validate(CurveModel(("c0", "c1"), (sing,), marked))
