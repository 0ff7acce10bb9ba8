"""Built-in singular rational curves: the genus-2 classification cases and the
cuspidal family.

Every built-in singular point comes from one builder, `_point`.  It takes the
point's branches as (component, point) pairs, its jet order k, its conductor
and its head jets as sparse {slot: value} maps, slot b*k + d being s^d on
branch b.  It checks the jet width before it allocates anything, writes the
head jets, and then the conductor-tail units s^d, one per d < k, branch by
branch.  The tail starts at the conductor on every branch, or at a given
order per branch (`glued_cusps` starts branch b at a_b + 1).

Default branch points live in {0, 1, 2, 3}; default markings avoid them:
generic cases carry p0 at t=5 and p1 at t=7, the pinched curve with a
distinguished point at infinity ("IIc-C0") carries p0 at t=1 and p1 at inf,
and the cuspidal family "ccusp<a>" carries p0 at inf (weight a) and p1 at t=1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import starmap

from .curves import INF, Branch, CurveModel, MarkedPoint, SingularPoint, check_jet_width, validate
from .errors import ValidationError


def _point(branches, k, conductor, heads, tail_starts=None) -> SingularPoint:
    check_jet_width(len(branches), k)
    width = len(branches) * k
    basis = []
    for jet in heads:
        v = [Fraction(0)] * width
        for slot, x in jet.items():
            v[slot] = Fraction(x)
        basis.append(tuple(v))
    for b, start in enumerate(tail_starts or (conductor,) * len(branches)):
        for d in range(start, k):
            v = [Fraction(0)] * width
            v[b * k + d] = Fraction(1)
            basis.append(tuple(v))
    return SingularPoint(tuple(starmap(Branch, branches)), k, conductor, tuple(basis))


def _check_order(what, n) -> None:
    """Reject a delta or cusp order that is not an int >= 1 (a bool included)."""
    if type(n) is not int or n < 1:
        raise ValidationError(f"{what} {n!r} must be an int >= 1")


def node(component, a, b) -> SingularPoint:
    """Two branches glued transversally: equal constant terms."""
    return _point(((component, a), (component, b)), 2, 1, ({0: 1, 2: 1},))


def cusp(component, a) -> SingularPoint:
    """One branch with the s^1 jet removed: span {1, s^2, s^3}."""
    return _point(((component, a),), 4, 2, ({0: 1},))


def coordinate_cross(component, a, b, c) -> SingularPoint:
    """Three branches glued transversally at one point."""
    return _point(((component, a), (component, b), (component, c)), 2, 1, ({0: 1, 2: 1, 4: 1},))


def tacnode(component, a, b) -> SingularPoint:
    """Two branches matching to first order: f(0)=g(0), f'(0)=g'(0)."""
    return _point(((component, a), (component, b)), 4, 2, ({0: 1, 4: 1}, {1: 1, 5: 1}))


def cusp_node(component, a, b) -> SingularPoint:
    """First branch pinched to a cusp, then glued transversally to the second:
    f'(0)=0 and f(0)=g(0)."""
    return _point(((component, a), (component, b)), 4, 2, ({0: 1, 4: 1}, {5: 1}))


def deep_cusp(component, point, delta: int) -> SingularPoint:
    """Unibranch point whose local functions are constants plus everything
    vanishing to order > delta; its delta invariant is delta and its jet
    order 2 (delta + 1), at most MAX_JET_WIDTH."""
    _check_order("delta", delta)
    return _point(((component, point),), 2 * (delta + 1), delta + 1, ({0: 1},))


def semigroup_two_five(component, point) -> SingularPoint:
    """Unibranch point with value semigroup <2,5>: span {1, s^2} plus
    everything of order >= 4; delta invariant 2."""
    return _point(((component, point),), 6, 4, ({0: 1}, {2: 1}))


# Each case's singular points on c0: a constructor and its branch points.
# suite_ab_equivalence draws its points in this order.
_CASES = {
    "Ia": ((node, 0, 1), (node, 2, 3)),
    "Ib": ((node, 0, 1), (cusp, 2)),
    "Ic": ((cusp, 0), (cusp, 1)),
    "IIa": ((coordinate_cross, 0, 1, 2),),
    "IIb-tacnode": ((tacnode, 0, 1),),
    "IIb-cusp-node": ((cusp_node, 0, 1),),
    "IIc-ccusp2": ((lambda component, point: deep_cusp(component, point, 2), 0),),
    "IIc-C0": ((semigroup_two_five, 0),),
}
ZOO_IDS = tuple(_CASES)


def zoo(case_id: str, marked=None) -> CurveModel:
    """A validated curve for one classification case (or "ccusp<a>")."""
    if case_id in _CASES:
        sings = tuple([make("c0", *map(Fraction, points)) for make, *points in _CASES[case_id]])
        first, second, weight = (Fraction(1), INF, None) if case_id == "IIc-C0" else (Fraction(5), Fraction(7), None)
    elif re.fullmatch("ccusp[0-9]+", case_id) and int(case_id[5:]) >= 1:
        first, second, weight = INF, Fraction(1), int(case_id[5:])
        sings = (deep_cusp("c0", Fraction(0), weight),)
    else:
        raise ValidationError(f"unknown zoo case {case_id!r}")
    if marked is None:
        marked = (MarkedPoint("c0", first, Fraction(1), weight), MarkedPoint("c0", second, Fraction(1), None))
    return validate(CurveModel(("c0",), sings, tuple(marked)))


def glued_cusps(a1: int, a2: int) -> CurveModel:
    """Two projective lines carrying deep cusps of delta a1 and a2, glued
    transversally at the cusps: the torus-fixed curve of genus a1 + a2.

    Marked points sit at the two infinities with weights (a1, a2); every
    section of the weighted divisors is a monomial there, so all expansion
    coefficients vanish at both points.
    """
    _check_order("cusp order a1", a1)
    _check_order("cusp order a2", a2)
    c = max(a1, a2) + 1
    sing = _point((("c0", Fraction(0)), ("c1", Fraction(0))), 2 * c, c, ({0: 1, 2 * c: 1},), (a1 + 1, a2 + 1))
    marked = (MarkedPoint("c0", INF, Fraction(1), a1), MarkedPoint("c1", INF, Fraction(1), a2))
    return validate(CurveModel(("c0", "c1"), (sing,), marked))
