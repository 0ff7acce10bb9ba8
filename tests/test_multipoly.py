from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nsc.errors import ValidationError
from nsc.multipoly import MonomialOrder, PolyRing, poly_reduce, s_polynomial

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1
    assert Fraction(a).denominator > 0


def fhk_ring():
    return PolyRing(("k", "h", "f"), (5, 4, 3))


def genus2_monomial_relations(ring):
    """All-parameters-zero relations: h^2 - fk, hk - f^3, k^2 - f^2 h."""
    k, h, f = ring.gens()
    return [h * h - f * k, h * k - f**3, k * k - f * f * h]


def test_degrevlex_convention_largest_variable_first():
    order = MonomialOrder(("k", "h", "f"), (5, 4, 3))
    # exponent vectors (k, h, f)
    assert order.sort_key((0, 2, 0)) > order.sort_key((1, 0, 1))  # h^2 > fk
    assert order.sort_key((1, 1, 0)) > order.sort_key((0, 0, 3))  # hk > f^3
    assert order.sort_key((2, 0, 0)) > order.sort_key((0, 1, 2))  # k^2 > f^2 h
    # transposed listing (smallest first) would invert the hk vs f^3 call
    flipped = MonomialOrder(("f", "h", "k"), (3, 4, 5))
    assert flipped.sort_key((3, 0, 0)) > flipped.sort_key((0, 1, 1))  # f^3 > hk there


def test_relation_shapes_lead_correctly():
    ring = fhk_ring()
    r1, r2, r3 = genus2_monomial_relations(ring)
    assert r1.leading_term()[0] == (0, 2, 0)
    assert r2.leading_term()[0] == (1, 1, 0)
    assert r3.leading_term()[0] == (2, 0, 0)


def test_reduce_zero_input():
    ring = fhk_ring()
    basis = genus2_monomial_relations(ring)
    quotients, rem = poly_reduce(ring.zero(), basis)
    assert rem.is_zero()
    assert all(q.is_zero() for q in quotients)


def test_reduce_self():
    ring = fhk_ring()
    g = genus2_monomial_relations(ring)[0]
    quotients, rem = poly_reduce(g, [g])
    assert rem.is_zero()
    assert quotients == [ring.one()]


def test_reduce_rejects_empty_basis():
    ring = fhk_ring()
    with pytest.raises(ValidationError):
        poly_reduce(ring.one(), [])


def naive_remainder(p, basis):
    """Textbook long division, no quotient bookkeeping: keep rewriting any
    divisible term (not just the leading one) until none is divisible."""
    ring = p.ring
    lts = [b.leading_term() for b in basis]
    changed = True
    while changed:
        changed = False
        for exps in sorted(p.terms, key=ring.order.sort_key, reverse=True):
            if exps not in p.terms:
                continue
            for b, (le, lc) in zip(basis, lts):
                if all(x <= y for x, y in zip(le, exps)):
                    c = p.terms[exps]
                    q = ring.element({tuple(a - b2 for a, b2 in zip(exps, le)): c / lc})
                    p = p - q * b
                    changed = True
                    break
            if changed:
                break
    return p


def test_reduce_division_identity_and_standard_monomials():
    # h^2 * k against the monomial genus-2 relations: remainder must land in
    # the span of f^n, f^n h, f^n k; cross-checked with an independent reducer.
    ring = fhk_ring()
    k, h, f = ring.gens()
    basis = genus2_monomial_relations(ring)
    p = h * h * k
    quotients, rem = poly_reduce(p, basis)
    assert sum((q * b for q, b in zip(quotients, basis)), rem) == p
    for (ek, eh, ef) in rem.terms:
        assert (ek, eh) in ((0, 0), (0, 1), (1, 0))
    assert rem == naive_remainder(p, basis)


def test_reduce_h2k_against_full_symbolic_relations():
    # the same check with the full parameterized relations
    from nsc.genus2 import G2Params, universal_relations

    rels = universal_relations(G2Params.symbolic())
    ring = rels.ring
    k, h, f = ring.gens()
    p = h * h * k
    quotients, rem = poly_reduce(p, list(rels.relations))
    assert sum((q * b for q, b in zip(quotients, rels.relations)), rem) == p
    for (ek, eh, ef) in rem.terms:
        assert (ek, eh) in ((0, 0), (0, 1), (1, 0))
    assert rem == naive_remainder(p, list(rels.relations))


def test_s_polynomial_identical_inputs_is_zero():
    ring = fhk_ring()
    g = genus2_monomial_relations(ring)[1]
    assert s_polynomial(g, g).is_zero()


def test_s_polynomial_hand_expanded():
    # S(h^2 - fk, hk - f^3) = k*(h^2 - fk) - h*(hk - f^3) = f^3 h - f k^2
    ring = fhk_ring()
    k, h, f = ring.gens()
    s = s_polynomial(h * h - f * k, h * k - f**3)
    assert s == f**3 * h - f * k * k
    assert all(d > 8 for d in s.weighted_degrees())
    assert (1, 2, 0) not in s.terms  # no h^2 k term


def test_s_polynomial_coprime_leads_reduces_to_zero():
    # Buchberger's first criterion instance: coprime leading monomials.
    ring = fhk_ring()
    k, h, f = ring.gens()
    a = h * h + f
    b = k**3 + h
    _, rem = poly_reduce(s_polynomial(a, b), [a, b])
    assert rem.is_zero()


def test_nested_ring_coefficients():
    qring = PolyRing(("q1",), (4,))
    ring = PolyRing(("k", "h", "f"), (5, 4, 3), base=qring)
    q1 = qring.var("q1")
    k, h, f = ring.gens()
    p = h * h - f * k - k.ring.const(q1) * h
    assert p.coefficient((0, 1, 0)) == -q1
    assert p.is_homogeneous(8)


def test_substitute_variable_shift():
    ring = PolyRing(("f",), (3,))
    (f,) = ring.gens()
    p = f * f + 2 * f + 1
    shifted = p.substitute({"f": f - 1})
    assert shifted == f * f
