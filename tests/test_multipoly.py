from functools import partial
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import multipoly_reference as ref
from nsc.errors import ValidationError
from nsc.multipoly import MultiPoly, PolyRing, poly_reduce, s_polynomial

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
    order = PolyRing(("k", "h", "f"), (5, 4, 3))
    # exponent vectors (k, h, f)
    assert order.sort_key((0, 2, 0)) > order.sort_key((1, 0, 1))  # h^2 > fk
    assert order.sort_key((1, 1, 0)) > order.sort_key((0, 0, 3))  # hk > f^3
    assert order.sort_key((2, 0, 0)) > order.sort_key((0, 1, 2))  # k^2 > f^2 h
    # transposed listing (smallest first) would invert the hk vs f^3 call
    flipped = PolyRing(("f", "h", "k"), (3, 4, 5))
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
        for exps in sorted(p.terms, key=ring.sort_key, reverse=True):
            if exps not in p.terms:
                continue
            for b, (le, lc) in zip(basis, lts):
                if all(x <= y for x, y in zip(le, exps)):
                    c = p.terms[exps]
                    q = MultiPoly(ring, {tuple(a - b2 for a, b2 in zip(exps, le)): c / lc})
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
    k, h = ring.var("k"), ring.var("h")
    p = h * h * k
    quotients, rem = poly_reduce(p, list(rels.relations))
    assert sum((q * b for q, b in zip(quotients, rels.relations)), rem) == p
    for (ek, eh, *_) in rem.terms:
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


def test_parameters_are_variables_of_the_flat_ring():
    # a parameter is one more variable over Q, not a coefficient ring
    ring = PolyRing(("k", "h", "f", "q1"), (5, 4, 3, 4))
    k, h, f, q1 = ring.gens()
    p = h * h - f * k - q1 * h
    assert p.coefficient((0, 1, 0, 1)) == -1 and p.coefficient((0, 1, 0, 0)) == 0
    assert p.is_homogeneous(8) and p.weighted_degrees() == {8}
    assert p.leading_term() == ((0, 2, 0, 0), Fraction(1))  # q1, listed last, makes q1*h smaller
    assert repr(ring) == "QQ[k,h,f,q1]"
    with pytest.raises(TypeError, match="base"):
        PolyRing(("k", "h", "f"), (5, 4, 3), base=PolyRing(("q1",), (4,)))


def test_substitute_variable_shift():
    ring = PolyRing(("f",), (3,))
    (f,) = ring.gens()
    p = f * f + 2 * f + 1
    shifted = p.substitute({"f": f - 1})
    assert shifted == f * f


def test_weights_and_exponents_must_be_ints():
    for weights in (("a",), (2.0,), (True,), (0,), (-1,)):
        with pytest.raises(ValidationError, match="^weights must be positive integers$"):
            PolyRing(("x",), weights)
    for weights in ((), (1, 2)):
        with pytest.raises(ValidationError, match="^one weight per variable required$"):
            PolyRing(("x",), weights)
    ring = PolyRing(("x", "y"), (1, 2))
    x = ring.var("x")
    for n in (2.5, True, False, "2", -1):
        with pytest.raises(ValidationError):
            x ** n
    for exps in ((1.0, 0), (True, 0), (-1, 0), (1,)):
        with pytest.raises(ValidationError):
            MultiPoly(ring, {exps: 1})
    assert x ** 0 == ring.one() and x ** 2 == x * x


def test_the_constructor_drops_zeros_and_coerces():
    # MultiPoly(ring, terms) once kept a zero coefficient: truthy, printed
    # "0*x" and unequal to the zero polynomial
    ring = PolyRing(("x",), (1,))
    zero = MultiPoly(ring, {(1,): 0})
    assert not zero and zero == ring.zero() and str(zero) == str(ring.zero())
    two_x = MultiPoly(ring, {(1,): 2, (0,): Fraction(0)})
    assert two_x.terms == {(1,): Fraction(2)} and type(two_x.terms[(1,)]) is Fraction
    assert two_x == 2 * ring.var("x")
    # coefficients are rational: a polynomial is no coefficient
    for bad in ("1", 1.0, ring.var("x"), ring.one()):
        with pytest.raises(ValidationError):
            MultiPoly(ring, {(1,): bad})


# -- the division and substitution against tests/multipoly_reference.py ------

SMALL = st.one_of(st.integers(-3, 3), st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def rings(draw):
    """Q[x, y, z] with drawn weights, or Q[x, y, z, q1, q2]."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
    if draw(st.booleans()):
        return PolyRing(("x", "y", "z", "q1", "q2"), weights + (1, 2))
    return PolyRing(("x", "y", "z"), weights)


def polys(ring, max_size=6, max_exponent=3):
    exps = st.tuples(*[st.integers(0, max_exponent)] * len(ring.variables))
    return st.builds(partial(MultiPoly, ring), st.dictionaries(exps, SMALL, max_size=max_size))


@st.composite
def divisions(draw):
    """A dividend and a basis of 1 to 3 polynomials with unit leading
    coefficients, not in general a Groebner basis, so that the remainder
    depends on which divisor the division picks."""
    ring = draw(rings())
    f = draw(polys(ring, max_size=6, max_exponent=3))
    basis = []
    for _ in range(draw(st.integers(1, 3))):
        b = draw(polys(ring, max_size=4, max_exponent=2).filter(bool))
        lexps, _ = b.leading_term()
        unit = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
        basis.append(MultiPoly(ring, {**b.terms, lexps: ring.coerce_coeff(unit)}))
    return f, basis


def assert_same_poly(got, expected):
    """Equal term by term, in the same order, with the same coefficient
    types, and printed the same."""
    assert got.ring == expected.ring
    assert list(got.terms) == list(expected.terms)
    for exps, c in got.terms.items():
        assert type(c) is type(expected.terms[exps])
        assert c == expected.terms[exps]
        assert str(c) == str(expected.terms[exps])
    assert str(got) == str(expected)


@settings(max_examples=150, deadline=None)
@given(divisions())
def test_poly_reduce_matches_the_reference(division):
    f, basis = division
    quotients, rem = poly_reduce(f, basis)
    ref_quotients, ref_rem = ref.poly_reduce(f, basis)
    assert len(quotients) == len(ref_quotients)
    for q, expected in zip(quotients, ref_quotients):
        assert_same_poly(q, expected)
    assert_same_poly(rem, ref_rem)
    assert sum((q * b for q, b in zip(quotients, basis)), rem) == f


def test_poly_reduce_takes_the_first_divisor_that_matches():
    # both leading monomials, x^2 and xy, divide x^2 y; the basis is not a
    # Groebner basis, so the remainder depends on which one is taken
    ring = PolyRing(("x", "y"), (1, 1))
    x, y = ring.gens()
    a, b = x * x - y, x * y - 1
    assert poly_reduce(x * x * y, [a, b]) == ([y, ring.zero()], y * y)
    assert poly_reduce(x * x * y, [b, a]) == ([x, ring.zero()], x)


def test_poly_reduce_rejects_a_basis_from_another_ring():
    ring = PolyRing(("x", "y"), (1, 1))
    other = PolyRing(("x", "y"), (1, 2))
    with pytest.raises(ValidationError):
        poly_reduce(ring.var("x"), [other.var("x")])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_matches_the_reference(data):
    ring = data.draw(rings())
    p = data.draw(polys(ring))
    names = data.draw(st.lists(st.sampled_from(ring.variables), unique=True))
    assignments = {name: data.draw(st.one_of(polys(ring, max_size=3, max_exponent=2), SMALL)) for name in names}
    assert_same_poly(p.substitute(assignments), ref.substitute(p, assignments))
