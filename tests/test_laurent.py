from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import laurent_reference as ref
from nsc.errors import InternalInconsistencyError, TruncationError, ValidationError
from nsc.laurent import LaurentSeries, ParamChange, series_substitute
from nsc.rational import Graded


def ser(low, coeffs, cut):
    return LaurentSeries("t", low, coeffs, cut)


def test_window_arithmetic_tightest_sound():
    a = ser(0, [1, 1, 1, 1], cut=4)          # 1 + t + t^2 + t^3 + O(t^4)
    b = ser(-1, [1, 2], cut=1)               # t^-1 + 2 + O(t)
    assert (a + b).cut == 1
    assert (a + b).coefficient(0) == 3
    prod = a * b
    assert prod.cut == min(4 + (-1), 1 + 0) == 1
    assert prod.coefficient(-1) == 1
    assert prod.coefficient(0) == 3
    with pytest.raises(TruncationError):
        prod.coefficient(1)


def test_product_with_an_empty_window_knows_nothing_above_its_cut():
    # the product of O(u^-1) and u^-2 + 5u^-1 + O(1) is O(u^-3): nothing at u^-2 is known
    prod = LaurentSeries("u", -3, [], -1) * LaurentSeries("u", -2, [1, 5], 0)
    assert (prod.low, prod.cut) == (-3, -3)
    with pytest.raises(TruncationError):
        prod.coefficient(-2)
    zero = LaurentSeries.zero("u", -4)
    assert (zero.low, zero.cut) == (-4, -4)
    with pytest.raises(TruncationError):
        zero.coefficient(-1)


def test_coefficients_are_exact_scalars():
    with pytest.raises(ValidationError):
        ser(0, [0.5], cut=1)
    assert ser(0, [2], cut=1).coefficient(0) == Fraction(2)


def test_graded_scalar_arithmetic():
    assert Graded(3, 0) == 3 and hash(Graded(3, 0)) == hash(Fraction(3))
    assert Graded(0, 5) == 0 == Graded(0, 2)
    assert Graded(0, 5) + Graded(2, 1) == Graded(2, 1)
    assert Graded(2, 1) * Graded(Fraction(1, 2), 3) == Graded(1, 4)
    assert Graded(2, 1) * 3 == Graded(6, 1) == 3 * Graded(2, 1)
    assert Graded(2, 1) / 4 == Graded(Fraction(1, 2), 1)
    assert Graded(2, 1) - Graded(2, 1) == 0
    assert Graded(2, 1) != Graded(2, 2)


def test_mixing_lam_degrees_raises():
    with pytest.raises(InternalInconsistencyError):
        Graded(1, 1) + Graded(1, 2)
    with pytest.raises(InternalInconsistencyError):
        Graded(1, 1) - 1
    with pytest.raises(InternalInconsistencyError):
        LaurentSeries("u", 0, [Graded(1, 1)], 1) + LaurentSeries("u", 0, [Graded(1, 2)], 1)


def test_coefficient_below_window_is_zero():
    a = ser(2, [5], cut=3)
    assert a.coefficient(-7) == 0
    assert a.coefficient(2) == 5


def test_inverse_geometric():
    one_minus_t = ser(0, [1, -1], cut=6)
    inv = one_minus_t.inverse(cut=5)
    assert [inv.coefficient(i) for i in range(5)] == [1, 1, 1, 1, 1]
    assert (one_minus_t * inv).truncate(5) == ser(0, [1], cut=5)


def test_substitute_identity():
    s = ser(-1, [1, 0, 5], cut=3)
    assert series_substitute(s, Fraction(0), 2) == s
    pc = ParamChange.identity("t", order=5)
    assert pc.compose(Fraction(0), 3) == pc


def test_a_step_keeps_the_tangent():
    # u + eps*u^r with r < 2 is no correction step: r = 1 rescales the
    # tangent, and the binomial expansion would divide by r - 1 = 0
    s = ser(-1, [1, 0, 5], cut=3)
    for r in (1, 0, -2):
        with pytest.raises(ValidationError, match=f"r = {r}"):
            series_substitute(s, Fraction(1), r)


def test_substitute_polar_expansion_reference_coefficients():
    # t^(-g-1) - lam*t^(-g) under t = u - (lam/(g+1)) u^2, with lam of degree 1.
    for g, expect_m2 in ((2, Fraction(0)), (3, Fraction(-1, 8))):
        s = LaurentSeries("t", -g - 1, [1, Graded(-1, 1)], cut=1)
        out = series_substitute(s, Graded(Fraction(-1, g + 1), 1), 2)
        assert out.coefficient(-g - 1) == 1
        assert not out.coefficient(-g)
        # coefficient of u^(-g+1) is (2-g)/(2(g+1)) * lam^2
        c = out.coefficient(-g + 1)
        assert c == Graded(Fraction(2 - g, 2 * (g + 1)), 2)
        if g == 2:
            assert not out.coefficient(-1)
        if g == 3:
            assert out.coefficient(-2) == Graded(expect_m2, 2)
        # coefficient of u^(-g+2) is (-g^2+g+3)/(3(g+1)^2) * lam^3
        c3 = out.coefficient(-g + 2)
        assert c3 == Graded(Fraction(-g * g + g + 3, 3 * (g + 1) ** 2), 3)


# -- the closed-form engine against the product route ---------------------------
#
# Every strategy draws a scalar kind: None for plain rationals, or an integer
# w for homogeneous Graded coefficients of lam-degree e + w at u^e.  A
# parameter change u + eps*u^r has lead 1 of degree 0, so w = -1 for it.

kinds = st.none() | st.integers(-3, 3)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def window(x):
    return x.low, x.cut, x.known_items()


@st.composite
def coefficients(draw, w, e, unit=False):
    """A rational (a nonzero one if unit) for u^e, of lam-degree e + w unless
    w is None."""
    r = draw(rationals.filter(bool) if unit else rationals)
    return r if w is None else Graded(r, e + w)




@st.composite
def terms(draw, w, low=st.integers(-3, 3), max_tail=5):
    """(low, values, cut) of lead*u^low + tail, truncated at or past the
    stored terms; the lead has r = 1 half of the time, as for a parameter
    change (a Graded lead equals 1 only at degree 0)."""
    low = draw(low)
    lead = draw(st.just(None) | coefficients(w, low, unit=True))
    if lead is None:
        lead = 1 if w is None else Graded(1, low + w)
    size = draw(st.integers(0, max_tail))
    tail = [draw(coefficients(w, low + 1 + i)) for i in range(size)]
    return low, [lead, *tail], low + 1 + size + draw(st.integers(0, 2))


def series(w, **kw):
    return terms(w, **kw).map(lambda t: LaurentSeries("u", *t))


def pairs(w, **kw):
    """(series, the reference series) built from the same drawn values."""
    return terms(w, **kw).map(lambda t: (LaurentSeries("u", *t), ref.LaurentSeries("u", *t)))


def product_power(x, n, cut):
    """x^n by series products: n copies of x for n > 0, else one inverse and
    |n| - 1 more copies of it, times x for n = 0."""
    if n > 0:
        out = x
        for _ in range(n - 1):
            out = out * x
    else:
        v = x.valuation()
        base = x.inverse(cut=None if cut is None else cut + (-n - 1) * v)
        out = x * base if n == 0 else base
        for _ in range(-n - 1):
            out = out * base
    return out if cut is None else out.truncate(cut)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_negative_power_matches_product_route(data):
    # one inverse and products, against the reference's negative power
    x, rx = data.draw(kinds.flatmap(pairs))
    n = data.draw(st.integers(-30, -1))
    v = x.valuation()
    cut = data.draw(st.integers(n * v + 1, n * v + 10) | st.none())
    power = product_power(x, n, cut)
    agrees(power, rx.pow(n, cut))
    if n == -1:
        for e, c in (x * power).known_items():
            assert c == (1 if e == 0 else 0)


@settings(max_examples=30, deadline=None)
@given(kinds.flatmap(series), st.integers(-20, 0))
def test_negative_power_on_an_empty_window_is_sound(x, shift):
    # an inverse cut at or below the valuation -v of x^-1 leaves no known
    # coefficient; what the window claims to be zero must be zero
    v = x.valuation()
    power = x.inverse(-v + shift)
    assert power.is_known_zero() and power.cut <= -v
    with pytest.raises(TruncationError):
        power.coefficient(-v)


@st.composite
def steps(draw, graded):
    """A correction step (eps, r): the change u + eps*u^r (the identity when
    eps = 0), with eps of lam-degree r - 1 if graded."""
    r = draw(st.integers(2, 6))
    return draw(coefficients(-1 if graded else None, r)), r


def step_series(eps, r, s):
    """u + eps*u^r as a series known far enough that every power the product
    route takes of it is known on the whole window of s."""
    return LaurentSeries("u", 1, [1] + [0] * (r - 2) + [eps], max(r, s.cut - s.low) + 1)


def substitute_by_powers(s, p, out_cut):
    """sum_e c_e p^e with p^e from products and one inverse, on the window
    below out_cut: the product route, for any change p."""
    terms = [product_power(p, e, out_cut).scale(c) for e, c in s.known_items() if c and e < out_cut]
    if not terms:
        return LaurentSeries.zero(p.var, out_cut)
    return sum(terms[1:], terms[0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_binomial_change_matches_sum_of_powers(data):
    w = data.draw(kinds)
    s = data.draw(series(w, low=st.integers(-6, 4)))
    eps, r = data.draw(steps(w is not None))
    out = series_substitute(s, eps, r)
    assert window(out) == window(substitute_by_powers(s, step_series(eps, r, s), s.cut))


small_rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-3, max_value=2),
    st.lists(small_rats, min_size=1, max_size=5),
    st.integers(min_value=-2, max_value=2),
    st.lists(small_rats, min_size=1, max_size=5),
    steps(False),
)
def test_substitute_is_ring_homomorphism(la, ca, lb, cb, step):
    a = ser(la, ca, cut=la + len(ca))
    b = ser(lb, cb, cut=lb + len(cb))
    lhs = series_substitute(a * b, *step)
    rhs = series_substitute(a, *step) * series_substitute(b, *step)
    cut = min(lhs.cut, rhs.cut)
    assert lhs.truncate(cut) == rhs.truncate(cut)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rats, min_size=1, max_size=4), st.lists(small_rats, min_size=1, max_size=4),
       steps(False))
@example(ca=[Fraction(1)], cb=[Fraction(-1), Fraction(1)], step=(Fraction(1), 2))
def test_substitute_respects_addition(ca, cb, step):
    # a step keeps the window of a + b even when the sum cancels its lowest
    # term
    a = ser(0, ca, cut=6)
    b = ser(0, cb, cut=6)
    assert series_substitute(a + b, *step) == series_substitute(a, *step) + series_substitute(b, *step)


# -- against the reference series over Fraction and Graded tuples ---------------


def as_reference(s):
    """The series as a reference series, from the coefficients it reads."""
    return ref.LaurentSeries(s.var, s.low, [c for _, c in s.known_items()], s.cut)


def plain_at_degree_zero(x):
    """A reference series with its lam^0 values as plain rationals, as the
    package reads them."""
    return ref.LaurentSeries(x.var, x.low, [c.r if isinstance(c, Graded) and c.d == 0 else c
                                            for c in x.coeffs], x.cut)


def in_lowest_terms(s):
    """den > 0, gcd(den, *numerators) = 1, a nonzero lead, the full window."""
    return (s.den > 0 and gcd(s.den, *s.coeffs) == 1 and len(s.coeffs) == s.cut - s.low
            and (not s.coeffs or s.coeffs[0] != 0))


def agrees(new, old):
    """new, in lowest terms, has the coefficients, window, hash, str and repr
    of the reference result old."""
    assert in_lowest_terms(new)
    assert as_reference(new) == old and hash(new) == hash(old)
    plain = plain_at_degree_zero(old)
    assert (str(new), repr(new)) == (str(plain), repr(plain))


def scalars(w):
    """A scalar for scale: a rational, or for weighted draws a monomial of any
    lam-degree."""
    return rationals if w is None else st.builds(Graded, rationals, st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_reference(data):
    w = data.draw(kinds)
    (a, ra), (b, rb) = data.draw(pairs(w)), data.draw(pairs(w))
    agrees(a, ra)
    agrees(a + b, ra + rb)
    agrees(a - b, ra - rb)
    agrees(-a, -ra)
    c = data.draw(scalars(w))
    agrees(a.scale(c), ra.scale(c))
    x, rx = data.draw(pairs(w if w is None else data.draw(st.integers(-3, 3))))
    agrees(a * x, ra * rx)
    cut = data.draw(st.integers(a.low - 2, a.cut + 1))
    agrees(a.truncate(cut), ra.truncate(cut))
    assert (a == b) == (ra == rb)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a == LaurentSeries("u", ra.low, ra.coeffs, ra.cut)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_powers_match_the_reference(data):
    x, rx = data.draw(kinds.flatmap(pairs))
    n = data.draw(st.integers(0, 6))
    v = x.valuation()
    cut = data.draw(st.integers(n * v - 3, n * v + 12) | st.none())
    agrees(product_power(x, n, cut), rx.pow(n, cut))
    cut = data.draw(st.integers(-v - 3, -v + 12) | st.none())
    agrees(x.inverse(cut), rx.inverse(cut))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_substitution_matches_the_reference(data):
    w = data.draw(kinds)
    s, rs = data.draw(pairs(w, low=st.integers(-6, 4)))
    eps, r = data.draw(steps(w is not None))
    agrees(series_substitute(s, eps, r), ref.series_substitute(rs, eps, r))
    if w is None:
        pc = ParamChange.identity("u", order=8).compose(eps, r)
        assert repr(pc) == repr(ref.ParamChange.identity("u", order=8).compose(eps, r))


def test_a_plain_rational_equals_the_same_rational_at_lam_degree_zero():
    plain, graded = LaurentSeries("u", -2, [3], 1), LaurentSeries("u", -2, [Graded(3, 0)], 1)
    assert (plain.w, graded.w) == (None, 2)
    assert plain == graded and hash(plain) == hash(graded) and str(plain) == str(graded)
    assert graded.coefficient(-1) == Graded(0, 1) and type(plain.coefficient(-1)) is Fraction
    assert LaurentSeries("u", -2, [3, 1], 1) != LaurentSeries("u", -2, [Graded(3, 0), Graded(1, 1)], 1)


def test_a_plain_series_takes_no_graded_scalar():
    s = ser(0, [1, 2], cut=3)
    with pytest.raises(InternalInconsistencyError):
        s.scale(Graded(1, 1))
    with pytest.raises(InternalInconsistencyError):
        series_substitute(s, Graded(1, 1), 2)
    with pytest.raises(InternalInconsistencyError):
        s * LaurentSeries("t", 0, [Graded(1, 0)], 2)
    with pytest.raises(ValidationError):
        LaurentSeries("u", 0, [Graded(1, 0), Graded(1, 0)], 2)  # not homogeneous
    # a series with no nonzero coefficient takes any weight
    assert (LaurentSeries.zero("t", 5) + LaurentSeries("t", 0, [Graded(2, 1)], 3)).w == 1
