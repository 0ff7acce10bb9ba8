from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import laurent_reference as ref
from laurent_reference import Graded
from nsc.errors import InternalInconsistencyError, TruncationError, ValidationError
from nsc.laurent import LaurentSeries, ParamChange, series_reduce, series_substitute


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
    # the graded reference refuses a sum that is no monomial, so a degree
    # the reference recursion reads is a degree it computed
    with pytest.raises(InternalInconsistencyError):
        Graded(1, 1) + Graded(1, 2)
    with pytest.raises(InternalInconsistencyError):
        Graded(1, 1) - 1
    with pytest.raises(InternalInconsistencyError):
        ref.LaurentSeries("u", 0, [Graded(1, 1)], 1) + ref.LaurentSeries("u", 0, [Graded(1, 2)], 1)


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
    # t^(-g-1) - lam*t^(-g) under t = u - (lam/(g+1)) u^2, at lam = 1.
    for g, expect_m2 in ((2, Fraction(0)), (3, Fraction(-1, 8))):
        s = LaurentSeries("t", -g - 1, [1, -1], cut=1)
        out = series_substitute(s, Fraction(-1, g + 1), 2)
        assert out.coefficient(-g - 1) == 1
        assert not out.coefficient(-g)
        # coefficient of u^(-g+1) is (2-g)/(2(g+1)) * lam^2
        assert out.coefficient(-g + 1) == Fraction(2 - g, 2 * (g + 1))
        if g == 2:
            assert not out.coefficient(-1)
        if g == 3:
            assert out.coefficient(-2) == expect_m2
        # coefficient of u^(-g+2) is (-g^2+g+3)/(3(g+1)^2) * lam^3
        assert out.coefficient(-g + 2) == Fraction(-g * g + g + 3, 3 * (g + 1) ** 2)


# -- the closed-form engine against the product route ---------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
units = rationals.filter(bool)


def window(x):
    return x.low, x.cut, x.known_items()


@st.composite
def terms(draw, low=st.integers(-3, 3), max_tail=5):
    """(low, values, cut) of lead*u^low + tail, truncated at or past the
    stored terms; the lead is 1 half of the time, as for a parameter change."""
    low = draw(low)
    lead = draw(st.just(1) | units)
    size = draw(st.integers(0, max_tail))
    tail = draw(st.lists(rationals, min_size=size, max_size=size))
    return low, [lead, *tail], low + 1 + size + draw(st.integers(0, 2))


def series(**kw):
    return terms(**kw).map(lambda t: LaurentSeries("u", *t))


def pairs(**kw):
    """(series, the reference series) built from the same drawn values."""
    return terms(**kw).map(lambda t: (LaurentSeries("u", *t), ref.LaurentSeries("u", *t)))


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
    x, rx = data.draw(pairs())
    n = data.draw(st.integers(-30, -1))
    v = x.valuation()
    cut = data.draw(st.integers(n * v + 1, n * v + 10) | st.none())
    power = product_power(x, n, cut)
    agrees(power, rx.pow(n, cut))
    if n == -1:
        for e, c in (x * power).known_items():
            assert c == (1 if e == 0 else 0)


@settings(max_examples=30, deadline=None)
@given(series(), st.integers(-20, 0))
def test_negative_power_on_an_empty_window_is_sound(x, shift):
    # an inverse cut at or below the valuation -v of x^-1 leaves no known
    # coefficient; what the window claims to be zero must be zero
    v = x.valuation()
    power = x.inverse(-v + shift)
    assert power.is_known_zero() and power.cut <= -v
    with pytest.raises(TruncationError):
        power.coefficient(-v)


def steps():
    """A correction step (eps, r): the change u + eps*u^r (the identity when
    eps = 0)."""
    return st.tuples(rationals, st.integers(2, 6))


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
    s = data.draw(series(low=st.integers(-6, 4)))
    eps, r = data.draw(steps())
    out = series_substitute(s, eps, r)
    assert window(out) == window(substitute_by_powers(s, step_series(eps, r, s), s.cut))


small_rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-3, max_value=2),
    st.lists(small_rats, min_size=1, max_size=5),
    st.integers(min_value=-2, max_value=2),
    st.lists(small_rats, min_size=1, max_size=5),
    steps(),
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
       steps())
@example(ca=[Fraction(1)], cb=[Fraction(-1), Fraction(1)], step=(Fraction(1), 2))
def test_substitute_respects_addition(ca, cb, step):
    # a step keeps the window of a + b even when the sum cancels its lowest
    # term
    a = ser(0, ca, cut=6)
    b = ser(0, cb, cut=6)
    assert series_substitute(a + b, *step) == series_substitute(a, *step) + series_substitute(b, *step)


# -- against the reference series over Fraction tuples ----------------------------


def as_reference(s):
    """The series as a reference series, from the coefficients it reads."""
    return ref.LaurentSeries(s.var, s.low, [c for _, c in s.known_items()], s.cut)


def in_lowest_terms(s):
    """den > 0, gcd(den, *numerators) = 1, a nonzero lead, the full window."""
    return (s.den > 0 and gcd(s.den, *s.coeffs) == 1 and len(s.coeffs) == s.cut - s.low
            and (not s.coeffs or s.coeffs[0] != 0))


def agrees(new, old):
    """new, in lowest terms, has the coefficients, window, hash, str and repr
    of the reference result old."""
    assert in_lowest_terms(new)
    assert as_reference(new) == old and hash(new) == hash(old)
    assert (str(new), repr(new)) == (str(old), repr(old))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_reference(data):
    (a, ra), (b, rb) = data.draw(pairs()), data.draw(pairs())
    agrees(a, ra)
    agrees(a + b, ra + rb)
    agrees(a - b, ra - rb)
    agrees(-a, -ra)
    c = data.draw(rationals | st.integers(-6, 6))
    agrees(a.scale(c), ra.scale(c))
    x, rx = data.draw(pairs())
    agrees(a * x, ra * rx)
    cut = data.draw(st.integers(a.low - 2, a.cut + 1))
    agrees(a.truncate(cut), ra.truncate(cut))
    assert (a == b) == (ra == rb)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a == LaurentSeries("u", ra.low, ra.coeffs, ra.cut)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_powers_match_the_reference(data):
    x, rx = data.draw(pairs())
    n = data.draw(st.integers(0, 6))
    v = x.valuation()
    cut = data.draw(st.integers(n * v - 3, n * v + 12) | st.none())
    agrees(product_power(x, n, cut), rx.pow(n, cut))
    cut = data.draw(st.integers(-v - 3, -v + 12) | st.none())
    agrees(x.inverse(cut), rx.inverse(cut))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_substitution_matches_the_reference(data):
    s, rs = data.draw(pairs(low=st.integers(-6, 4)))
    eps, r = data.draw(steps())
    agrees(series_substitute(s, eps, r), ref.series_substitute(rs, eps, r))
    pc = ParamChange.identity("u", order=8).compose(eps, r)
    assert repr(pc) == repr(ref.ParamChange.identity("u", order=8).compose(eps, r))


def test_a_plain_series_takes_no_graded_scalar():
    # the reference's lam monomial is no exact scalar of the package's
    s = ser(0, [1, 2], cut=3)
    for bad in (lambda: s.scale(Graded(1, 1)), lambda: s * Graded(1, 0),
                lambda: series_substitute(s, Graded(1, 1), 2),
                lambda: LaurentSeries("u", 0, [Graded(1, 0)], 2)):
        with pytest.raises(ValidationError, match="not an exact scalar"):
            bad()


def test_a_step_with_a_fractional_r_is_refused():
    # 2 // (3.5 - 1) = 0.0 once read as "no term lands" and returned s unchanged
    s = ser(-1, [1, 0, 5], cut=3)
    with pytest.raises(ValidationError, match="r must be an int, got 3.5"):
        series_substitute(s, 1, 3.5)


def test_a_float_r_low_or_cut_is_a_validation_error():
    # each once raised a bare TypeError
    s = ser(-1, [1, 0, 5], cut=3)
    with pytest.raises(ValidationError, match="r must be an int, got 2.0"):
        series_substitute(s, 1, 2.0)
    with pytest.raises(ValidationError, match="low must be an int, got 0.5"):
        LaurentSeries("u", 0.5, [1], 2)
    for cut in (2.0, Fraction(2)):
        with pytest.raises(ValidationError, match="cut must be an int"):
            LaurentSeries("u", 0, [1], cut)
        with pytest.raises(ValidationError, match="cut must be an int"):
            s.truncate(cut)
        with pytest.raises(ValidationError, match="cut must be an int"):
            s.inverse(cut)


def test_a_bool_r_low_or_cut_is_refused():
    # LaurentSeries("u", True, [1], 2) once read as u^1 + O(u^2)
    with pytest.raises(ValidationError, match="low must be an int, got True"):
        LaurentSeries("u", True, [1], 2)
    with pytest.raises(ValidationError, match="cut must be an int, got False"):
        LaurentSeries("u", -1, [1], False)
    with pytest.raises(ValidationError, match="cut must be an int, got True"):
        ser(-1, [1, 0, 5], cut=3).truncate(True)
    with pytest.raises(ValidationError, match="r must be an int, got True"):
        series_substitute(ser(-1, [1, 0, 5], cut=3), 1, True)


def test_a_bool_coefficient_or_scalar_is_refused():
    # a True coefficient once read as 1
    s = ser(0, [1, 2], cut=3)
    for bad in (lambda: LaurentSeries("u", 0, [True], 2), lambda: LaurentSeries("u", 0, [1, False], 2),
                lambda: s.scale(True), lambda: series_substitute(s, True, 2)):
        with pytest.raises(ValidationError, match="not an exact scalar"):
            bad()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_step_that_cannot_reach_the_window_returns_the_series(data):
    # no term u^(e + i(r-1)), i >= 1, lands below the cut: eps = 0, or a
    # window narrower than r (an empty one included)
    eps, r = data.draw(steps())
    s, rs = data.draw(pairs(max_tail=3) | st.integers(-3, 3).map(
        lambda cut: (LaurentSeries.zero("u", cut), ref.LaurentSeries.zero("u", cut))))
    assume(not eps or s.cut - s.low < r)
    assert series_substitute(s, eps, r) is s
    agrees(s, ref.series_substitute(rs, eps, r))


@st.composite
def gapped_pairs(draw):
    """(series, reference series) shaped like the recursion's: a lead, a run
    of zeros, then a tail, as in a normal form u^-m + sum_j s_j u^(-g+j) or
    a parameter change u + c*u^r + ...; the window may straddle u^0."""
    low, gap, size = draw(st.integers(-12, 2)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    lead = draw(units)
    tail = draw(st.lists(rationals, min_size=size, max_size=size))
    t = (low, [lead, *[0] * gap, *tail], low + 1 + gap + size + draw(st.integers(0, 2)))
    return LaurentSeries("u", *t), ref.LaurentSeries("u", *t)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_recursion_shaped_series_match_the_reference(data):
    # r runs past the window width, where no term lands and s comes back as it is
    (s, rs), (x, rx) = data.draw(gapped_pairs()), data.draw(gapped_pairs())
    r = data.draw(st.integers(2, s.cut - s.low + 3))
    eps = data.draw(rationals)
    out = series_substitute(s, eps, r)
    agrees(out, ref.series_substitute(rs, eps, r))
    assert window(out) == window(substitute_by_powers(s, step_series(eps, r, s), s.cut))
    agrees(s * x, rs * rx)


# -- the reduction against the sequential route -----------------------------------


@st.composite
def divisor_pairs(draw, e):
    """(series, reference series) to reduce against at u^e.  Most lead at
    u^e, as in the triangular families of the recursion and the genus-2 fit;
    some start elsewhere, know less (cut narrowing) or nothing (an empty
    window)."""
    low, values, cut = draw(terms(low=st.just(e)) | terms(low=st.integers(e - 2, e + 2))
                            | st.integers(e - 2, e + 4).map(lambda c: (c, [], c)))
    cut = draw(st.just(cut) | st.integers(low - 1, cut))
    return LaurentSeries("u", low, values, cut), ref.LaurentSeries("u", low, values, cut)


def outcome(reduce, s, divisors):
    """reduce's (multipliers, remainder), or the type of what it raised."""
    try:
        return reduce(s, divisors)
    except TruncationError as exc:
        return type(exc)


def fields(s):
    return s.var, s.low, s.cut, s.den, s.coeffs


def typed(values):
    return [(type(x), x) for x in values]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reduction_matches_the_sequential_route(data):
    s, rs = data.draw(pairs(low=st.integers(-6, 0)))
    # mostly ascending exponents in the window, as in a triangular family
    exponents = data.draw(st.lists(st.integers(s.low - 1, s.cut - 1), min_size=1, max_size=5, unique=True))
    if data.draw(st.integers(0, 3)):
        exponents.sort()
    drawn = [data.draw(divisor_pairs(e)) for e in exponents]
    got = outcome(series_reduce, s, [(e, d) for e, (d, _) in zip(exponents, drawn)])
    sequential = outcome(ref.series_reduce, s, [(e, d) for e, (d, _) in zip(exponents, drawn)])
    reference = outcome(ref.series_reduce, rs, [(e, d) for e, (_, d) in zip(exponents, drawn)])
    if isinstance(got, type):  # a read past the remainder's window
        assert got is sequential is reference is TruncationError
        return
    (xs, r), (seq_xs, seq_r), (ref_xs, ref_r) = got, sequential, reference
    # the multipliers as `coefficient` reads them, zeros included
    assert len(xs) == len(exponents) and typed(xs) == typed(seq_xs) and xs == ref_xs
    assert fields(r) == fields(seq_r)
    agrees(r, ref_r)


def test_zero_multipliers_empty_windows_and_cut_narrowing():
    s = ser(-3, [1, 0, 2, 5], cut=3)
    narrow = ser(-2, [1, 7], cut=0)
    cases = (
        (s, [(-2, narrow)], [0], (-3, 3)),                                       # a zero multiplier keeps the window
        (s, [(-1, ser(-1, [1, 7], cut=1))], [2], (-3, 1)),                      # a nonzero one narrows it
        (s, [(-3, LaurentSeries.zero("t", 0)), (-1, narrow)], [1, 2], (-3, 0)),  # so does an empty divisor
        (LaurentSeries.zero("t", 2), [(-4, narrow), (1, s)], [0, 0], (2, 2)),  # an empty remainder reads zeros
    )
    for start, divisors, multipliers, window in cases:
        xs, r = series_reduce(start, divisors)
        seq_xs, seq_r = ref.series_reduce(start, divisors)
        assert typed(xs) == typed(seq_xs) and xs == multipliers
        assert fields(r) == fields(seq_r) and (r.low, r.cut) == window
    with pytest.raises(TruncationError):  # the narrowed window ends below u^0
        series_reduce(s, [(-1, ser(-1, [1], cut=0)), (0, s)])
