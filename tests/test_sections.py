import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from nsc import linalg
from nsc.curves import (
    INF, CurveModel, Divisor, MarkedPoint, arithmetic_genus, constraints, h1, validate,
)
from nsc.errors import CohomologyError, TruncationError, ValidationError
from nsc.laurent import LaurentSeries, ParamChange
from nsc.sections import (
    MAX_M_MAX, MAX_TAIL, _combine, _element_series, _solve_section, alpha_beta, canonical_parameter, f_sections,
    rescale_tangent, solve_sections,
)
import curves_reference as curves_ref
import sections_reference as sections_ref
from sections_reference import _elt_expansion as ref_elt_expansion, _expansion
from test_laurent import substitute_by_powers
from nsc.zoo import ZOO_IDS, cusp, glued_cusps, node, tacnode, zoo


def mp(point, tangent=1, weight=None):
    return MarkedPoint("c0", point if point is INF else Fraction(point), Fraction(tangent), weight)


def is_identity(pc):
    """The parameter change is t = u on its whole window."""
    return not any(c for e, c in pc.series.known_items() if e != 1)


def test_deep_cusp_sections_have_no_alpha_tail():
    # at the torus-fixed curve every expansion coefficient vanishes
    for g in (2, 3):
        cur = zoo(f"ccusp{g}", marked=(mp(INF, weight=g),))
        for m in range(g + 1, g + 5):
            sec = f_sections(cur, {"p0": g}, "p0", m, tail=8)
            exp = sec.expansions["p0"]
            assert exp.coefficient(-m) == 1
            for e in range(-m + 1, 8):
                assert exp.coefficient(e) == 0


def test_glued_cusps_torus_fixed_two_point_curve():
    # two deep cusps glued transversally: genus a1+a2, and every expansion
    # coefficient of every section vanishes at both marked points
    from nsc.curves import arithmetic_genus
    from nsc.sections import canonical_parameter
    from nsc.zoo import glued_cusps

    for a1, a2 in ((1, 1), (2, 1), (2, 3)):
        cur = glued_cusps(a1, a2)
        g = a1 + a2
        assert arithmetic_genus(cur) == g
        w = {"p0": a1, "p1": a2}
        assert h1(cur, Divisor.of(w)) == 0
        for i, a_i in (("p0", a1), ("p1", a2)):
            assert is_identity(canonical_parameter(cur, w, i, a_i + 4))
            for m in range(a_i + 1, a_i + 4):
                sec = f_sections(cur, w, i, m, tail=6)
                for pid in ("p0", "p1"):
                    exp = sec.expansions[pid]
                    for e in range(exp.low, 6):
                        expected = 1 if (pid == i and e == -m) else 0
                        assert exp.coefficient(e) == expected


def test_projective_line_inverse_parameter_section():
    cur = validate(CurveModel(("c0",), (), (mp(0),)))
    sec = f_sections(cur, {"p0": 0}, "p0", 1, tail=6)
    exp = sec.expansions["p0"]
    assert exp.coefficient(-1) == 1
    for e in range(0, 6):
        assert exp.coefficient(e) == 0
    # the function is exactly 1/t
    assert str(sec.function) == "c0: 1/t"


def test_sections_consistent_under_deeper_jets():
    cur = zoo("Ia", marked=(mp(5), mp(7)))
    from nsc.zoo import _point

    # re-encode each node with jet order 4 instead of 2
    deep_sings = [_point([(b.component, b.point) for b in s.branches], 4, 1, ({0: 1, 4: 1},))
                  for s in cur.singularities]
    deep = validate(CurveModel(cur.components, tuple(deep_sings), cur.marked_points))
    w = {"p0": 1, "p1": 1}
    for m in (2, 3, 4):
        a = f_sections(cur, w, "p0", m, tail=5)
        b = f_sections(deep, w, "p0", m, tail=5)
        for pid in ("p0", "p1"):
            for e in range(-m, 5):
                assert a.expansions[pid].coefficient(e) == b.expansions[pid].coefficient(e)


def test_section_rejects_weierstrass_configuration():
    # on the pinched curve, the one-point weight-2 section of order 3 is
    # obstructed at the special point at infinity, and the one of order 4 is
    # not unique: neither system is triangular, and the elimination says so
    cur = zoo("IIc-C0")
    with pytest.raises(CohomologyError) as exc:
        f_sections(cur, {"p1": 2}, "p1", 3)
    assert str(exc.value) == "no section with principal part u^-3 at p1: h1 obstruction (weights {'p1': 2})"
    with pytest.raises(CohomologyError) as exc:
        f_sections(cur, {"p1": 2}, "p1", 4)
    assert str(exc.value) == "section of order 4 at p1 is not unique: h1((('p1', 4),)) != 0"


def test_canonical_parameter_identity_on_deep_cusp():
    cur = zoo("ccusp2", marked=(mp(INF, weight=2),))
    pc = canonical_parameter(cur, {"p0": 2}, "p0", 6)
    assert is_identity(pc)


def test_canonical_parameter_postcondition_and_idempotence():
    cur = zoo("Ic")  # two cusps, marked at 5 and 7
    w = {"p0": 1, "p1": 1}
    pc = canonical_parameter(cur, w, "p0", 6)
    assert not is_identity(pc)
    for m in range(2, 7):
        _, _, expansions = reference_section(cur, w, "p0", m, pc, tail=0)
        assert expansions["p0"].coefficient(-1) == 0
    # running the search again on top of the canonical parameter changes nothing
    pc2 = canonical_parameter(cur, w, "p0", 6)
    assert pc2 == pc


def test_alpha_beta_nonspecial_gives_alpha_nonzero():
    for case in ("Ia", "Ic", "IIb-tacnode"):
        cur = zoo(case)
        alpha, beta = alpha_beta(cur)
        assert h1(cur, Divisor.of({"p0": 2})) == 0
        assert alpha != 0


def test_alpha_beta_weierstrass_point_gives_alpha_zero_beta_nonzero():
    # infinity on the pinched curve: h1(2p) != 0 but h1(3p) = 0
    cur = zoo("IIc-C0", marked=(mp(INF), mp(3)))
    alpha, beta = alpha_beta(cur)
    assert h1(cur, Divisor.of({"p0": 2})) == 1
    assert h1(cur, Divisor.of({"p0": 3})) == 0
    assert alpha == 0 and beta != 0


def test_alpha_beta_equivalence_randomized():
    rng = random.Random(1202)
    spots = [Fraction(5), Fraction(7), Fraction(-2), Fraction(9, 2), Fraction(11), Fraction(-7, 3)]
    checked = 0
    for case in ZOO_IDS:
        for _ in range(3):
            pts = rng.sample(spots, 2)
            if case == "IIc-C0" and rng.random() < 0.5:
                marks = (mp(INF), mp(pts[1]))
            else:
                marks = (mp(pts[0]), mp(pts[1]))
            cur = zoo(case, marked=marks)
            if h1(cur, Divisor.of({"p0": 1, "p1": 1})) != 0:
                continue
            alpha, beta = alpha_beta(cur)
            assert (alpha != 0) == (h1(cur, Divisor.of({"p0": 2})) == 0)
            assert ((alpha, beta) != (0, 0)) == (h1(cur, Divisor.of({"p0": 3})) == 0)
            checked += 1
    assert checked >= 20


def test_alpha_coefficients_scale_with_torus_weights():
    # weight of the (i at m, j at q) coefficient is m e_i + q e_j
    cur = zoo("Ia")
    w = {"p0": 1, "p1": 1}
    base = {m: f_sections(cur, w, "p0", m, tail=3) for m in (2, 3)}
    for c in (Fraction(2), Fraction(-3), Fraction(5, 7)):
        scaled_i = rescale_tangent(cur, "p0", c)
        scaled_j = rescale_tangent(cur, "p1", c)
        for m in (2, 3):
            si = f_sections(scaled_i, w, "p0", m, tail=3)
            sj = f_sections(scaled_j, w, "p0", m, tail=3)
            for q in range(-1, 3):
                a = base[m].alpha("p0", q)
                assert si.alpha("p0", q) == c ** (m + q) * a
                b = base[m].alpha("p1", q)
                assert si.alpha("p1", q) == c ** m * b
                assert sj.alpha("p1", q) == c ** q * b


def test_alpha_beta_needs_two_different_points():
    # "pinf" is p1 on IIc-C0: the same point under two ids
    cur = zoo("IIc-C0")
    for i, j in (("p1", "pinf"), ("p0", "p0")):
        with pytest.raises(ValidationError, match="two different marked points"):
            alpha_beta(cur, i, j, weights={"p0": 1, "p1": 1})


def test_tangent_factor_must_be_exact():
    cur = zoo("Ia")
    for factor in (0.1, True, "2", None):
        with pytest.raises(ValidationError, match=f"factor {factor!r} must be an int or a Fraction"):
            rescale_tangent(cur, "p0", factor)
    assert rescale_tangent(cur, "p0", 2) == rescale_tangent(cur, "p0", Fraction(2))
    with pytest.raises(ValidationError, match="nonzero"):
        rescale_tangent(cur, "p0", 0)


def test_weight_validation():
    cur = zoo("Ia")
    with pytest.raises(ValidationError):
        f_sections(cur, {"p0": 1}, "p0", 3)  # weights sum 1 != genus 2
    with pytest.raises(ValidationError):
        f_sections(cur, {"p0": 1, "p1": 1}, "p0", 1)  # m <= a_i
    # True + True == 2 is the genus, but a bool is not a weight
    for weights in ({"p0": True, "p1": True}, {"p0": 2, "p1": False}, {"p0": 1.0, "p1": 1}):
        with pytest.raises(ValidationError, match="^weights must be nonnegative integers$"):
            f_sections(cur, weights, "p0", 3)
        with pytest.raises(ValidationError, match="^weights must be nonnegative integers$"):
            canonical_parameter(cur, weights, "p0", 4)


def test_canonical_parameter_needs_a_step():
    cur = zoo("ccusp2", marked=(mp(INF, weight=2),))
    for m_max in (0, 1, 2):
        with pytest.raises(ValidationError, match=f"m_max = {m_max}"):
            canonical_parameter(cur, {"p0": 2}, "p0", m_max)
    assert is_identity(canonical_parameter(cur, {"p0": 2}, "p0", 3))


def test_canonical_parameter_bounds_m_max():
    # the work grows about as the cube of m_max (m_max 96 on zoo("Ia") takes
    # seconds); past the bound the refusal comes before the curve is
    # validated or any section is solved
    cur = zoo("Ia")
    for m_max in (MAX_M_MAX + 1, 96, 10**6):
        with pytest.raises(ValidationError, match=f"^m-max {m_max} is out of range: the limit is {MAX_M_MAX}$"):
            canonical_parameter(cur, {"p0": 2}, "p0", m_max)
    with pytest.raises(ValidationError, match="out of range"):
        canonical_parameter(cur, {"p0": True}, "nowhere", MAX_M_MAX + 1)
    assert canonical_parameter(cur, {"p0": 2}, "p0", MAX_M_MAX).order() == MAX_M_MAX + 6
    # the benchmark's largest call, m_max 30 on ccusp24, stays admitted
    assert is_identity(canonical_parameter(zoo("ccusp24"), {"p0": 24}, "p0", 30))


def test_pole_orders_must_be_ints():
    # a pole order is a non-bool int, checked before the divisor is built,
    # and the error names the argument: True would pass m_max > a_i = 0
    cur = zoo("Ia")
    for bad in (6.5, Fraction(6), True, False, "6", None):
        with pytest.raises(ValidationError, match=f"^m_max {re.escape(repr(bad))} must be an int, not a "):
            canonical_parameter(cur, {"p0": 2}, "p1", bad)
        with pytest.raises(ValidationError, match=f"^m {re.escape(repr(bad))} must be an int, not a "):
            f_sections(cur, {"p0": 2}, "p1", bad)
        # so is the expansions' bound: tail=True printed "+ O(u^True)", 6.5 raised a bare TypeError
        with pytest.raises(ValidationError, match=f"^tail {re.escape(repr(bad))} must be an int, not a "):
            f_sections(cur, {"p0": 2}, "p1", 1, tail=bad)
    assert isinstance(canonical_parameter(cur, {"p0": 2}, "p1", 1), ParamChange)
    assert f_sections(cur, {"p0": 2}, "p1", 1).order == 1
    assert all(s.cut == 1 for s in f_sections(cur, {"p0": 2}, "p1", 1, tail=1).expansions.values())


def test_canonical_parameter_checks_order_by_name():
    # the pole order m_max is a non-bool int, checked before the solve
    cur = zoo("Ia")
    with pytest.raises(ValidationError, match="^m_max "):
        canonical_parameter(cur, {"p0": 2}, "p1", 4.0)


def test_f_sections_bounds_tail():
    # the window must hold the zero constant term, and its width sets the
    # work: tail=10**6 would run for minutes
    cur = zoo("Ia")
    for bad in (0, -100, MAX_TAIL + 1, 10**6):
        with pytest.raises(ValidationError, match=f"^tail {bad} must be in 1..{MAX_TAIL}$"):
            f_sections(cur, {"p0": 2}, "p0", 3, tail=bad)
    for tail in (1, MAX_TAIL):
        sec = f_sections(cur, {"p0": 2}, "p0", 3, tail=tail)
        assert {s.cut for s in sec.expansions.values()} == {tail}
        assert sec.expansions["p0"].coefficient(0) == 0


# ---------------------------------------------------------------------------
# second route: the ambient-element solve
# ---------------------------------------------------------------------------
# f_i[-m] solved over every ambient element of weights + m p_i, each expanded
# at p_i and then substituted through the parameter by the product route,
# with the targets appended to the jet rows; the canonical parameter re-solves
# it from scratch after each correction.  Weights are keyed p0, p1, ... here.

def through(series, pc):
    """The series in the parameter t = pc(u), by the product route, on the
    window below min(series.cut, pc.order() - 1 + series.low)."""
    if pc is None:
        return series
    return substitute_by_powers(series, pc.series, min(series.cut, pc.order() - 1 + series.low))


def reference_section(curve, weights, i, m, pc=None, tail=6):
    a_i = weights.get(i, 0)
    divisor = Divisor.of({**weights, i: m})
    elts, rows = constraints(curve, divisor)
    rhs = [Fraction(0)] * len(rows)
    per_elt = [through(_expansion(curve, i, -m, 1, [(1, elt)]), pc) for elt in elts]
    targets = [(-m, 1)] + [(e, 0) for e in range(-m + 1, -a_i)] + [(0, 0)]
    for e, value in targets:
        rows.append([s.coefficient(e) for s in per_elt])
        rhs.append(Fraction(value))
    solved = linalg.solve_affine(rows, rhs)
    if solved is None:
        raise CohomologyError(
            f"no section with principal part u^-{m} at {i}: h1 obstruction (weights {weights})"
        )
    x, kernel = solved
    if kernel:
        raise CohomologyError(f"section of order {m} at {i} is not unique: h1({divisor.items}) != 0")
    expansions = {
        pid: through(_expansion(curve, pid, -m if pid == i else -weights.get(pid, 0), tail, zip(x, elts)),
                     pc if pid == i else None)
        for pid in curve.point_ids()
    }
    return elts, x, expansions


def reference_canonical(curve, weights, i, m_max, order=None):
    a_i = weights.get(i, 0)
    pc = ParamChange.identity("u", order=m_max + 6 if order is None else order)
    for m in range(a_i + 1, m_max + 1):
        _, _, expansions = reference_section(curve, weights, i, m, pc, tail=-a_i + 1)
        alpha = expansions[i].coefficient(-a_i)
        if alpha:
            r = m - a_i + 1
            pc = pc.compose(alpha / m, r)
    return pc


def reference_alpha_beta(curve, weights, i, j):
    g = arithmetic_genus(curve)
    pc = reference_canonical(curve, weights, i, g + 1, order=g + 4)
    return tuple(reference_section(curve, weights, i, m, pc, tail=1)[2][j].coefficient(-1) for m in (g, g + 1))


def canonical_sections(curve, weights, i, m_max):
    """f_i[-m] for a_i < m <= m_max in the canonical parameter, each solved
    by the entry as alpha_beta solves its two: m -> the outcome of (nonzero
    coordinates, expansions at every marked point to exponents < 1)."""
    out = {}
    for m in range(weights[i] + 1, m_max + 1):
        got = outcome(solve_sections, curve, weights, i, (m,), depth=m_max, at=curve.point_ids())
        if got[0] == "ok":
            _, elts, solved = got[1]
            coords, expansions = solved[m]
            got = "ok", (nonzero_coords(elts, coords), expansions)
        out[m] = got
    return out


def nonzero_coords(elts, coords):
    return {elt: x for elt, x in zip(elts, coords) if x}


def outcome(fn, *args, **kwargs):
    """("ok", value), or ("CohomologyError", its message), whose text
    reaches the CLI."""
    try:
        return "ok", fn(*args, **kwargs)
    except CohomologyError as exc:
        return "CohomologyError", str(exc)


def _draw_point(rng, avoid):
    while True:
        p = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if p not in avoid:
            return p


def second_route_curves():
    """Every zoo case twice with seeded marked points and tangents (the
    first with its second point at infinity), ccusp<a> with a seeded second
    point, and glued cusps, marked at infinity and at finite points."""
    rng = random.Random(4049)
    tangents = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))
    out = []
    for case in ZOO_IDS:
        base = zoo(case)
        avoid = {br.point for sing in base.singularities for br in sing.branches}
        for k in range(2):
            p0 = _draw_point(rng, avoid)
            p1 = INF if k == 0 else _draw_point(rng, avoid | {p0})
            marks = tuple(MarkedPoint("c0", p, rng.choice(tangents)) for p in (p0, p1))
            out.append((f"{case}-{k}", CurveModel(base.components, base.singularities, marks)))
    for a in (1, 3, 4):
        marks = (mp(INF, weight=a), mp(_draw_point(rng, {Fraction(0)}), rng.choice(tangents)))
        out.append((f"ccusp{a}", zoo(f"ccusp{a}", marked=marks)))
    for a1, a2 in ((1, 1), (2, 1)):
        cur = glued_cusps(a1, a2)
        out.append((f"glued_cusps({a1},{a2})", cur))
        marks = tuple(MarkedPoint(c, _draw_point(rng, {Fraction(0)}), rng.choice(tangents))
                      for c in cur.components)
        out.append((f"glued_cusps({a1},{a2})-finite", CurveModel(cur.components, cur.singularities, marks)))
    return [(name, validate(cur)) for name, cur in out]


SECOND_ROUTE_CURVES = second_route_curves()


def _weight_splits(curve):
    g = arithmetic_genus(curve)
    return [{"p0": a, "p1": g - a} for a in range(g + 1)]


@pytest.mark.parametrize("name, curve", SECOND_ROUTE_CURVES, ids=[n for n, _ in SECOND_ROUTE_CURVES])
def test_basis_solver_matches_ambient_element_route(name, curve):
    for weights in _weight_splits(curve):
        for i in ("p0", "p1"):
            a_i = weights[i]
            m_max = a_i + 4
            got = outcome(canonical_parameter, curve, weights, i, m_max)
            assert got == outcome(reference_canonical, curve, weights, i, m_max)
            for m in range(a_i + 1, m_max + 1):
                sec = outcome(f_sections, curve, weights, i, m, tail=4)
                ref = outcome(reference_section, curve, weights, i, m, tail=4)
                if sec[0] == "ok":
                    sec = "ok", (sec[1].function.elts, sec[1].function.coords, sec[1].expansions)
                assert sec == ref, (weights, i, m)
            if got[0] != "ok":
                continue
            # the sections in the canonical parameter, solved over the
            # advanced basis expansions, against the product route
            for m, sec in canonical_sections(curve, weights, i, m_max).items():
                ref = outcome(reference_section, curve, weights, i, m, got[1], tail=1)
                if ref[0] == "ok":
                    elts, x, expansions = ref[1]
                    ref = "ok", (nonzero_coords(elts, x), expansions)
                assert sec == ref, (weights, i, m)
        j = "p1" if i == "p0" else "p0"
        if weights[j] >= 1:
            got = outcome(alpha_beta, curve, i, j, weights)
            assert got == outcome(reference_alpha_beta, curve, weights, i, j), (weights, i)


def test_second_route_covers_steps_and_special_points():
    steps = errors = 0
    for _, curve in SECOND_ROUTE_CURVES:
        for weights in _weight_splits(curve):
            for i in ("p0", "p1"):
                got = outcome(reference_canonical, curve, weights, i, weights[i] + 4)
                errors += got[0] == "CohomologyError"
                steps += got[0] == "ok" and not is_identity(got[1])
    assert steps >= 20 and errors >= 3


def test_basis_solver_at_the_default_window_matches_ambient_element_route():
    # one step past test_basis_solver_matches_ambient_element_route's depth:
    # the same parameter, known below u^(m_max + 6), or the same cohomology
    # error on both routes
    for name in ("Ic-1", "IIc-C0-0", "IIc-C0-1", "ccusp3"):
        curve = dict(SECOND_ROUTE_CURVES)[name]
        for weights in _weight_splits(curve):
            for i in ("p0", "p1"):
                m_max = weights[i] + 5
                got = outcome(canonical_parameter, curve, weights, i, m_max)
                assert got == outcome(reference_canonical, curve, weights, i, m_max, order=None)


def _steps_below(curve, weights, i, m_max, order):
    """The entry's correction steps for m <= m_max, composed onto a change
    known below u^order."""
    pc = ParamChange.identity("u", order)
    for eps, r in solve_sections(curve, weights, i, (), depth=m_max)[0]:
        pc = pc.compose(eps, r)
    return pc


def _coefficients_below(got, order):
    return ("ok", [got[1].coefficient(e) for e in range(1, order)]) if got[0] == "ok" else got


@pytest.mark.parametrize("order", range(2, 12))
def test_basis_solver_truncation_matches_ambient_element_route(order):
    # the entry's exact steps composed below u^order against the ambient
    # route run in that window: the same parameter or the same cohomology
    # error.  Below u^(m_max + 2) the ambient route cannot fix the last
    # constant term; the steps still hold, and agree below u^order with the
    # ambient route's parameter at the default window
    for name in ("Ic-1", "IIc-C0-0", "IIc-C0-1", "ccusp3"):
        curve = dict(SECOND_ROUTE_CURVES)[name]
        for weights in _weight_splits(curve):
            for i in ("p0", "p1"):
                m_max = weights[i] + 5
                got = outcome(_steps_below, curve, weights, i, m_max, order)
                try:
                    ref = outcome(reference_canonical, curve, weights, i, m_max, order=order)
                except TruncationError:
                    assert order <= m_max + 1, (name, weights, i)
                    ref = _coefficients_below(outcome(reference_canonical, curve, weights, i, m_max), order)
                    got = _coefficients_below(got, order)
                assert got == ref, (name, weights, i)


# ---------------------------------------------------------------------------
# the integer route against the Fraction route
# ---------------------------------------------------------------------------
# The jet conditions and the element expansions are integer numerators over
# one denominator, and each jet-row entry is one integer dot product; the
# references expand each element by its per-kind Fraction formula and sum
# Fraction products.  Branch points, marked points and tangents are drawn
# with unlike denominators and signs.

_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_tangents = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 5))


@st.composite
def _marked_curves(draw):
    kinds = draw(st.lists(st.sampled_from([(node, 2), (cusp, 1), (tacnode, 2)]), min_size=1, max_size=3))
    marks = draw(st.integers(1, 3))
    finite = draw(st.lists(_rationals, min_size=sum(n for _, n in kinds) + marks,
                           max_size=sum(n for _, n in kinds) + marks, unique=True))
    sings = []
    for make, n in kinds:
        sings.append(make("c0", *finite[:n]))
        finite = finite[n:]
    points = finite[:marks]
    if draw(st.booleans()):
        points[draw(st.integers(0, marks - 1))] = INF
    marked = tuple(MarkedPoint("c0", p, draw(_tangents)) for p in points)
    return validate(CurveModel(("c0",), tuple(sings), marked))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_marked_curves(), st.data())
def test_integer_route_matches_the_fraction_route(curve, data):
    ids = curve.point_ids()
    mults = data.draw(st.lists(st.integers(-3, 5), min_size=len(ids), max_size=len(ids)))
    elts, rows = constraints(curve, Divisor.of(dict(zip(ids, mults))))
    want = curves_ref._jet_rows(curve, elts)
    for mp, n in zip(curve.marked_points, mults):
        for d in range(-n):
            want.append([ref_elt_expansion(elt, mp.component, mp.point, d, d + 1)[0] for elt in elts])
    assert rows == want
    assert [list(map(type, row)) for row in rows] == [list(map(type, row)) for row in want]
    assert {type(x) for row in rows for x in row} <= {Fraction}
    # each element's series and a drawn combination of them, at every marked
    # point on a drawn window, against the Fraction sum of the elements
    y = data.draw(st.lists(st.sampled_from([0, 1, -2, Fraction(3, 4), Fraction(-5, 3)]),
                           min_size=len(elts), max_size=len(elts)).filter(any))
    low = data.draw(st.integers(-6, 1))
    high = data.draw(st.integers(low, low + 8))
    for pid in ids:
        series = _element_series(curve, pid, elts, [y], low, high)
        for c, elt, s in zip(y, elts, series):
            assert (s is None) == (not c)
            if c:
                assert s == _expansion(curve, pid, low, high, [(1, elt)]), (pid, elt)
        got, want_series = _combine(y, series), _expansion(curve, pid, low, high, zip(y, elts))
        assert got == want_series, pid
        assert [type(x) for x in got.coeffs] == [int] * len(got.coeffs)
        assert [(e, type(x)) for e, x in got.known_items()] == \
            [(e, type(x)) for e, x in want_series.known_items()]


# ---------------------------------------------------------------------------
# the triangular section solve against the elimination
# ---------------------------------------------------------------------------
# When the expansions' lows are exactly the targets, the solve is forward
# substitution on integer numerators; any other shape is one elimination.
# Both must give what the elimination gives on every shape: the same
# coordinates, Fractions, or the same CohomologyError text.  Leads are signed
# and denominators unlike; the expansions come in a drawn order.

_SHAPES = ("triangular", "missing lead", "extra lead", "known zero")


@st.composite
def _section_systems(draw):
    """(shape, weights, m, expansions) at p0 with weight a_0: one series per
    target exponent -m, ..., -(a_0+1), 0, and some with poles deeper than m,
    which the solve leaves out; the other shapes drop a target's series, add
    one with its lead at an exponent >= -a_0, or add a known-zero series."""
    shape = draw(st.sampled_from(_SHAPES))
    a_0 = draw(st.integers(0, 3))
    m = draw(st.integers(a_0 + 1, a_0 + 5))
    cut = draw(st.integers(1, 3))
    targets = list(range(-m, -a_0)) + [0]
    lows = targets + draw(st.lists(st.integers(-m - 3, -m - 1), max_size=2))
    if shape == "missing lead":
        lows.remove(draw(st.sampled_from(targets)))
    elif shape == "extra lead":
        lows.append(draw(st.integers(-a_0, cut - 1)))
    expansions = [LaurentSeries.zero("u", cut)] if shape == "known zero" else []
    for low in lows:
        den = draw(st.integers(1, 12))
        nums = [draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))] + draw(
            st.lists(st.integers(-9, 9), min_size=cut - low - 1, max_size=cut - low - 1))
        expansions.append(LaurentSeries("u", low, [Fraction(x, den) for x in nums], cut))
    return shape, {"p0": a_0, "p1": 1}, m, draw(st.permutations(expansions))


def _typed(got):
    return (got[0], [(type(x), x) for x in got[1]]) if got[0] == "ok" else got


@settings(max_examples=300, deadline=None)
@given(_section_systems())
def test_section_solve_matches_the_elimination(system):
    shape, weights, m, expansions = system
    calls = []
    solve_affine = linalg.solve_affine
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "solve_affine", lambda *args: calls.append(args) or solve_affine(*args))
        got = outcome(_solve_section, weights, "p0", m, expansions)
    assert _typed(got) == _typed(outcome(sections_ref._solve_section, weights, "p0", m, expansions))
    event(f"{shape}: {'solved' if got[0] == 'ok' else 'not unique' if 'unique' in got[1] else 'obstruction'}")
    if shape == "triangular":
        # nonzero leads on the targets: one solution, found with no elimination
        assert got[0] == "ok" and not calls
    else:
        assert len(calls) == 1


_coordinates = st.sampled_from([0, 1, -1, -2, Fraction(3, 4), Fraction(-5, 3), Fraction(7, 6)])


@st.composite
def _combinations(draw):
    """(y, series): drawn coordinates with a nonzero entry and series on
    drawn windows with unlike denominators, some known zero, some repeated
    so that leads cancel, None under a zero coordinate."""
    y = draw(st.lists(_coordinates, min_size=1, max_size=5).filter(any))
    series = []
    for c in y:
        if not c and draw(st.booleans()):
            series.append(None)
        elif series and series[-1] is not None and draw(st.booleans()):
            series.append(series[-1])
        else:
            low = draw(st.integers(-6, 2))
            cut = draw(st.integers(low, low + 6))
            den = draw(st.integers(1, 12))
            nums = draw(st.lists(st.integers(-9, 9), min_size=cut - low, max_size=cut - low))
            series.append(LaurentSeries("u", low, [Fraction(x, den) for x in nums], cut))
    return y, series


@settings(max_examples=300, deadline=None)
@given(_combinations())
def test_combine_matches_scale_and_add(combination):
    y, series = combination
    got, want = _combine(y, series), sections_ref._combine(y, series)
    assert got == want
    assert (got.low, got.cut, got.den) == (want.low, want.cut, want.den)
