import random
from fractions import Fraction

import pytest

from nsc.curves import INF, CurveModel, Divisor, MarkedPoint, h1, validate
from nsc.errors import CohomologyError, ValidationError
from nsc.sections import alpha_beta, canonical_parameter, f_sections, rescale_tangent
from nsc.zoo import ZOO_IDS, zoo


def mp(point, tangent=1, weight=None):
    return MarkedPoint("c0", point if point is INF else Fraction(point), Fraction(tangent), weight)


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
    from nsc.curves import arithmetic_genus, nonspecial_check
    from nsc.sections import canonical_parameter
    from nsc.zoo import glued_cusps

    for a1, a2 in ((1, 1), (2, 1), (2, 3)):
        cur = glued_cusps(a1, a2)
        g = a1 + a2
        assert arithmetic_genus(cur) == g
        w = {"p0": a1, "p1": a2}
        assert nonspecial_check(cur, w)
        for i, a_i in (("p0", a1), ("p1", a2)):
            assert canonical_parameter(cur, w, i, a_i + 4).is_identity()
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
    deep_sings = []
    for s in cur.singularities:
        # re-encode each node with jet order 4 instead of 2
        from nsc.zoo import _tail_units

        k = 4
        width = 2 * k
        ones = [Fraction(0)] * width
        ones[0] = ones[k] = Fraction(1)
        basis = [tuple(ones)] + _tail_units(width, k, 2, 1)
        deep_sings.append(type(s)(s.branches, k, 1, tuple(basis)))
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
    # obstructed at the special point at infinity
    cur = zoo("IIc-C0")
    with pytest.raises(CohomologyError):
        f_sections(cur, {"p1": 2}, "p1", 3)


def test_canonical_parameter_identity_on_deep_cusp():
    cur = zoo("ccusp2", marked=(mp(INF, weight=2),))
    pc = canonical_parameter(cur, {"p0": 2}, "p0", 6)
    assert pc.is_identity()


def test_canonical_parameter_postcondition_and_idempotence():
    cur = zoo("Ic")  # two cusps, marked at 5 and 7
    w = {"p0": 1, "p1": 1}
    pc = canonical_parameter(cur, w, "p0", 6)
    assert not pc.is_identity()
    for m in range(2, 7):
        sec = f_sections(cur, w, "p0", m, params={"p0": pc}, tail=0)
        assert sec.expansions["p0"].coefficient(-1) == 0
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


def test_weight_validation():
    cur = zoo("Ia")
    with pytest.raises(ValidationError):
        f_sections(cur, {"p0": 1}, "p0", 3)  # weights sum 1 != genus 2
    with pytest.raises(ValidationError):
        f_sections(cur, {"p0": 1, "p1": 1}, "p0", 1)  # m <= a_i


def test_canonical_parameter_needs_a_step():
    cur = zoo("ccusp2", marked=(mp(INF, weight=2),))
    for m_max in (0, 1, 2):
        with pytest.raises(ValidationError, match=f"m_max = {m_max}"):
            canonical_parameter(cur, {"p0": 2}, "p0", m_max)
    assert canonical_parameter(cur, {"p0": 2}, "p0", 3).is_identity()
