from fractions import Fraction

import pytest

from nsc.errors import ValidationError
from nsc.normalform import (
    closed_form_check,
    closed_form_s1,
    closed_form_s2,
    correction_monomial_check,
    run_recursion,
)
from nsc.rational import Graded


def test_first_correction_g2():
    # t1 = u2 - (lam/3) u2^2
    res = run_recursion(2, 5, 2)
    assert res.stages[1].correction == Graded(Fraction(-1, 3), 1)


def test_stage3_pole_coefficient_g2():
    # coefficient of u2^-2 in F[-4] is (g+2)(g+3)/(2(g+1)^2) lam^2 = (10/9) lam^2
    res = run_recursion(2, 5, 2)
    rec = res.stages[2]
    assert rec.n == 3
    assert rec.pole_coefficient == Graded(Fraction(10, 9), 2)


def test_stage3_correction_simplifies():
    # the u2 -> u3 change has coefficient (g+3)/(2(g+1)^2) lam^2, i.e. the
    # raw c/(g+n-1) value (g+2)(g+3)/(2(g+2)(g+1)^2) with the (g+2) cancelled
    for g in range(2, 7):
        res = run_recursion(g, g + 3, 2)
        rec = res.stages[2]
        assert rec.correction == Graded(Fraction(g + 3, 2 * (g + 1) ** 2), 2)


def test_stage4_correction_closed_form():
    # third change: u3 = u4 - (g^2+3g-1)/(3(g+1)^3) lam^3 u4^4; -1/9 at g=2
    for g in (2, 3, 5):
        res = run_recursion(g, g + 3, 2)
        rec = res.stages[3]
        assert rec.n == 4
        assert rec.correction == Graded(Fraction(-(g * g + 3 * g - 1), 3 * (g + 1) ** 3), 3)
    res2 = run_recursion(2, 5, 2)
    assert res2.stages[3].correction == Graded(Fraction(-1, 9), 3)


def test_s_table_g2_reference_values():
    res = run_recursion(2, 5, 2)
    assert res.s_table.value(3, 1) == Fraction(-5, 6)
    assert res.s_table.value(3, 2) == Fraction(10, 27)


def test_normal_form_shape():
    res = run_recursion(2, 6, 3)
    for m, series in res.normal_forms.items():
        assert series.coefficient(-m) == Graded(1, 0)
        for e in range(-m + 1, -2 + 1):  # (-m, -g] must vanish
            assert not series.coefficient(e)


def test_closed_forms_small_genera():
    for g, s1, s2 in ((2, Fraction(-5, 6), Fraction(10, 27)),
                      (3, Fraction(-7, 8), Fraction(7, 24)),
                      (10, Fraction(-21, 22), Fraction(14, 121))):
        rep = closed_form_check(g)
        assert rep.passed
        assert rep.computed_s1 == s1 == closed_form_s1(g)
        assert rep.computed_s2 == s2 == closed_form_s2(g)


def test_closed_forms_genus_2_to_40():
    for g in range(2, 41):
        assert closed_form_check(g).passed, g


def test_correction_monomial_check_passes():
    res = run_recursion(2, 5, 2)
    rep = correction_monomial_check(res)
    assert rep.passed
    assert rep.stage_multiplier_counts == {n: n - 1 for n in range(2, len(res.stages) + 1)}


def test_correction_monomial_check_vacuous_empty_table():
    res = run_recursion(2, 3, 0)
    assert res.s_table.entries == {}
    assert correction_monomial_check(res).passed


def test_determinism_bit_identical():
    a = run_recursion(3, 7, 3)
    b = run_recursion(3, 7, 3)
    assert a.s_table.entries == b.s_table.entries
    assert a.param_change == b.param_change
    assert {m: str(s) for m, s in a.normal_forms.items()} == {m: str(s) for m, s in b.normal_forms.items()}


def test_stability_under_deeper_truncation():
    shallow = run_recursion(2, 6, 2)
    deep = run_recursion(2, 6, 4)
    for (m, j), v in shallow.s_table.entries.items():
        assert deep.s_table.entries[(m, j)] == v


def test_stability_deep_table():
    # wider windows and more stages must reproduce every reported entry
    mid = run_recursion(2, 10, 6)
    deep = run_recursion(2, 10, 8)
    for key, v in mid.s_table.entries.items():
        assert deep.s_table.entries[key] == v
    for m, series in mid.normal_forms.items():
        for e, c in series.known_items():
            assert deep.normal_forms[m].coefficient(e) == c


def test_stability_genus6_deep_window():
    # g = 6 at depth 12 against two more columns and stages
    mid = run_recursion(6, 18, 12)
    deep = run_recursion(6, 18, 14)
    for key, v in mid.s_table.entries.items():
        assert deep.s_table.entries[key] == v
    for m, series in mid.normal_forms.items():
        for e, c in series.known_items():
            assert deep.normal_forms[m].coefficient(e) == c


def test_param_change_coefficients_are_graded_monomials():
    res = run_recursion(2, 6, 2)
    pc = res.param_change
    assert pc.coefficient(1) == Graded(1, 0)
    for e in range(2, pc.order()):
        c = pc.coefficient(e)
        assert not c or (isinstance(c, Graded) and c.d == e - 1)


def test_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        run_recursion(1, 5, 2)
    with pytest.raises(ValidationError):
        run_recursion(2, 2, 2)
    with pytest.raises(ValidationError):
        run_recursion(2, 5, -1)


def test_stable_json_form():
    tbl = run_recursion(2, 4, 1).s_table.to_jsonable()
    assert tbl["genus"] == 2
    assert {"m": 3, "j": 1, "value": "-5/6"} in tbl["entries"]
