import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import laurent_reference as ref
from nsc.errors import InternalInconsistencyError, ValidationError
from nsc.laurent import LaurentSeries, series_substitute
from nsc.normalform import (
    NormalFormResult,
    StageRecord,
    STable,
    _monomial_value,
    closed_form_check,
    closed_form_s1,
    closed_form_s2,
    correction_monomial_check,
    run_recursion,
)
from nsc.rational import Graded
from test_laurent import agrees


def reference_recursion(g: int, m_max: int | None = None, j_max: int = 6) -> NormalFormResult:
    """The recursion over reference series of `Graded` values, reading
    t^-(g+n) off the parameter change by one Miller pass per stage: the route
    the integer form replaced."""
    if not (isinstance(g, int) and g >= 2):
        raise ValidationError("genus must be an integer >= 2")
    if m_max is None:
        m_max = g + 6
    if not (isinstance(m_max, int) and m_max >= g + 1):
        raise ValidationError("m_max must be an integer >= g+1")
    if not (isinstance(j_max, int) and j_max >= 0):
        raise ValidationError("j_max must be an integer >= 0")

    cut = -g + j_max + 1
    stages_total = (m_max - g) + j_max + 1

    total = ref.ParamChange.identity("u", order=stages_total + j_max + 2)
    current = {g + 1: ref.LaurentSeries("u", -(g + 1), [1, Graded(-1, 1)], cut)}  # F[-(g+1)]
    stages = [StageRecord(1, None, None, ())]

    for n in range(2, stages_total + 1):
        c = current[g + n - 1].coefficient(-g)
        eps = c / (g + n - 1)  # the step u_{n-1} = u_n + eps*u_n^n
        total = total.compose(eps, n)
        for m in list(current):
            current[m] = ref.series_substitute(current[m], eps, n)
        if current[g + n - 1].coefficient(-g):
            raise InternalInconsistencyError(
                f"stage {n}: correction failed to kill the u^-{g} coefficient"
            )
        work = total.series.pow(-(g + n), cut)  # F[-(g+n)] = t^-(g+n) in the current parameter
        multipliers = []
        for i in range(1, n):
            p_i = work.coefficient(-g - n + i)
            multipliers.append(p_i)
            if p_i:
                work = work - current[g + n - i].scale(p_i)
        for e in range(-g - n + 1, -g):
            if work.coefficient(e):
                raise InternalInconsistencyError(
                    f"stage {n}: exponent {e} not cleared in f[-{g + n}]"
                )
        current[g + n] = work
        stages.append(StageRecord(n, c, eps, tuple(multipliers)))

    entries = {}
    for m in range(g + 1, m_max + 1):
        for j in range(1, j_max + 1):
            entries[(m, j)] = _monomial_value(current[m].coefficient(-g + j), m - g + j)

    normal_forms = {m: current[m] for m in range(g + 1, m_max + 1)}
    return NormalFormResult(
        genus=g,
        m_max=m_max,
        j_max=j_max,
        param_change=ref.ParamChange(total.series.truncate(stages_total + 1)),
        normal_forms=normal_forms,
        s_table=STable(g, entries),
        stages=tuple(stages),
    )


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


def test_closed_form_check_reads_the_entries_of_a_deeper_run():
    # closed_form_check runs only the four stages its two entries need
    for g in range(2, 49):
        rep, deep = closed_form_check(g), run_recursion(g, g + 3, 2).s_table
        assert (rep.computed_s1, rep.computed_s2) == (deep.value(g + 1, 1), deep.value(g + 1, 2)), g


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
    # a bool is an int to isinstance; j_max=True once returned a table
    for args in ((True, 5, 2), (2, True, 2), (2, 5, True), (2, 5, False)):
        with pytest.raises(ValidationError, match="must be an integer"):
            run_recursion(*args)


def test_stable_json_form():
    tbl = run_recursion(2, 4, 1).s_table.to_jsonable()
    assert tbl["genus"] == 2
    assert {"m": 3, "j": 1, "value": "-5/6"} in tbl["entries"]


# the (genus, stage depth d) grid of the benchmark's recursion workload, which
# runs run_recursion(g, g + d, d), and the closed-form check's arguments
RECURSION_GRID = [(g, g + d, d) for d in (2, 3, 4, 5, 6) for g in (2, 4, 6, 8)] + [(3, 11, 8), (6, 18, 12)]


@pytest.mark.parametrize("args", RECURSION_GRID + [(g, g + 3, 2) for g in (2, 9, 16)] + [(2, 40, 16)])
def test_integer_form_matches_the_graded_route(args):
    # every field: s-table, normal forms, parameter change and stage records;
    # Graded equality compares the lam-degree of every nonzero value
    new, old = run_recursion(*args), reference_recursion(*args)
    assert (new.genus, new.m_max, new.j_max, new.s_table, new.stages) == \
        (old.genus, old.m_max, old.j_max, old.s_table, old.stages)
    agrees(new.param_change.series, old.param_change.series)
    assert repr(new.param_change) == repr(old.param_change)
    assert new.normal_forms.keys() == old.normal_forms.keys()
    for m, series in new.normal_forms.items():
        agrees(series, old.normal_forms[m])


def result_digest(res: NormalFormResult) -> str:
    """SHA-256 over every field of a result: the s-table JSON, the repr of
    the parameter change, the str of each normal form and each stage record."""
    parts = [json.dumps(res.s_table.to_jsonable(), sort_keys=True), repr(res.param_change)]
    parts += [f"{m}: {s}" for m, s in sorted(res.normal_forms.items())]
    parts += [repr(rec) for rec in res.stages]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("args, digest", [
    ((6, 18, 12), "4241a775a99115b5903701e3f0de0c93fef3971d34e16e4aeedaa4b3e22d7c4c"),
    ((2, 64, 16), "c92f45e91261c773d0a6b5c4c4a8a10839b9c37a42aa36cbf3e0cfe34b88a86c"),
])
def test_whole_result_pinned(args, digest):
    assert result_digest(run_recursion(*args)) == digest


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@st.composite
def graded_series(draw):
    """(a series whose coefficient at u^e has lam-degree w + e, the reference
    series of the same values, w)."""
    w, low = draw(st.integers(-4, 4)), draw(st.integers(-8, 3))
    values = draw(st.lists(rationals, max_size=12))
    coeffs = [Graded(r, w + low + k) for k, r in enumerate(values)]
    cut = low + len(values) + draw(st.integers(0, 1))
    return LaurentSeries("u", low, coeffs, cut), ref.LaurentSeries("u", low, coeffs, cut), w


@settings(max_examples=150, deadline=None)
@given(graded_series(), rationals, st.integers(2, 5))
def test_integer_step_matches_series_substitute(sw, r_eps, r):
    s, old, _ = sw
    eps = Graded(r_eps, r - 1)
    agrees(series_substitute(s, eps, r), ref.series_substitute(old, eps, r))


@settings(max_examples=150, deadline=None)
@given(graded_series(), graded_series(), rationals)
def test_integer_product_and_subtraction_match_laurent_series(aw, bw, r):
    (a, old_a, wa), (b, old_b, wb) = aw, bw
    agrees(a * b, old_a * old_b)
    c = Graded(r, wa - wb)
    agrees(a - b.scale(c), old_a - old_b.scale(c))


def test_integer_form_checks_lam_degrees():
    # (1/2) u^-3 + (3/2) lam^2 u^-1 + (9/4) lam^3, of weight 3
    s = LaurentSeries("u", -3, [Graded(Fraction(1, 2), 0), 0, Graded(Fraction(3, 2), 2), Graded(Fraction(9, 4), 3)], 1)
    assert (s.coeffs, s.den, s.w) == ((2, 0, 6, 9), 4, 3)
    assert s.coefficient(-1) == Graded(Fraction(3, 2), 2) and s.coefficient(-1).d == 2
    assert s.coefficient(0).d == 3
    assert type(s.coefficient(-3)) is Fraction  # lam^0: a plain rational
    series_substitute(s, Graded(5, 2), 3)
    with pytest.raises(InternalInconsistencyError):
        series_substitute(s, Graded(5, 3), 3)  # the step u + eps*u^3 needs eps of degree 2
    t = LaurentSeries("u", -2, [Graded(1, 0), 0, 0], 1)  # weight 2
    s - t.scale(Graded(1, 1))
    with pytest.raises(InternalInconsistencyError):
        s - t.scale(Graded(1, 2))
