import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import laurent_reference as ref
from laurent_reference import Graded
from nsc.errors import InternalInconsistencyError, ValidationError
from nsc.laurent import LaurentSeries, series_substitute
from nsc.normalform import (
    NormalFormResult,
    StageRecord,
    STable,
    _recursion,
    closed_form_check,
    closed_form_s1,
    closed_form_s2,
    correction_monomial_check,
    run_recursion,
)
from test_laurent import agrees


def reference_recursion(g: int, m_max: int | None = None, j_max: int = 6) -> NormalFormResult:
    """The recursion over Q[lam], on reference series of `Graded` values,
    reading t^-(g+n) off the parameter change by one Miller pass per stage:
    the route the integer form replaced.  Every value it holds, the s-table's
    included, is a `Graded` monomial that carries its lam-degree."""
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

    entries = {(m, j): current[m].coefficient(-g + j) for m in range(g + 1, m_max + 1) for j in range(1, j_max + 1)}

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
    assert res.stages[1].correction == Fraction(-1, 3)


def test_stage3_pole_coefficient_g2():
    # coefficient of u2^-2 in F[-4] is (g+2)(g+3)/(2(g+1)^2) lam^2 = (10/9) lam^2
    res = run_recursion(2, 5, 2)
    rec = res.stages[2]
    assert rec.n == 3
    assert rec.pole_coefficient == Fraction(10, 9)


def test_stage3_correction_simplifies():
    # the u2 -> u3 change has coefficient (g+3)/(2(g+1)^2) lam^2, i.e. the
    # raw c/(g+n-1) value (g+2)(g+3)/(2(g+2)(g+1)^2) with the (g+2) cancelled
    for g in range(2, 7):
        res = run_recursion(g, g + 3, 2)
        rec = res.stages[2]
        assert rec.correction == Fraction(g + 3, 2 * (g + 1) ** 2)


def test_stage4_correction_closed_form():
    # third change: u3 = u4 - (g^2+3g-1)/(3(g+1)^3) lam^3 u4^4; -1/9 at g=2
    for g in (2, 3, 5):
        res = run_recursion(g, g + 3, 2)
        rec = res.stages[3]
        assert rec.n == 4
        assert rec.correction == Fraction(-(g * g + 3 * g - 1), 3 * (g + 1) ** 3)
    res2 = run_recursion(2, 5, 2)
    assert res2.stages[3].correction == Fraction(-1, 9)


def test_s_table_g2_reference_values():
    res = run_recursion(2, 5, 2)
    assert res.s_table.value(3, 1) == Fraction(-5, 6)
    assert res.s_table.value(3, 2) == Fraction(10, 27)


def test_normal_form_shape():
    res = run_recursion(2, 6, 3)
    for m, series in res.normal_forms.items():
        assert series.coefficient(-m) == 1
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
    # the coefficient at u^e has lam-degree e - 1: the run from lam = 2 reads
    # 2^(e-1) times it
    pc, twice = run_recursion(2, 6, 2).param_change, _recursion(2, 6, 2, 2).param_change
    assert pc.coefficient(1) == twice.coefficient(1) == 1
    assert pc.order() == twice.order() == 8
    for e in range(2, pc.order()):
        assert pc.coefficient(e) and twice.coefficient(e) == 2 ** (e - 1) * pc.coefficient(e)


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


def ungraded(x, degree):
    """The rational r of the reference value x = r*lam^d, after checking
    that d is the degree its indices give (zero has every degree)."""
    if x is None:
        return None
    r, d = ref._parts(x)
    assert not r or d == degree, (x, degree)
    return r


def ungraded_series(x, w):
    """The reference series x over Q, its coefficient at u^e of degree w + e."""
    return ref.LaurentSeries(x.var, x.low, [ungraded(c, w + e) for e, c in x.known_items()], x.cut)


@pytest.mark.parametrize("args", RECURSION_GRID + [(g, g + 3, 2) for g in (2, 9, 16)] + [(2, 40, 16), (2, 64, 16)])
def test_integer_form_matches_the_graded_route(args):
    # every field: s-table, normal forms, parameter change and stage records.
    # Each value over Q is the r of the graded reference's r*lam^d, and each
    # d is the degree the indices give: m-g+j for s_{m,j}, m+e at u^e of
    # f[-m], e-1 at u^e of the parameter change, n-1 for the stage-n pole
    # coefficient and correction, i for p_i
    new, old = run_recursion(*args), reference_recursion(*args)
    g = new.genus
    assert (new.genus, new.m_max, new.j_max) == (old.genus, old.m_max, old.j_max)
    assert new.s_table == STable(g, {(m, j): ungraded(v, m - g + j) for (m, j), v in old.s_table.entries.items()})
    assert [rec.n for rec in new.stages] == [rec.n for rec in old.stages]
    for rec, was in zip(new.stages, old.stages):
        n = rec.n
        assert rec == StageRecord(n, ungraded(was.pole_coefficient, n - 1), ungraded(was.correction, n - 1),
                                  tuple(ungraded(p, i) for i, p in enumerate(was.multipliers, start=1)))
        assert all(type(x) is Fraction for x in (rec.pole_coefficient, rec.correction, *rec.multipliers)
                   if x is not None)
    expected = ungraded_series(old.param_change.series, -1)
    agrees(new.param_change.series, expected)
    assert repr(new.param_change) == repr(ref.ParamChange(expected))
    assert new.normal_forms.keys() == old.normal_forms.keys()
    for m, series in new.normal_forms.items():
        agrees(series, ungraded_series(old.normal_forms[m], m))


def result_digest(res: NormalFormResult) -> str:
    """SHA-256 over every field of a result: the s-table JSON, the repr of
    the parameter change, the str of each normal form and each stage record."""
    parts = [json.dumps(res.s_table.to_jsonable(), sort_keys=True), repr(res.param_change)]
    parts += [f"{m}: {s}" for m, s in sorted(res.normal_forms.items())]
    parts += [repr(rec) for rec in res.stages]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# recorded where test_integer_form_matches_the_graded_route passes on the same args
@pytest.mark.parametrize("args, digest", [
    ((6, 18, 12), "5df324be79f93284efa5a9c15b45da1036ff741fd1ae2e0c1d2cca40840ca028"),
    ((2, 64, 16), "ce29f76fa78d1475cdf64c8085a7230f1e98a84ba14e8ed65ab283511e70d926"),
    ((48, 64, 16), "85e8793e46d1246698bc2f5bd17612e78b9ac3100b3a36f716d035e8c0183bad"),
    ((3, 11, 8), "68b115ff4d36b391386329a9bd3ef6391a58be1b6d38464c318f4759d1a7a07d"),
])
def test_whole_result_pinned(args, digest):
    assert result_digest(run_recursion(*args)) == digest


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@st.composite
def wide_series(draw):
    """(a series of large rationals, the reference series of the same values)."""
    low = draw(st.integers(-8, 3))
    values = draw(st.lists(rationals, max_size=12))
    cut = low + len(values) + draw(st.integers(0, 1))
    return LaurentSeries("u", low, values, cut), ref.LaurentSeries("u", low, values, cut)


@settings(max_examples=150, deadline=None)
@given(wide_series(), rationals, st.integers(2, 5))
def test_integer_step_matches_series_substitute(pair, eps, r):
    s, old = pair
    agrees(series_substitute(s, eps, r), ref.series_substitute(old, eps, r))


@settings(max_examples=150, deadline=None)
@given(wide_series(), wide_series(), rationals)
def test_integer_product_and_subtraction_match_laurent_series(a_pair, b_pair, c):
    (a, old_a), (b, old_b) = a_pair, b_pair
    agrees(a * b, old_a * old_b)
    agrees(a - b.scale(c), old_a - old_b.scale(c))


# -- the torus action lam -> 2*lam: correction_monomial_check's second route ------


@pytest.mark.parametrize("args", RECURSION_GRID + [(2, 64, 16)])
def test_torus_check_passes(args):
    res = run_recursion(*args)
    rep = correction_monomial_check(res)
    assert rep.passed, rep.failures
    assert rep.to_jsonable() == {"genus": res.genus, "status": "pass", "failures": [],
                                 "multiplier_counts": {str(n): n - 1 for n in range(2, len(res.stages) + 1)}}


def with_stage(res, n, **changes):
    stages = list(res.stages)
    stages[n - 1] = dataclasses.replace(stages[n - 1], **changes)
    return dataclasses.replace(res, stages=tuple(stages))


def test_torus_check_names_a_changed_multiplier_or_correction():
    res = run_recursion(3, 11, 8)
    rec = res.stages[4]  # stage 5
    p = list(rec.multipliers)
    p[2] += Fraction(1, 7)
    for changes, named in (({"multipliers": tuple(p)}, "stage 5: multiplier p_3 = "),
                           ({"correction": rec.correction + Fraction(1, 7)}, "stage 5: correction = ")):
        rep = correction_monomial_check(with_stage(res, 5, **changes))
        assert rep.to_jsonable()["status"] == "fail"
        assert len(rep.failures) == 1 and rep.failures[0].startswith(named), rep.failures


def test_torus_check_names_a_missing_multiplier_and_a_changed_series():
    res = run_recursion(2, 6, 3)
    rep = correction_monomial_check(with_stage(res, 3, multipliers=res.stages[2].multipliers[:1]))
    assert rep.failures == ("stage 3: expected 2 multipliers, got 1",)
    assert rep.stage_multiplier_counts[3] == 1
    f5 = res.normal_forms[5]
    changed = {**res.normal_forms, 5: f5 + LaurentSeries.monomial("u", -1, 1, f5.cut)}
    rep = correction_monomial_check(dataclasses.replace(res, normal_forms=changed))
    assert len(rep.failures) == 1 and rep.failures[0].startswith("f[-5]: coefficient at u^-1 = ")
