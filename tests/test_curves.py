import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from nsc.curves import (
    EXPANSION_CACHE_SIZE,
    INF,
    Branch,
    CurveModel,
    Divisor,
    MarkedPoint,
    SingularPoint,
    _elt_expansion,
    _span_info,
    _validate_cached,
    arithmetic_genus,
    constraints,
    delta_invariant,
    h0,
    h1,
    h1_corank,
    validate,
)
from nsc.curveio import curve_from_jsonable, curve_to_jsonable, dump_curve, load_curve
from nsc.errors import ValidationError
import curves_reference as curves_ref
import sections_reference as ref
from nsc.zoo import ZOO_IDS, cusp, deep_cusp, glued_cusps, node, zoo


def projective_line(*marked):
    return validate(CurveModel(("c0",), (), tuple(marked)))


def mp(point, tangent=1, weight=None):
    return MarkedPoint("c0", point if point is INF else Fraction(point), Fraction(tangent), weight)


def one_node_genus_one(marked_at=5):
    return validate(CurveModel(("c0",), (node("c0", Fraction(0), Fraction(1)),), (mp(marked_at),)))


# -- validation ---------------------------------------------------------------

def test_validate_accepts_deep_cusp_spec():
    cur = zoo("ccusp2")
    sing = cur.singularities[0]
    assert sing.jet_order == 6 and sing.conductor == 3
    assert delta_invariant(cur, sing) == 2


def test_validate_accepts_full_jet_span():
    # span {1, t} at jet order 2 is the whole jet space: a smooth (delta 0) point
    sing = SingularPoint((Branch("c0", Fraction(0)),), 2, 1,
                         ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    cur = validate(CurveModel(("c0",), (sing,), (mp(5),)))
    assert delta_invariant(cur, sing) == 0


def test_validate_rejects_conductor_violation():
    # span {1, t^2 + t^3} with k = 4: cannot contain the conductor tail
    sing = SingularPoint((Branch("c0", Fraction(0)),), 4, 2,
                         ((Fraction(1), 0, 0, 0), (0, 0, Fraction(1), Fraction(1))))
    with pytest.raises(ValidationError, match="conductor"):
        validate(CurveModel(("c0",), (sing,), ()))


def test_validate_rejects_non_subalgebra():
    # span {1, s, s^3} at k=4, c=3 is not closed: s*s = s^2 is missing
    sing = SingularPoint((Branch("c0", Fraction(0)),), 6, 3,
                         ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                          (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)))
    with pytest.raises(ValidationError, match="subalgebra"):
        validate(CurveModel(("c0",), (sing,), ()))


def test_validate_rejects_missing_constants():
    sing = SingularPoint((Branch("c0", Fraction(0)),), 2, 1, ((0, 1),))
    with pytest.raises(ValidationError, match="constants"):
        validate(CurveModel(("c0",), (sing,), ()))


def test_validate_rejects_unglued_branches():
    # three branches where only the first two are glued
    width = 6
    rows = []
    ones01 = [Fraction(0)] * width
    ones01[0] = ones01[2] = Fraction(1)
    e2 = [Fraction(0)] * width
    e2[4] = Fraction(1)
    rows = [tuple(ones01), tuple(e2)]
    for slot in (1, 3, 5):
        v = [Fraction(0)] * width
        v[slot] = Fraction(1)
        rows.append(tuple(v))
    sing = SingularPoint(tuple(Branch("c0", Fraction(i)) for i in range(3)), 2, 1, tuple(rows))
    with pytest.raises(ValidationError, match="glue"):
        validate(CurveModel(("c0",), (sing,), ()))


def test_validate_bounds_a_singular_point_built_in_python():
    # the bounds hold for a CurveModel built without the spec loader: the
    # cusp's three vectors plus the jet s^2 twice more exceed the jet width
    # 4, and a jet order of 65 exceeds MAX_JET_WIDTH
    s2 = (0, 0, Fraction(1), 0)
    basis = ((Fraction(1), 0, 0, 0), s2, (0, 0, 0, Fraction(1)))
    branch = (Branch("c0", Fraction(0)),)
    assert validate(CurveModel(("c0",), (SingularPoint(branch, 4, 2, basis + (s2,)),), (mp(1),)))
    too_many = SingularPoint(branch, 4, 2, basis + (s2, s2))
    with pytest.raises(ValidationError, match=r"^algebra_basis has 5 vectors: the limit is the jet width, "
                                              r"branches x jet_order = 4$"):
        validate(CurveModel(("c0",), (too_many,), (mp(1),)))
    too_wide = SingularPoint(branch, 65, 2, ((Fraction(1),) + (0,) * 64,))
    with pytest.raises(ValidationError, match=r"^jet width 1 x 65 = 65 is out of range"):
        validate(CurveModel(("c0",), (too_wide,), (mp(1),)))


def test_validate_rejects_disconnected():
    cur = CurveModel(("c0", "c1"), (), ())
    with pytest.raises(ValidationError, match="disconnected"):
        validate(cur)


def test_validate_rejects_marked_on_branch_point():
    with pytest.raises(ValidationError, match="coincides"):
        validate(CurveModel(("c0",), (cusp("c0", Fraction(0)),), (mp(0),)))


def test_validate_requires_exact_points_and_tangents():
    # an inexact point or tangent would pass validation and make an expansion
    # fail later, on a value the caller never gave
    q = Fraction
    cases = [
        ((MarkedPoint("c0", q(5), 2), MarkedPoint("c0", q(7), q(1))), "marked point tangent 2 must be a Fraction"),
        ((MarkedPoint("c0", 5, q(1)), MarkedPoint("c0", 7, q(1))), "marked point 5 on c0 must be a Fraction or inf"),
        ((MarkedPoint("c0", 5.0, q(1)), MarkedPoint("c0", q(7), q(1))),
         "marked point 5.0 on c0 must be a Fraction or inf"),
        ((MarkedPoint("c0", q(5), 0.5), MarkedPoint("c0", q(7), q(1))), "marked point tangent 0.5 must be a Fraction"),
    ]
    # each curve equals an exact one validated first, which the value-keyed
    # cache holds
    for marked, message in cases:
        zoo("Ia", marked=tuple(MarkedPoint(m.component, q(m.point), q(m.tangent)) for m in marked))
        with pytest.raises(ValidationError) as exc:
            zoo("Ia", marked=marked)
        assert str(exc.value) == message
    validate(CurveModel(("c0",), (cusp("c0", q(0)),), ()))
    with pytest.raises(ValidationError, match=r"^branch point 0 on c0 must be a Fraction or inf$"):
        validate(CurveModel(("c0",), (cusp("c0", 0),), ()))


def test_validate_requires_exact_algebra_basis_entries():
    # the value-keyed cache compares 1.0 equal to Fraction(1): an inexact
    # entry is rejected with a cold cache and after its exact twin is cached
    def cusp_curve(one, at):
        basis = ((one, 0, 0, 0), (0, 0, Fraction(1), 0), (0, 0, 0, Fraction(1)))
        return CurveModel(("c0",), (SingularPoint((Branch("c0", at),), 4, 2, basis),), ())

    for twin_first, at in ((False, Fraction(-11, 13)), (True, Fraction(-12, 13))):
        if twin_first:
            validate(cusp_curve(Fraction(1), at))
        for one in (1.0, True):
            with pytest.raises(ValidationError) as exc:
                validate(cusp_curve(one, at))
            assert str(exc.value) == f"algebra basis entry {one!r} must be an int or a Fraction"
        assert validate(cusp_curve(1, at))


def random_singular_curve(rng):
    """One singular point on one or several lines: 1-3 branches, jet order
    1-6, conductor 0..k+1, a basis of dense random rows or of unit jets,
    half of the time padded with the constants and the conductor tail."""
    B, k = rng.randint(1, 3), rng.randint(1, 6)
    c, width = rng.randint(0, k + 1), B * k
    if rng.random() < 0.5:
        entries = [Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
        basis = [[rng.choice(entries) for _ in range(width)] for _ in range(rng.randint(0, width))]
    else:
        basis = [[Fraction(s == t) for s in range(width)] for t in rng.sample(range(width), rng.randint(0, width))]
    if rng.random() < 0.5:
        pad = [[Fraction(s % k == 0) for s in range(width)]]
        pad += [[Fraction(s == b * k + d) for s in range(width)] for b in range(B) for d in range(c, k)]
        basis = basis[:max(0, width - len(pad))] + pad
    if rng.random() < 0.5:
        comps, branches = ("c0",), tuple(Branch("c0", Fraction(b)) for b in range(B))
    else:
        comps = tuple(f"c{b}" for b in range(B))
        branches = tuple(Branch(comp, Fraction(0)) for comp in comps)
    sing = SingularPoint(branches, k, c, tuple(map(tuple, basis)))
    return CurveModel(comps, (sing,), (MarkedPoint("c0", INF),))


def test_validate_matches_the_reference_on_random_singular_points():
    def outcome(check, curve):
        try:
            check(curve)
            return "valid"
        except ValidationError as exc:
            return str(exc)

    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(6000):
        curve = random_singular_curve(rng)
        got = outcome(validate, curve)
        assert got == outcome(curves_ref._validate_cached, curve), curve
        seen[got.split(":")[0]] += 1
    for kind in ("valid", "missing constants", "conductor violation", "non-subalgebra span",
                 "singularity does not glue its branches into one point"):
        assert seen[kind] >= 40, (kind, seen[kind])


def test_validate_rejects_a_marked_point_weight_that_is_not_an_int(tmp_path):
    # True == 1 and 1.0 == 1, so such a curve equals its exact twin, which the
    # value-keyed cache holds; its spec would write "weight": true, which
    # load_curve refuses
    q = Fraction
    twin = zoo("Ia", marked=(MarkedPoint("c0", q(5), q(1), 1), MarkedPoint("c0", q(7), q(1))))
    for weight in (True, False, 1.0):
        with pytest.raises(ValidationError) as exc:
            zoo("Ia", marked=(MarkedPoint("c0", q(5), q(1), weight), MarkedPoint("c0", q(7), q(1))))
        assert str(exc.value) == f"marked point weight {weight!r} must be an int, not a {type(weight).__name__}"
    path = str(tmp_path / "Ia.json")
    dump_curve(twin, path)
    assert load_curve(path) == twin


def drawn_point(rng):
    """A random_singular_curve point, a third of the time with one branch at
    infinity."""
    sing = random_singular_curve(rng).singularities[0]
    if rng.random() < 1 / 3:
        branches = list(sing.branches)
        b = rng.randrange(len(branches))
        branches[b] = Branch(branches[b].component, INF)
        sing = SingularPoint(tuple(branches), sing.jet_order, sing.conductor, sing.algebra_basis)
    return sing


def rebuilt(sing, rng):
    """The point built anew, each integral entry an int or a Fraction at random."""
    def entry(x):
        return x.numerator if x.denominator == 1 and rng.random() < 0.5 else Fraction(x)

    branches = tuple(Branch(br.component, br.point if br.point is INF else Fraction(br.point))
                     for br in sing.branches)
    basis = tuple(tuple(map(entry, v)) for v in sing.algebra_basis)
    return SingularPoint(branches, sing.jet_order, sing.conductor, basis)


def perturbed(sing, rng):
    """The point with one entry, branch, order or vector count changed, or
    two vectors joined into one with the same entries in all."""
    branches, k, c, basis = list(sing.branches), sing.jet_order, sing.conductor, list(sing.algebra_basis)
    what = rng.choice(("entry", "branch", "component", "jet order", "conductor", "vectors", "joined"))
    if what == "entry" and basis:
        i = rng.randrange(len(basis))
        v = list(basis[i])
        s = rng.randrange(len(v))
        v[s] += rng.choice((1, -1, Fraction(1, 2)))
        basis[i] = tuple(v)
    elif what in ("branch", "component"):
        b = rng.randrange(len(branches))
        comp, point = branches[b].component, branches[b].point
        if what == "component":
            comp += "'"
        else:
            point = Fraction(-1) if point is INF else rng.choice((INF, point + Fraction(1, 3)))
        branches[b] = Branch(comp, point)
    elif what == "jet order":
        k += 1
    elif what == "conductor":
        c += 1
    elif what == "joined" and len(basis) >= 2:
        basis[:2] = [basis[0] + basis[1]]
    else:
        basis = basis[:-1] if basis else [(Fraction(0),) * (len(branches) * k)]
    return SingularPoint(tuple(branches), k, c, tuple(basis))


def test_point_key_equality_matches_the_reference():
    # equality and hash read one integer key; they must agree with the
    # field-by-field comparison of every entry's value
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(2000):
        a = drawn_point(rng)
        for b in (drawn_point(rng), rebuilt(a, rng), perturbed(a, rng), perturbed(rebuilt(a, rng), rng)):
            assert (a == b) == (b == a) == curves_ref.point_eq(a, b) == (not a != b), (a, b)
            if a == b:
                assert hash(a) == hash(b)
            seen[a == b, any(br.point is INF for br in a.branches), len({br.component for br in a.branches})] += 1
    for key in ((True, False, 1), (True, True, 1), (True, False, 2), (True, True, 2), (False, True, 2)):
        assert seen[key] >= 100, (key, seen)


def test_equal_points_compare_without_fraction_eq(monkeypatch):
    # a fresh point equal to a cached key compares by ints: no entry's
    # Fraction.__eq__, on the comparison or on the cache hit
    a, b = deep_cusp("c0", Fraction(0), 24), deep_cusp("c0", Fraction(0), 24)
    _span_info(a, a.jet_order)
    calls = Counter()
    fraction_eq = Fraction.__eq__

    def counting_eq(x, y):
        calls["__eq__"] += 1
        return fraction_eq(x, y)

    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    hits = _span_info.cache_info().hits
    assert a == b and a is not b
    assert _span_info(b, b.jet_order) is _span_info(a, a.jet_order)
    assert _span_info.cache_info().hits == hits + 2
    monkeypatch.undo()
    assert calls["__eq__"] == 0


def validate_lookups():
    info = _validate_cached.cache_info()
    return info.hits + info.misses


def test_validate_looks_a_curve_up_once():
    # a fresh curve equal to a cached one: the first validate compares it
    # with the cached key, the second reads the result stored on the object
    cur = CurveModel(*(getattr(zoo("Ia"), f) for f in ("components", "singularities", "marked_points")))
    before = validate_lookups()
    assert validate(cur) is cur and validate(cur) is cur
    assert validate_lookups() == before + 1


def test_validate_raises_on_every_call_for_an_invalid_curve():
    cur = CurveModel(("c0", "c1"), (), ())
    for _ in range(2):
        before = validate_lookups()
        with pytest.raises(ValidationError, match="disconnected"):
            validate(cur)
        assert validate_lookups() == before + 1


def test_two_component_nodal_curve_connects():
    sing = SingularPoint((Branch("c0", Fraction(0)), Branch("c1", Fraction(0))), 2, 1,
                         ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
    cur = validate(CurveModel(("c0", "c1"), (sing,), (MarkedPoint("c0", Fraction(5), Fraction(1)),)))
    assert arithmetic_genus(cur) == 1 - 1  # one node, two components


# -- delta and genus -----------------------------------------------------------

def test_delta_node_is_one():
    cur = one_node_genus_one()
    assert delta_invariant(cur, cur.singularities[0]) == 1


def test_delta_semigroup_two_five_is_two():
    cur = zoo("IIc-C0")
    assert delta_invariant(cur, cur.singularities[0]) == 2


def brute_rank(rows):
    # independent row-count: Gaussian elimination written from scratch
    rows = [list(map(Fraction, r)) for r in rows]
    cnt = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        for i, row in enumerate(rows):
            if not used[i] and row[c]:
                used[i] = True
                cnt += 1
                for k, other in enumerate(rows):
                    if k != i and other[c]:
                        f = other[c] / row[c]
                        rows[k] = [x - f * y for x, y in zip(other, row)]
                break
    return cnt


def test_delta_deep_cusp_family_against_bruteforce():
    for a in range(1, 9):
        sing = deep_cusp("c0", Fraction(0), a)
        cur = validate(CurveModel(("c0",), (sing,), (mp(5),)))
        width = len(sing.branches) * sing.jet_order
        assert delta_invariant(cur, sing) == width - brute_rank(sing.algebra_basis) == a


def singular_points():
    curves = [zoo(case) for case in ZOO_IDS] + [zoo(f"ccusp{a}") for a in range(1, 9)]
    return [(cur, sing) for cur in curves + [glued_cusps(2, 3)] for sing in cur.singularities]


def test_span_membership_against_bruteforce():
    # half of the jets are combinations of basis vectors; the other half add
    # a multiple of one unit jet, which may or may not leave the span
    rng = random.Random(20261018)
    for _, sing in singular_points():
        basis = [list(map(Fraction, v)) for v in sing.algebra_basis]
        width = len(sing.branches) * sing.jet_order
        r = brute_rank(basis)
        for trial in range(2 * width):
            jet = [Fraction(0)] * width
            for v in basis:
                c = rng.randint(-3, 3)
                jet = [x + c * y for x, y in zip(jet, v)]
            if trial % 2:
                jet[rng.randrange(width)] += rng.choice((-2, -1, 1, Fraction(1, 2)))
            killed = not any(sum(x * jet[s] for s, x in phi) for phi, _ in _span_info(sing, sing.jet_order))
            assert killed == (brute_rank(basis + [jet]) == r)


def test_delta_against_bruteforce_at_deeper_jets():
    # the span at jet order k: the basis zero-padded to k plus the tail units
    for cur, sing in singular_points():
        k0, B = sing.jet_order, len(sing.branches)
        for k in range(k0, k0 + 3):
            rows = [[x for b in range(B) for x in list(v[b * k0:(b + 1) * k0]) + [0] * (k - k0)]
                    for v in sing.algebra_basis]
            rows += [[int(s == b * k + d) for s in range(B * k)]
                     for b in range(B) for d in range(k0, k)]
            assert delta_invariant(cur, sing, k) == B * k - brute_rank(rows)


def test_delta_stable_under_deeper_jets():
    for case in ("Ia", "IIb-tacnode", "IIc-C0", "ccusp3"):
        cur = zoo(case)
        for sing in cur.singularities:
            d = delta_invariant(cur, sing)
            assert delta_invariant(cur, sing, sing.jet_order + 1) == d
            assert delta_invariant(cur, sing, sing.jet_order + 2) == d


def test_genus_smooth_line_is_zero():
    assert arithmetic_genus(projective_line(mp(0))) == 0


def test_genus_all_zoo_cases_is_two():
    for case in ZOO_IDS:
        assert arithmetic_genus(zoo(case)) == 2, case


def test_genus_deep_cusp_family():
    for a in range(1, 9):
        assert arithmetic_genus(zoo(f"ccusp{a}")) == a


def semigroup(gens):
    """(elements below the conductor, conductor, gap count) of the numerical
    semigroup generated by gens, whose first two are coprime, by a sieve: no
    linear algebra.  The largest gap is below gens[0] * gens[1]."""
    bound = gens[0] * gens[1]
    member = [True] + [False] * (bound - 1)
    for n in range(1, bound):
        member[n] = any(n >= a and member[n - a] for a in gens)
    gaps = [n for n in range(bound) if not member[n]]
    conductor = gaps[-1] + 1
    return [n for n in range(conductor) if member[n]], conductor, len(gaps)


@pytest.mark.parametrize("gens", [(3, 4), (3, 5), (4, 5, 6), (5, 7), (2, 9), (4, 7, 9)])
def test_monomial_cusps_against_the_numerical_semigroup(gens):
    # the cusp t -> (t^a, t^b, ...) at t = 0: its local functions are spanned
    # by the monomials s^e with e in the semigroup; delta is the gap count
    from nsc.curveio import curve_from_jsonable

    elements, conductor, gap_count = semigroup(gens)
    k = max(conductor, 2)
    spec = {
        "components": ["c0"],
        "singularities": [{
            "branches": [{"component": "c0", "point": "0"}], "jet_order": k, "conductor": conductor,
            "algebra_basis": [[str(int(d == e)) for d in range(k)] for e in elements],
        }],
        "marked": [{"component": "c0", "point": "inf"}, {"component": "c0", "point": "1"}],
    }
    cur = curve_from_jsonable(spec)
    assert delta_invariant(cur, cur.singularities[0]) == gap_count
    assert arithmetic_genus(cur) == gap_count
    for n0 in range(-1, k + 3):
        if n0 >= 0:
            # the polynomials of degree <= n0 whose exponents lie in the semigroup
            members = sum(1 for e in range(n0 + 1) if e >= k or e in elements)
            assert h0(cur, Divisor.of({"p0": n0})).dimension == members
        for n1 in range(-1, 3):
            d = Divisor.of({"p0": n0, "p1": n1})
            assert h0(cur, d).dimension - h1_corank(cur, d) == d.degree() + 1 - gap_count
            assert h1(cur, d) == h1_corank(cur, d)


# -- h0 / h1 -------------------------------------------------------------------

def test_h0_projective_line():
    cur = projective_line(mp(0))
    for n in range(0, 5):
        assert h0(cur, Divisor.of({"p0": n})).dimension == n + 1


def test_h0_basis_matches_the_two_elimination_reference():
    # the kernel of the reversed columns, read back, is already the reduced
    # echelon form the reference takes by a second elimination
    for case in ZOO_IDS + tuple(f"ccusp{a}" for a in range(1, 13)):
        cur = zoo(case)
        for n0 in range(-1, 7):
            for n1 in range(-1, 7):
                d = Divisor.of({"p0": n0, "p1": n1})
                expected = curves_ref.h0_basis(cur, d)
                res = h0(cur, d)
                assert res.dimension == len(expected)
                assert [f.coords for f in res.basis] == expected
                assert all(type(x) is Fraction for f in res.basis for x in f.coords)
                assert all(type(x) is Fraction for v in expected for x in v)


def test_h0_c0_generic_point_is_one():
    cur = zoo("IIc-C0")  # p0 at t=1
    res = h0(cur, Divisor.of({"p0": 2}))
    assert res.dimension == 1
    # only constants
    const, poles = res.basis[0].component_terms("c0")
    assert poles == [] and const == 1


def test_h0_c0_at_infinity_is_two_with_basis_one_tsquared():
    cur = zoo("IIc-C0")  # p1 at inf
    res = h0(cur, Divisor.of({"p1": 2}))
    assert res.dimension == 2
    rendered = sorted(str(f) for f in res.basis)
    assert rendered == ["c0: 1", "c0: t^2"]


def test_h0_deep_cusp_two_points_at_infinity():
    cur = zoo("ccusp2")  # p0 at inf
    assert h0(cur, Divisor.of({"p0": 2})).dimension == 1


def test_h1_on_c0():
    # h0(2p) = 1 at generic p forces h1(2p) = 0 through Riemann-Roch; the
    # special point is infinity, where h0(2p) = 2 and hence h1(2p) = 1.
    cur = zoo("IIc-C0")
    assert h1(cur, Divisor.of({"p0": 2})) == 0
    assert h1(cur, Divisor.of({"p0": 3})) == 0
    assert h1(cur, Divisor.of({"p1": 2})) == 1
    assert h1(cur, Divisor.of({"p1": 3})) == 0


def test_h1_generic_divisor_degree_five():
    for case in ("Ia", "Ic", "IIa"):
        cur = zoo(case)
        assert h0(cur, Divisor.of({"p0": 5})).dimension == 4
        assert h1(cur, Divisor.of({"p0": 5})) == 0


def test_h1_projective_line_zero():
    cur = projective_line(mp(2))
    for n in range(0, 4):
        assert h1(cur, Divisor.of({"p0": n})) == 0


def test_nonspecial_examples():
    assert h1(zoo("ccusp2"), Divisor.of({"p0": 2})) == 0
    # a generic point of the pinched curve is nonspecial (that is what puts the
    # curve into the moduli space); the distinguished point at infinity is not
    assert h1(zoo("IIc-C0"), Divisor.of({"p0": 2})) == 0
    assert h1(zoo("IIc-C0"), Divisor.of({"p1": 2})) != 0
    assert h1(one_node_genus_one(), Divisor.of({"p0": 1})) == 0


@pytest.mark.parametrize("n", [2.5, Fraction(5, 2), True, "3"])
def test_divisor_multiplicities_are_ints(n):
    with pytest.raises(ValidationError, match=f"multiplicity {re.escape(repr(n))} at p0 must be an int"):
        Divisor.of({"p0": n})


def test_divisor_id_aliases_resolve():
    cur = zoo("IIc-C0")  # p1 sits at infinity
    via_alias = h0(cur, Divisor.of({"pinf": 2}))
    via_canonical = h0(cur, Divisor.of({"p1": 2}))
    assert via_alias.dimension == via_canonical.dimension == 2
    assert h1(cur, Divisor.of({"pinf": 2})) == 1
    with pytest.raises(ValidationError):
        h0(cur, Divisor.of({"p9": 1}))


# -- Riemann-Roch and monotonicity ----------------------------------------------

def test_riemann_roch_against_corank_oracle():
    rng = random.Random(20260810)
    for case in ZOO_IDS:
        cur = zoo(case)
        g = arithmetic_genus(cur)
        for _ in range(30):
            d = {}
            while sum(d.values()) < -2 or not d:
                d = {pid: rng.randint(-2, 4) for pid in cur.point_ids()}
                if sum(n for n in d.values()) > 6:
                    d = {}
            div = Divisor.of(d)
            lhs = h0(cur, div).dimension - h1_corank(cur, div)
            assert lhs == div.degree() + 1 - g
            assert h1(cur, div) == h1_corank(cur, div)


def test_h1_rank_route_matches_the_h0_basis_route():
    # h1 reads h0's dimension from one rank of the constraint rows, h0 from
    # its kernel basis: Riemann-Roch through either gives the same h1, also
    # through id aliases, "pinf" beside its canonical id included
    cases = [(zoo(case), ("p0", "p1")) for case in ZOO_IDS]
    cases += [(zoo("IIc-C0"), ("p0", "pinf")), (zoo("IIc-C0"), ("pinf", "p1"))]
    cases += [(zoo(f"ccusp{a}"), ("pinf", "p1")) for a in range(1, 13)]
    for cur, (i, j) in cases:
        g = arithmetic_genus(cur)
        for n0 in range(-1, 7):
            for n1 in range(-1, 7):
                d = Divisor.of({i: n0, j: n1})
                assert h1(cur, d) == h0(cur, d).dimension - d.degree() - 1 + g, (cur, d)


def test_jet_rows_from_the_memo_match_a_fresh_build(tmp_path):
    # an interned spec curve asked its divisors in a seeded order reads its
    # jet rows from the columns earlier questions left; a newly built equal
    # curve, with the condition and expansion caches emptied, builds them
    # afresh by the Fraction route, one dot product at a time over the
    # reference expansions: the same values, of the same types.
    # Its genus is the sum of its delta invariants, and it starts with no
    # columns.
    rng = random.Random(20261019)
    cases = [(case, ("p0", "p1")) for case in ZOO_IDS]
    cases += [("IIc-C0", ("p0", "pinf")), ("IIc-C0", ("pinf", "p1"))]
    cases += [(f"ccusp{a}", ("pinf", "p1")) for a in range(1, 13)]
    for case, (i, j) in cases:
        path = tmp_path / f"{case}.json"
        dump_curve(zoo(case), str(path))
        warm = load_curve(str(path))
        assert load_curve(str(path)) is warm
        divisors = [Divisor.of({i: n0, j: n1}) for n0 in range(-1, 7) for n1 in range(-1, 7)]
        rng.shuffle(divisors)
        for d in divisors:
            elts, rows = constraints(warm, d)
            _span_info.cache_clear()
            _elt_expansion.cache_clear()
            fresh = curve_from_jsonable(curve_to_jsonable(warm))
            assert fresh is not warm and fresh._jet_columns == {}
            jet_rows = curves_ref._jet_rows(fresh, elts)
            assert rows[:len(jet_rows)] == jet_rows, (case, d)
            assert [list(map(type, r)) for r in rows[:len(jet_rows)]] == \
                [list(map(type, r)) for r in jet_rows], (case, d)
            assert constraints(fresh, d) == (elts, rows), (case, d)
        assert arithmetic_genus(warm) == sum(delta_invariant(warm, s) for s in warm.singularities)


def test_threads_sharing_a_curve_read_whole_columns():
    # four threads ask a fresh curve about overlapping divisors with a short
    # switch interval, on 20 curves: each gets the rows a single thread gets
    cur = zoo("ccusp8")
    divisors = [Divisor.of({"pinf": n0, "p1": n1}) for n0 in range(-1, 7) for n1 in range(-1, 7)]
    want = [constraints(cur, d) for d in divisors]
    offsets = (0, 16, 32, 48)
    got, errors = {}, []

    def ask(fresh, offset):
        try:
            for i in range(len(divisors)):
                k = (i + offset) % len(divisors)
                got[offset, k] = constraints(fresh, divisors[k])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            fresh = CurveModel(cur.components, cur.singularities, cur.marked_points)
            threads = [threading.Thread(target=ask, args=(fresh, offset)) for offset in offsets]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors and not any(t.is_alive() for t in threads)
            assert all(got[offset, k] == want[k] for offset in offsets for k in range(len(divisors)))
    finally:
        sys.setswitchinterval(interval)


def test_h0_monotone_under_divisor_growth():
    rng = random.Random(7)
    cur = zoo("Ib")
    for _ in range(20):
        base = {pid: rng.randint(-1, 3) for pid in cur.point_ids()}
        bump = {pid: base[pid] + rng.randint(0, 2) for pid in cur.point_ids()}
        d0, d1 = Divisor.of(base), Divisor.of(bump)
        a, b = h0(cur, d0).dimension, h0(cur, d1).dimension
        assert all(d0.multiplicity(pid) <= d1.multiplicity(pid) for pid in cur.point_ids())
        assert a <= b <= a + (d1.degree() - d0.degree())


def test_weierstrass_locus_on_c0():
    # h0(2p) = 1 at every sampled p away from {0, inf}; dimension jumps to 2
    # exactly at infinity
    cur0 = zoo("IIc-C0")
    for t in (2, 3, -1, Fraction(7, 2), Fraction(-5, 3)):
        cur = zoo("IIc-C0", marked=(mp(t), mp(INF)))
        assert h0(cur, Divisor.of({"p0": 2})).dimension == 1
        assert h1(cur, Divisor.of({"p0": 2})) == 0
    assert h0(cur0, Divisor.of({"p1": 2})).dimension == 2
    assert h1(cur0, Divisor.of({"p1": 2})) == 1


def test_genus2_smooth_point_lemma_suite():
    # h0(p) = 1 and h1(3p) = 0 at sampled smooth points of every zoo curve
    samples = (5, 6, Fraction(9, 2), -3, Fraction(22, 7))
    for case in ZOO_IDS:
        for t in samples:
            cur = zoo(case, marked=(mp(t),))
            assert h0(cur, Divisor.of({"p0": 1})).dimension == 1
            assert h1(cur, Divisor.of({"p0": 3})) == 0


def test_expansion_cache_is_bounded():
    # more distinct expansions than the cache holds: it stays at its bound,
    # and an evicted expansion is recomputed to the same coefficients
    def expansion(k):
        return _elt_expansion(("pole", "c0", Fraction(k), 2), "c0", Fraction(-1), -1, 4)

    first = [expansion(k) for k in range(8)]
    for k in range(EXPANSION_CACHE_SIZE + 8):
        expansion(k)
    assert _elt_expansion.cache_info().currsize == EXPANSION_CACHE_SIZE
    assert [expansion(k) for k in range(8)] == first
    # (t - 1)^-2 = (s - 2)^-2 = (1/4) sum_i (i + 1) (s/2)^i in s = t + 1
    nums, den = first[1]
    assert [Fraction(x, den) for x in nums] == [0, Fraction(1, 4), Fraction(1, 4), Fraction(3, 16), Fraction(1, 8)]


def test_elt_expansion_matches_the_reference():
    # constants and poles at 0, finite points and infinity, expanded at each
    # of those points (the pole's own point included) and on another
    # component, on windows below, across and above the valuation and empty:
    # the same coefficients as the per-kind expansions, coefficient by
    # coefficient, each an int numerator over one positive int denominator
    # in lowest terms
    spots = (Fraction(0), Fraction(3), Fraction(-5, 2), INF)
    elts = [("const", "c0"), ("const", "c1")]
    elts += [("pole", c, t0, j) for c in ("c0", "c1") for t0 in spots for j in (1, 2, 5)]
    windows = ((-9, -6), (-6, 3), (-2, 1), (0, 4), (4, 8), (6, 10), (3, 3))
    for elt in elts:
        for point in spots:
            for low, high in windows:
                nums, den = _elt_expansion(elt, "c0", point, low, high)
                want = ref._elt_expansion(elt, "c0", point, low, high)
                assert [Fraction(x, den) for x in nums] == list(want), (elt, point, low, high)
                assert [type(x) for x in nums] == [int] * len(want), (elt, point, low, high)
                assert type(den) is int and den > 0 and gcd(den, *nums) == 1, (elt, point, low, high)
                assert set(map(type, want)) <= {Fraction}, (elt, point, low, high)
