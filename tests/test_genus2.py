import random
from fractions import Fraction

import pytest

import genus2_reference as ref
from nsc.errors import InternalInconsistencyError, ValidationError
from nsc.genus2 import (
    G2Params,
    GeneralPresentation,
    RELATION_DEGREES,
    buchberger_verify,
    coefficient_f_ring,
    fit_parameters,
    normal_presentation,
    normalize_presentation,
    parameter_ring,
    presentation_from_series,
    relation_ring,
    section_series,
    solve_c,
    universal_relations,
)
from nsc.curves import INF, Divisor, MarkedPoint, h0
from nsc.laurent import LaurentSeries
from nsc.multipoly import poly_reduce
from nsc.sections import rescale_tangent
from nsc.zoo import ZOO_IDS, zoo


def symbolic_relations():
    return universal_relations(G2Params.symbolic())


def reference_relations(params):
    """The three displayed relations, written out by hand."""
    ring = relation_ring(params.base_ring())
    k, h, f = ring.gens()
    q1, q20, q21, q30, q31 = (ring.const(v) for v in params.astuple())
    q2 = q20 + q21 * f
    q3 = q30 + q31 * f + f * f
    rel1 = h * h - (f * k + q1 * h + 2 * q1 * q1 + f * q2)
    rel2 = h * k - (f * q3 - q1 * k + q2 * h + q1 * q2)
    rel3 = k * k - (q3 * h + q2 * q2 - 2 * q1 * q3)
    return rel1, rel2, rel3


def random_params(rng):
    return G2Params(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)))


def test_relations_match_the_hand_written_reference():
    rng = random.Random(2024)
    for params in [G2Params.symbolic(), G2Params.zero()] + [random_params(rng) for _ in range(20)]:
        rels = universal_relations(params)
        reference = reference_relations(params)
        assert rels.ring == relation_ring(params.base_ring())
        assert [r.terms for r in rels.relations] == [r.terms for r in reference]
        assert [str(r) for r in rels.relations] == [str(r) for r in reference]


def test_displayed_relations_term_by_term():
    rels = symbolic_relations()
    qr = parameter_ring()
    q1, q20, q21, q30, q31 = qr.gens()
    one = qr.one()
    # exponent tuples are (k, h, f)
    expected1 = {
        (0, 2, 0): one, (1, 0, 1): -one, (0, 1, 0): -q1,
        (0, 0, 0): -2 * q1 * q1, (0, 0, 1): -q20, (0, 0, 2): -q21,
    }
    expected2 = {
        (1, 1, 0): one, (0, 0, 1): -(q30 + q1 * q21), (0, 0, 2): -q31,
        (0, 0, 3): -one, (1, 0, 0): q1, (0, 1, 0): -q20, (0, 1, 1): -q21,
        (0, 0, 0): -q1 * q20,
    }
    expected3 = {
        (2, 0, 0): one, (0, 1, 0): -q30, (0, 1, 1): -q31, (0, 1, 2): -one,
        (0, 0, 0): -(q20 * q20 - 2 * q1 * q30),
        (0, 0, 1): -(2 * q20 * q21 - 2 * q1 * q31),
        (0, 0, 2): -(q21 * q21 - 2 * q1),
    }
    for rel, expected in zip(rels.relations, (expected1, expected2, expected3)):
        assert rel.terms == {e: c for e, c in expected.items() if c}
    # flattened over Q[q1,q20,q21,q30,q31,f,h,k] the supports have 6, 9, 10 monomials
    flat_counts = [sum(len(c.terms) for c in rel.terms.values()) for rel in rels.relations]
    assert flat_counts == [6, 9, 10]


def test_leading_monomials_are_h2_hk_k2():
    assert symbolic_relations().leads_are_h2_hk_k2()


def test_relations_weighted_homogeneous():
    for rel, degree in zip(symbolic_relations().relations, RELATION_DEGREES):
        assert rel.is_homogeneous(degree)


def test_buchberger_symbolic_passes():
    cert = buchberger_verify(symbolic_relations())
    assert cert.ok
    for _, quotients, rem in cert.reductions:
        assert rem.is_zero()
        assert len(quotients) == 3


def test_zero_params_give_monomial_relations():
    rels = universal_relations(G2Params.zero())
    ring = rels.ring
    k, h, f = ring.gens()
    assert rels.relations == (h * h - f * k, h * k - f ** 3, k * k - f * f * h)


def test_buchberger_all_zero_params_passes():
    assert buchberger_verify(universal_relations(G2Params.zero())).ok


def test_buchberger_perturbations_fail():
    for which in range(3):
        rels = universal_relations(G2Params.symbolic())
        perturbed = list(rels.relations)
        perturbed[which] = perturbed[which] + 1  # bump the constant term of c_i
        assert not buchberger_verify(type(rels)(rels.ring, tuple(perturbed))).ok


def test_buchberger_rejects_wrong_leading_monomials():
    rels = symbolic_relations()
    ring = rels.ring
    k, h, f = ring.gens()
    broken = (f ** 3 - h * k, rels.relations[1], rels.relations[2])
    with pytest.raises(ValidationError, match="leading"):
        buchberger_verify(type(rels)(ring, broken))


def test_reduce_remainder_basis_order_independent_on_groebner_basis():
    rels = symbolic_relations()
    ring = rels.ring
    k, h, f = ring.gens()
    probe = k * k * h + f * h * h + k
    baseline = poly_reduce(probe, rels.relations)[1]
    import itertools

    for perm in itertools.permutations(rels.relations):
        assert poly_reduce(probe, list(perm))[1] == baseline


def test_standard_monomial_completeness():
    rels = universal_relations(G2Params.symbolic())
    ring = rels.ring
    k, h, f = ring.gens()
    for a in range(7):
        for b in range(7 - a):
            for c in range(7 - a - b):
                mono = f ** a * h ** b * k ** c
                _, rem = poly_reduce(mono, rels.relations)
                for (ek, eh, ef) in rem.terms:
                    assert (ek, eh) in ((0, 0), (0, 1), (1, 0))


def test_solve_c_symbolic_closed_forms():
    report = solve_c()
    assert report.residuals == ()
    assert report.matches_closed_forms
    assert report.ok


def test_normal_presentation_numeric_spot_checks():
    # q1 = 1, everything else 0: c1 = 2, c2 = f^3, c3 = -2 q1 q3 = -2 f^2
    pres = normal_presentation(G2Params(Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    ring = coefficient_f_ring()
    f = ring.var("f")
    assert pres.c1 == ring.const(2)
    assert pres.c2 == f ** 3
    assert pres.c3 == -2 * f * f
    assert buchberger_verify(pres.relations()).ok
    pres0 = normal_presentation(G2Params.zero())
    assert pres0.c1.is_zero()
    assert (pres0.c2 - f ** 3).is_zero()
    assert pres0.c3.is_zero()
    assert buchberger_verify(pres0.relations()).ok


def test_buchberger_passes_on_random_samples():
    rng = random.Random(424242)
    for _ in range(20):
        assert buchberger_verify(universal_relations(random_params(rng))).ok


def hand_normal_presentation(params):
    """The normalized presentation of numeric params, its c's written out."""
    ring = coefficient_f_ring()
    f = ring.var("f")
    q1, q20, q21, q30, q31 = (ring.const(v) for v in params.astuple())
    return GeneralPresentation(
        p1=f, p2=-q1, p3=ring.zero(), q1=q1, q2=q20 + q21 * f, q3=q30 + q31 * f + f * f,
        c1=2 * q1 * q1 + q20 * f + q21 * f * f,
        c2=q1 * q20 + (q30 + q1 * q21) * f + q31 * f * f + f ** 3,
        c3=(q20 * q20 - 2 * q1 * q30) + (2 * q20 * q21 - 2 * q1 * q31) * f + (q21 * q21 - 2 * q1) * f * f,
    )


def fit_series():
    """The section series of every zoo case at 5, -3/2 and inf (tangent 1),
    where h1(2p) = 0."""
    out = []
    for case in ZOO_IDS:
        for point in (Fraction(5), Fraction(-3, 2), INF):
            cur = zoo(case, marked=(MarkedPoint("c0", point, Fraction(1)),))
            if h0(cur, Divisor.of({"p0": 2})).dimension == 1:
                out.append(section_series(cur, "p0"))
    return out


def scrambled(series, rng):
    """The series in a random gauge: f + s, h + a + b f, k + d h + e + e' f."""
    sf, sh, sk = series
    one = LaurentSeries.monomial(sf.var, 0, 1, cut=sf.cut)

    def rnd():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    sf2 = sf + one.scale(rnd())
    sh2 = sh + one.scale(rnd()) + sf2.scale(rnd())
    return sf2, sh2, sk + sh2.scale(rnd()) + one.scale(rnd()) + sf2.scale(rnd())


def test_normalize_identity_fixed_point():
    # series already in the normalized generators are their own normal form
    for series in fit_series()[::4]:
        params, normalized = ref.normalized_series(*series)
        pres = presentation_from_series(*normalized)
        assert pres.is_normalized() and pres == hand_normal_presentation(params) == normal_presentation(params)
        assert normalize_presentation(*normalized) == pres
        assert pres.parameters() == params


def test_normalization_matches_the_reference():
    # the gauge moving the series against the reference's gauge on the
    # presentation: every zoo case at three places and three tangents, and
    # ten scrambled series
    compared = 0
    for case in ZOO_IDS:
        for point in (Fraction(5), Fraction(-3, 2), INF):
            for tangent in (Fraction(1), Fraction(2), Fraction(-1, 2)):
                cur = zoo(case, marked=(MarkedPoint("c0", point, tangent),))
                if h0(cur, Divisor.of({"p0": 2})).dimension != 1:
                    continue
                series = section_series(cur, "p0")
                expected, _ = ref.normalize_presentation(presentation_from_series(*series))
                assert normalize_presentation(*series) == expected, (case, point, tangent)
                compared += 1
    assert compared == 69
    rng = random.Random(31337)
    for series in fit_series()[:10]:
        series = scrambled(series, rng)
        expected, _ = ref.normalize_presentation(presentation_from_series(*series))
        assert normalize_presentation(*series) == expected


def test_normalize_round_trip_recovers_parameters():
    rng = random.Random(99)
    params, normalized = ref.normalized_series(*section_series(zoo("Ib"), "p0"))
    for _ in range(10):
        assert normalize_presentation(*scrambled(normalized, rng)).parameters() == params


def test_presentation_matches_the_reference():
    # every zoo case at three places, each at two tangents; a Weierstrass
    # point has no section series to compare
    compared = 0
    for case in ZOO_IDS:
        for point in (Fraction(5), Fraction(-3, 2), INF):
            for tangent in (Fraction(1), Fraction(-2, 3)):
                cur = zoo(case, marked=(MarkedPoint("c0", point, tangent),))
                if h0(cur, Divisor.of({"p0": 2})).dimension != 1:
                    continue
                series = section_series(cur, "p0")
                assert presentation_from_series(*series) == ref.presentation_from_series(*series), case
                compared += 1
    assert compared == 46


def test_presentation_off_the_span_raises_as_the_reference_does():
    sf, sh, sk = section_series(zoo("Ia"), "p0")
    for k in (-3, -1, 1, 4, 11, 18):
        bad = sk + LaurentSeries.monomial(sk.var, k, Fraction(1, 7), cut=sk.cut)
        with pytest.raises(InternalInconsistencyError) as expected:
            ref.presentation_from_series(sf, sh, bad)
        with pytest.raises(InternalInconsistencyError) as got:
            presentation_from_series(sf, sh, bad)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("pole-8 product does not lie on the section basis: residual ")


def fitted_relations_vanish(cur, pid):
    """The fit's parameters are the reference's, and their relations vanish
    on the section series in the reference's normalized generators."""
    params, normalized = ref.normalized_series(*section_series(cur, pid))
    return fit_parameters(cur, pid) == params and ref.relations_vanish(params, normalized)


def test_fit_deep_cusp_is_origin():
    cur = zoo("ccusp2")
    params = fit_parameters(cur, "p0")
    assert params == G2Params.zero()
    assert fitted_relations_vanish(cur, "p0")


def test_fit_two_node_curve_generic_point():
    cur = zoo("Ia")
    params = fit_parameters(cur, "p0")
    assert params.base_ring() is None
    assert buchberger_verify(universal_relations(params)).ok
    assert fitted_relations_vanish(cur, "p0")
    assert any(v != 0 for v in params.astuple())


def test_fit_every_zoo_case_at_generic_point():
    from nsc.zoo import ZOO_IDS

    for case in ZOO_IDS:
        params = fit_parameters(zoo(case), "p0")
        assert buchberger_verify(universal_relations(params)).ok, case
        assert fitted_relations_vanish(zoo(case), "p0"), case


def test_fit_rejects_weierstrass_point():
    from nsc.errors import CohomologyError

    cur = zoo("IIc-C0")  # p1 at infinity is the special point
    message = r"^marked point is a Weierstrass-type point: h1\(2p\) != 0, no fit exists$"
    with pytest.raises(CohomologyError, match=message):
        fit_parameters(cur, "p1")


def test_fit_equivariance_under_tangent_rescale():
    cur = zoo("Ia")
    base = fit_parameters(cur, "p0")
    for c in (Fraction(2), Fraction(-1, 2)):
        scaled = fit_parameters(rescale_tangent(cur, "p0", c), "p0")
        assert scaled.q21 == c ** 2 * base.q21
        assert scaled.q31 == c ** 3 * base.q31
        assert scaled.q1 == c ** 4 * base.q1
        assert scaled.q20 == c ** 5 * base.q20
        assert scaled.q30 == c ** 6 * base.q30


def test_fit_gauge_independence():
    cur = zoo("Ib")
    pid = "p0"
    sf, sh, sk = section_series(cur, pid)
    baseline = normalize_presentation(sf, sh, sk).parameters()
    one = type(sf).monomial(sf.var, 0, 1, cut=sf.cut)
    # allowed ambiguity: f += const, h += a + b f, k += d h + e0 + e1 f
    sf2 = sf + one.scale(Fraction(3, 2))
    sh2 = sh + one.scale(Fraction(-2)) + sf2.scale(Fraction(1, 3))
    sk2 = sk + sh2.scale(Fraction(5)) + one.scale(Fraction(7)) + sf2.scale(Fraction(-1, 4))
    other = normalize_presentation(sf2, sh2, sk2).parameters()
    assert other == baseline


def test_presentation_rejects_bad_shapes():
    ring = coefficient_f_ring()
    f = ring.var("f")
    with pytest.raises(ValidationError):
        GeneralPresentation(
            p1=2 * f, p2=ring.zero(), p3=ring.zero(), q1=ring.zero(),
            q2=ring.zero(), q3=f * f, c1=ring.zero(), c2=f ** 3, c3=ring.zero(),
        )
