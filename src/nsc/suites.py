"""Named verification suites behind `nsc verify`.

Each suite returns (ok, payload); payloads are JSON-ready with exact rational
strings, so the CLI stays a thin shell and tests can drive the suites
directly.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from .curves import INF, Divisor, MarkedPoint, _h0_dimension, arithmetic_genus, delta_invariant, h0, h1
from .errors import ValidationError
from .genus2 import (
    G2Params,
    Q_VARIABLES,
    Q_WEIGHTS,
    RELATION_DEGREES,
    buchberger_verify,
    fit_parameters,
    format_fhk,
    solve_c,
    universal_relations,
)
from .normalform import closed_form_check
from .rational import INTEGER, format_rational
from .sections import alpha_beta, rescale_tangent
from .zoo import ZOO_IDS, zoo

PERTURBATIONS = ("c1", "c2", "c3")


def parse_genus_range(text: str):
    m = re.fullmatch(rf"({INTEGER})\.\.({INTEGER})", text)
    a, b = (int(m[1]), int(m[2])) if m else (0, 0)
    if a < 2 or b < a:
        raise ValidationError(f"--genus-range: expected A..B in ASCII digits with 2 <= A <= B, as in 2..12, "
                              f"got {text!r}")
    return range(a, b + 1)


def suite_closed_forms(genus_range=range(2, 13)):
    reports = [closed_form_check(g) for g in genus_range]
    ok = all(r.passed for r in reports)
    return ok, {"suite": "closed-forms", "reports": [r.to_jsonable() for r in reports]}


def _perturbed(rels, name: str):
    """The relations with 1 added to c_i, for the perturbation named c_i."""
    alt = list(rels.relations)
    alt[PERTURBATIONS.index(name)] += 1
    return type(rels)(rels.ring, tuple(alt))


def suite_buchberger(perturb: str | None = None):
    rels = universal_relations(G2Params.symbolic())
    if perturb is not None:
        if perturb not in PERTURBATIONS:
            raise ValidationError(f"perturb must be one of {', '.join(PERTURBATIONS)}")
        cert = buchberger_verify(_perturbed(rels, perturb))
        return cert.ok, {"suite": "buchberger", "perturbed": perturb, "symbolic": cert.to_jsonable()}
    cert = buchberger_verify(rels)
    # the single-coefficient perturbations must each break a reduction
    broken = {name: not buchberger_verify(_perturbed(rels, name)).ok for name in PERTURBATIONS}
    report = solve_c()
    ok = cert.ok and all(broken.values()) and report.ok
    return ok, {
        "suite": "buchberger",
        "symbolic": cert.to_jsonable(),
        "perturbations_fail": broken,
        "solve_c": {
            "status": "pass" if report.ok else "fail",
            "closed_forms": {k: format_fhk(v) for k, v in report.closed_forms.items()},
            "residuals": [str(r) for r in report.residuals],
        },
    }


def suite_grading():
    rels = universal_relations(G2Params.symbolic())
    degrees_ok = all(r.is_homogeneous(d) for r, d in zip(rels.relations, RELATION_DEGREES))
    cur = zoo("Ia")
    base = fit_parameters(cur, "p0")
    scaled = fit_parameters(rescale_tangent(cur, "p0", Fraction(2)), "p0")
    equivariant = {
        name: getattr(scaled, name) == Fraction(2) ** w * getattr(base, name)
        for name, w in zip(Q_VARIABLES, Q_WEIGHTS)
    }
    ok = degrees_ok and all(equivariant.values())
    return ok, {
        "suite": "grading",
        "relation_degrees": list(RELATION_DEGREES),
        "homogeneous": degrees_ok,
        "tangent_rescale_2": {k: bool(v) for k, v in equivariant.items()},
    }


def suite_zoo_genus():
    """Each zoo case has genus 2 and ccusp<a> genus a, and every delta
    invariant is unchanged when read at two more jet orders."""
    payload = {"suite": "zoo-genus", "cases": {}, "family": {}}
    ok = True
    runs = [("cases", case, 2) for case in ZOO_IDS] + [("family", f"ccusp{a}", a) for a in range(1, 9)]
    for group, case, genus in runs:
        cur = zoo(case)
        g = arithmetic_genus(cur)
        stable = all(delta_invariant(cur, s) == delta_invariant(cur, s, s.jet_order + 2)
                     for s in cur.singularities)
        payload[group][case] = {"genus": g, "delta_stable": stable}
        ok = ok and g == genus and stable
    return ok, payload


def suite_c0():
    sample_points = [Fraction(1), Fraction(2), Fraction(-1), Fraction(7, 2), Fraction(-5, 3)]
    results = []
    ok = True
    for t in sample_points:
        cur = zoo("IIc-C0", marked=(
            MarkedPoint("c0", t, Fraction(1), None),
            MarkedPoint("c0", INF, Fraction(1), None),
        ))
        d = _h0_dimension(cur, Divisor.of({"p0": 2}))
        results.append({"point": format_rational(t), "h0_2p": d})
        ok = ok and d == 1
    cur = zoo("IIc-C0")
    res = h0(cur, Divisor.of({"p1": 2}))
    basis = sorted(str(f) for f in res.basis)
    at_inf = {"h0_2p_inf": res.dimension, "basis": basis}
    ok = ok and res.dimension == 2 and basis == ["c0: 1", "c0: t^2"]
    return ok, {"suite": "c0", "generic_points": results, "infinity": at_inf}


def suite_ab_equivalence():
    rng = random.Random(60422)
    spots = [Fraction(x) for x in (5, 7, -2, 11, 13)] + [Fraction(9, 2), Fraction(-7, 3)]
    rows = []
    ok = True
    checked = 0
    for case in ZOO_IDS:
        for trial in range(4):
            pts = rng.sample(spots, 2)
            marks = (
                MarkedPoint("c0", INF if (case == "IIc-C0" and trial % 2) else pts[0], Fraction(1), None),
                MarkedPoint("c0", pts[1], Fraction(1), None),
            )
            cur = zoo(case, marked=marks)
            if h1(cur, Divisor.of({"p0": 1, "p1": 1})) != 0:
                continue
            alpha, beta = alpha_beta(cur)
            h1_2 = h1(cur, Divisor.of({"p0": 2}))
            h1_3 = h1(cur, Divisor.of({"p0": 3}))
            first = (alpha != 0) == (h1_2 == 0)
            second = ((alpha, beta) != (0, 0)) == (h1_3 == 0)
            rows.append({
                "case": case,
                "alpha": format_rational(alpha),
                "beta": format_rational(beta),
                "h1_2p1": h1_2,
                "h1_3p1": h1_3,
                "equivalences_hold": first and second,
            })
            ok = ok and first and second
            checked += 1
    ok = ok and checked >= 20
    return ok, {"suite": "ab-equivalence", "configurations": checked, "rows": rows}


# suite name -> (its function, the `nsc verify` options it reads), in the
# order `nsc verify` lists them; run_suite passes a suite those of its options
# that are given
SUITES = {
    "closed-forms": (suite_closed_forms, ("genus_range",)),
    "buchberger": (suite_buchberger, ("perturb",)),
    "grading": (suite_grading, ()),
    "zoo-genus": (suite_zoo_genus, ()),
    "c0": (suite_c0, ()),
    "ab-equivalence": (suite_ab_equivalence, ()),
}
SUITE_NAMES = tuple(SUITES)
OPTIONS = ("perturb", "genus_range")  # in the order their misuse is reported


def check_options(name: str, options: dict) -> None:
    """Refuse a given option (one that is not None) that the suite's row does
    not list, naming the suites that read it."""
    reads = SUITES[name][1]
    for option in OPTIONS:
        if options.get(option) is not None and option not in reads:
            owners = [suite for suite, (_, r) in SUITES.items() if option in r]
            raise ValidationError(f"--{option.replace('_', '-')} applies to --suite {' or '.join(owners)} only")
    unknown = sorted(set(options) - set(OPTIONS))
    if unknown:
        raise ValidationError(f"unknown suite option {unknown[0]!r}; choose from {', '.join(OPTIONS)}")


def run_suite(name: str, **options):
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    check_options(name, options)
    suite, reads = SUITES[name]
    return suite(**{k: options[k] for k in reads if options.get(k) is not None})
