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
    RELATION_DEGREES,
    buchberger_verify,
    fit_parameters,
    solve_c,
    universal_relations,
)
from .normalform import closed_form_check
from .rational import INTEGER, format_rational
from .sections import alpha_beta, rescale_tangent
from .zoo import ZOO_IDS, zoo

SUITE_NAMES = ("closed-forms", "buchberger", "grading", "zoo-genus", "c0", "ab-equivalence")


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


def suite_buchberger(perturb: str | None = None):
    payload = {"suite": "buchberger"}
    rels = universal_relations(G2Params.symbolic())
    if perturb is not None:
        if perturb not in ("c1", "c2", "c3"):
            raise ValidationError("perturb must be one of c1, c2, c3")
        which = int(perturb[1]) - 1
        perturbed = list(rels.relations)
        perturbed[which] = perturbed[which] + 1
        rels = type(rels)(rels.ring, tuple(perturbed))
        payload["perturbed"] = perturb
    cert = buchberger_verify(rels)
    payload["symbolic"] = cert.to_jsonable()
    ok = cert.ok
    if perturb is None:
        # the three single-coefficient perturbations must each break a reduction
        broken = {}
        for name, which in (("c1", 0), ("c2", 1), ("c3", 2)):
            alt = list(universal_relations(G2Params.symbolic()).relations)
            alt[which] = alt[which] + 1
            broken[name] = not buchberger_verify(type(rels)(rels.ring, tuple(alt))).ok
        payload["perturbations_fail"] = broken
        ok = ok and all(broken.values())
        report = solve_c()
        payload["solve_c"] = {
            "status": "pass" if report.ok else "fail",
            "closed_forms": {k: str(v) for k, v in report.closed_forms.items()},
            "residuals": [str(r) for r in report.residuals],
        }
        ok = ok and report.ok
    return ok, payload


def suite_grading():
    rels = universal_relations(G2Params.symbolic())
    degrees_ok = all(r.is_homogeneous(d) for r, d in zip(rels.relations, RELATION_DEGREES))
    cur = zoo("Ia")
    base = fit_parameters(cur, "p0")
    scaled = fit_parameters(rescale_tangent(cur, "p0", Fraction(2)), "p0")
    weights = {"q21": 2, "q31": 3, "q1": 4, "q20": 5, "q30": 6}
    equivariant = {
        name: getattr(scaled, name) == Fraction(2) ** w * getattr(base, name)
        for name, w in weights.items()
    }
    ok = degrees_ok and all(equivariant.values())
    return ok, {
        "suite": "grading",
        "relation_degrees": list(RELATION_DEGREES),
        "homogeneous": degrees_ok,
        "tangent_rescale_2": {k: bool(v) for k, v in equivariant.items()},
    }


def _delta_stable(cur) -> bool:
    """Every delta invariant is unchanged when read at two more jet orders."""
    return all(
        delta_invariant(cur, s) == delta_invariant(cur, s, s.jet_order + 2)
        for s in cur.singularities
    )


def suite_zoo_genus():
    cases = {}
    ok = True
    for case in ZOO_IDS:
        cur = zoo(case)
        g = arithmetic_genus(cur)
        stable = _delta_stable(cur)
        cases[case] = {"genus": g, "delta_stable": stable}
        ok = ok and g == 2 and stable
    family = {}
    for a in range(1, 9):
        cur = zoo(f"ccusp{a}")
        g = arithmetic_genus(cur)
        stable = _delta_stable(cur)
        family[f"ccusp{a}"] = {"genus": g, "delta_stable": stable}
        ok = ok and g == a and stable
    return ok, {"suite": "zoo-genus", "cases": cases, "family": family}


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


def suite_ab_equivalence(minimum: int = 20):
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
    ok = ok and checked >= minimum
    return ok, {"suite": "ab-equivalence", "configurations": checked, "rows": rows}


def run_suite(name: str, genus_range=None, perturb: str | None = None):
    if name == "closed-forms":
        return suite_closed_forms(genus_range or range(2, 13))
    if name == "buchberger":
        return suite_buchberger(perturb)
    if name == "grading":
        return suite_grading()
    if name == "zoo-genus":
        return suite_zoo_genus()
    if name == "c0":
        return suite_c0()
    if name == "ab-equivalence":
        return suite_ab_equivalence()
    raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
