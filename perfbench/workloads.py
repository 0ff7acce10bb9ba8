"""The benchmark's three workloads: their inputs, jobs and output checks.

Set-up builds a workload's job list from the seed; the package only ever sees
the generated inputs.  A job has

* a key that names its inputs; reference hashes are looked up by it,
* ``run``, the timed call into the package,
* ``render``, untimed, turning the result into canonical text (its SHA-256 is
  what the reference and the determinism check compare),
* ``oracle``, run once per key after the timed phase: an independent check of
  the text by a second route, returning the problems it found.

Jobs call the package through ``lib`` attributes at call time, so the traced
run's wrappers are the functions they reach.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("recursion", "canonical", "queries")

# The batch workloads have odd job counts and jobs spread out in cost, so that
# the median and the 90th percentile job latency each fall inside the samples
# of one job (or of jobs of about equal cost), not between two unequal ones.

# recursion: (genus, stage depth d) runs run_recursion(g, g + d, d).  The grid
# is cheap at small d; (3, 8) and the ROADMAP anchor (6, 12) carry the depth.
RECURSION_GRID = tuple((g, d) for d in (2, 3, 4, 5, 6) for g in (2, 4, 6, 8)) + ((3, 8), (6, 12))
CLOSED_FORM_GENERA = tuple(range(2, 17))

# canonical: canonical_parameter on ccusp<a> with m_max = a + 6 and on glued
# cusp pairs, where the section solve dominates; alpha_beta, whose series
# substitutions dominate, only at small a.
CANONICAL_CUSPS = (8, 10, 12, 16, 20, 24)
ALPHA_BETA_CUSPS = (4, 8, 12)
GLUED_CUSPS = ((2, 3), (3, 5), (4, 4), (5, 7))

# queries: spec files per zoo case, jobs in the stream, and the fixed jobs
# interleaved with it.
SPECS_PER_CASE = 6
SUITES = ("buchberger", "grading", "zoo-genus", "c0", "ab-equivalence")
# Divisor multiplicities stay in [-1, 6]: h0 work grows with the multiplicity
# and the CLI does not bound it yet.
MULTIPLICITIES = tuple(range(-1, 7))
TANGENTS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))
# Jobs per round for each CLI operation.  The counts, the zoo cases, the
# divisors, the points asked about and the m-max values are spread evenly, so
# the seed moves the cost of a round little; it draws the marked points and
# tangents, which variant of a case each job uses, and the order.
OPERATIONS = (("genus", 24), ("h0", 144), ("h1", 144), ("alphabeta", 32), ("canonical", 32), ("fit", 32))
M_MAX = (6, 8)  # for curve canonical; 6 is the CLI default for genus 2


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    render: Callable[[object], str]
    oracle: Callable[[str], list]


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _fmt(x) -> str:
    return "inf" if not isinstance(x, Fraction) else str(x)


def expected_s1(g: int) -> Fraction:
    """s_{g+1,1} in closed form, written out here independently of the package."""
    return Fraction(-(2 * g + 1), 2 * (g + 1))


def expected_s2(g: int) -> Fraction:
    return Fraction(4 * g + 2, 3 * (g + 1) ** 2)


def _closed_form_problems(g: int, s1, s2) -> list:
    problems = []
    if Fraction(s1) != expected_s1(g):
        problems.append(f"s_{g + 1},1 = {s1}, closed form {expected_s1(g)}")
    if Fraction(s2) != expected_s2(g):
        problems.append(f"s_{g + 1},2 = {s2}, closed form {expected_s2(g)}")
    return problems


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------

def recursion_jobs(lib, rng, workdir, grid=RECURSION_GRID, genera=CLOSED_FORM_GENERA):
    """The fixed recursion job list; the seed only permutes it, per round."""
    return [_recursion_job(lib, g, d) for g, d in grid] + [_closed_form_job(lib, g) for g in genera]


def _recursion_job(lib, g, d):
    def run():
        return lib.normalform.run_recursion(g, g + d, d)

    def render(result):
        monomials = lib.normalform.correction_monomial_check(result)
        return _dumps({"s_table": result.s_table.to_jsonable(), "monomial_check": monomials.to_jsonable()})

    def oracle(text):
        doc = json.loads(text)
        values = {(e["m"], e["j"]): e["value"] for e in doc["s_table"]["entries"]}
        problems = _closed_form_problems(g, values[(g + 1, 1)], values[(g + 1, 2)])
        if doc["monomial_check"]["status"] != "pass":
            problems.append(f"correction_monomial_check: {doc['monomial_check']['failures']}")
        return problems

    return Job(f"run_recursion({g},{g + d},{d})", run, render, oracle)


def _closed_form_job(lib, g):
    def oracle(text):
        doc = json.loads(text)
        problems = _closed_form_problems(g, doc["computed"]["s_g+1_1"], doc["computed"]["s_g+1_2"])
        return problems + ([] if doc["status"] == "pass" else ["status is not pass"])

    return Job(f"closed_form_check({g})", lambda: lib.normalform.closed_form_check(g),
               lambda report: _dumps(report.to_jsonable()), oracle)


# ---------------------------------------------------------------------------
# canonical
# ---------------------------------------------------------------------------

def _draw_point(rng, avoid):
    while True:
        p = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if p not in avoid:
            return p


def _h1_problems(lib, curve, mapping) -> tuple:
    """(h1, problems): h1 through h0 and Riemann-Roch against the corank of
    the constraint matrix."""
    divisor = lib.curves.Divisor.of(mapping)
    h1 = lib.curves.h1(curve, divisor)
    corank = lib.curves.h1_corank(curve, divisor)
    problems = [] if h1 == corank else [f"h1{mapping} = {h1} but h1_corank = {corank}"]
    return h1, problems


def _alpha_beta_problems(lib, curve, i, g, alpha, beta) -> list:
    """alpha != 0 iff h1(g p_i) = 0, and (alpha, beta) != 0 iff h1((g+1) p_i) = 0."""
    h1_g, problems = _h1_problems(lib, curve, {i: g})
    h1_g1, more = _h1_problems(lib, curve, {i: g + 1})
    problems += more
    if (alpha != 0) != (h1_g == 0):
        problems.append(f"alpha = {alpha} but h1({g}*{i}) = {h1_g}")
    if ((alpha, beta) != (0, 0)) != (h1_g1 == 0):
        problems.append(f"(alpha, beta) = ({alpha}, {beta}) but h1({g + 1}*{i}) = {h1_g1}")
    return problems


def _coefficients(pc) -> dict:
    return {str(e): str(pc.coefficient(e)) for e in range(2, pc.order())}


def canonical_jobs(lib, rng, workdir, cusps=CANONICAL_CUSPS, alpha_beta=ALPHA_BETA_CUSPS, glued=GLUED_CUSPS):
    """canonical_parameter on ccusp<a> and on glued cusp pairs, and alpha_beta
    on ccusp<a> with a second marked point and tangent drawn from the seed."""
    jobs = [_cusp_canonical_job(lib, a) for a in cusps]
    for a in alpha_beta:
        point, tangent = _draw_point(rng, {Fraction(0)}), rng.choice(TANGENTS)
        jobs.append(_cusp_alpha_beta_job(lib, a, point, tangent))
    return jobs + [_glued_job(lib, a1, a2) for a1, a2 in glued]


def _cusp(lib, a, point=Fraction(1), tangent=Fraction(1)):
    c = lib.curves
    return lib.zoo.zoo(f"ccusp{a}", marked=(c.MarkedPoint("c0", c.INF, Fraction(1), a),
                                           c.MarkedPoint("c0", point, tangent, None)))


def _cusp_canonical_job(lib, a):
    m_max = a + 6

    def oracle(_text):
        cur = _cusp(lib, a)
        return [p for m in (a + 1, m_max) for p in _h1_problems(lib, cur, {"p0": m})[1]]

    return Job(f"canonical_parameter(ccusp{a},p0,m_max={m_max})",
               lambda: lib.sections.canonical_parameter(_cusp(lib, a), {"p0": a}, "p0", m_max),
               lambda pc: _dumps(_coefficients(pc)), oracle)


def _cusp_alpha_beta_job(lib, a, point, tangent):
    def oracle(text):
        doc = json.loads(text)
        return _alpha_beta_problems(lib, _cusp(lib, a, point, tangent), "p0", a,
                                    Fraction(doc["alpha"]), Fraction(doc["beta"]))

    return Job(f"alpha_beta(ccusp{a},p1={point}@{tangent})",
               lambda: lib.sections.alpha_beta(_cusp(lib, a, point, tangent)),
               lambda ab: _dumps({"alpha": str(ab[0]), "beta": str(ab[1])}), oracle)


def _glued_job(lib, a1, a2):
    weights = {"p0": a1, "p1": a2}
    m_max = a1 + a2 + 4

    def oracle(text):
        # every section of the weighted divisors is a monomial at the marked
        # points, so the canonical parameter is the identity
        nonzero = {e: c for e, c in json.loads(text).items() if Fraction(c)}
        problems = [f"nonzero coefficients {nonzero}"] if nonzero else []
        return problems + _h1_problems(lib, lib.zoo.glued_cusps(a1, a2), weights)[1]

    return Job(f"canonical_parameter(glued_cusps({a1},{a2}),p0,m_max={m_max})",
               lambda: lib.sections.canonical_parameter(lib.zoo.glued_cusps(a1, a2), weights, "p0", m_max),
               lambda pc: _dumps(_coefficients(pc)), oracle)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _cli_run(lib, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return code, out.getvalue()
    return run


def _cli_render(result) -> str:
    code, out = result
    return _dumps({"exit": code, "stdout": out})


def _cli_doc(text):
    doc = json.loads(text)
    return doc["exit"], json.loads(doc["stdout"])


def _suite_job(lib, name):
    def oracle(text):
        code, doc = _cli_doc(text)
        return [] if code == 0 and doc["status"] == "pass" else [f"suite {name}: exit {code}, {doc['status']}"]
    return Job(f"verify --suite {name}", _cli_run(lib, ["verify", "--suite", name]), _cli_render, oracle)


def _desk_job(lib):
    def render(report):
        return _dumps({"passed": report.passed, "report": report.to_jsonable()})
    return Job("contraction_point_report()", lambda: lib.deskcheck.contraction_point_report(), render,
               lambda text: [] if json.loads(text)["passed"] else ["desk check failed"])


def _make_specs(lib, rng, workdir):
    """SPECS_PER_CASE spec files per zoo case, with two seeded marked points
    off the branch points; returns [(name, path, curve)]."""
    c = lib.curves
    specs = []
    for case in lib.zoo.ZOO_IDS:
        base = lib.zoo.zoo(case)
        branch_points = {br.point for s in base.singularities for br in s.branches}
        for k in range(SPECS_PER_CASE):
            p0 = _draw_point(rng, branch_points)
            p1 = c.INF if k == 0 else _draw_point(rng, branch_points | {p0})
            marks = tuple(c.MarkedPoint("c0", p, rng.choice(TANGENTS), None) for p in (p0, p1))
            curve = c.CurveModel(base.components, base.singularities, marks)
            name = f"{case}[" + ",".join(f"{_fmt(m.point)}@{m.tangent}" for m in marks) + "]"
            path = Path(workdir) / f"{case}-{k}.json"
            lib.curveio.dump_curve(curve, str(path))
            specs.append((name, str(path), curve))
    return specs


def _divisor_text(n0, n1) -> str:
    return f"{n0}*p0" + (f"+{n1}*p1" if n1 >= 0 else f"{n1}*p1")


def _query_jobs(lib, rng, specs, op, count):
    """``count`` jobs of one operation, cycling through the zoo cases."""
    cases = [specs[i:i + SPECS_PER_CASE] for i in range(0, len(specs), SPECS_PER_CASE)]
    divisors = [(n0, n1) for n0 in MULTIPLICITIES for n1 in MULTIPLICITIES]
    divisors = rng.sample(divisors * -(-count // len(divisors)), count)
    jobs = []
    for k in range(count):
        name, path, curve = rng.choice(cases[k % len(cases)])
        pid = ("p0", "p1")[k // len(cases) % 2]
        if op == "genus":
            extra, oracle = [], _genus_oracle
        elif op in ("h0", "h1"):
            mapping = dict(zip(("p0", "p1"), divisors[k]))
            extra = ["--divisor=" + _divisor_text(*divisors[k])]  # "=": the text may start with "-"
            oracle = (_h0_oracle if op == "h0" else _h1_oracle)(mapping)
        elif op == "canonical":
            m_max = M_MAX[k // (2 * len(cases)) % len(M_MAX)]
            extra = ["--point", pid] + ([] if m_max == M_MAX[0] else ["--m-max", str(m_max)])
            oracle = _canonical_oracle(pid, m_max)
        else:
            extra = ["--point", pid]
            oracle = (_alphabeta_oracle if op == "alphabeta" else _fit_oracle)(pid)
        jobs.append(Job(" ".join(["curve", op, name] + extra), _cli_run(lib, ["curve", op, path] + extra),
                        _cli_render, lambda text, oracle=oracle, curve=curve: oracle(lib, curve, *_cli_doc(text))))
    return jobs


def _genus_oracle(lib, curve, code, doc):
    return [] if code == 0 and doc["payload"]["genus"] == 2 else [f"genus: exit {code}, {doc['payload']}"]


def _h0_oracle(mapping):
    def oracle(lib, curve, code, doc):
        if code != 0:
            return [f"h0 exit {code}"]
        dim = doc["payload"]["dimension"]
        corank = lib.curves.h1_corank(curve, lib.curves.Divisor.of(mapping))
        problems = [] if len(doc["payload"]["basis"]) == dim else ["basis length differs from dimension"]
        if dim - sum(mapping.values()) - 1 + 2 != corank:
            problems.append(f"h0{mapping} = {dim} gives h1 != h1_corank = {corank}")
        return problems
    return oracle


def _h1_oracle(mapping):
    def oracle(lib, curve, code, doc):
        if code != 0:
            return [f"h1 exit {code}"]
        corank = lib.curves.h1_corank(curve, lib.curves.Divisor.of(mapping))
        h1 = doc["payload"]["h1"]
        return [] if h1 == corank else [f"h1{mapping} = {h1}, h1_corank = {corank}"]
    return oracle


def _special_expected(lib, curve, mapping, code) -> list:
    """A section solve on a special divisor must end in a usage error (exit 2)."""
    h1, problems = _h1_problems(lib, curve, mapping)
    expected = 0 if h1 == 0 else 2
    return problems + ([] if code == expected else [f"exit {code}, expected {expected} as h1{mapping} = {h1}"])


def _alphabeta_oracle(pid):
    def oracle(lib, curve, code, doc):
        problems = _special_expected(lib, curve, {"p0": 1, "p1": 1}, code)
        if code == 0 and not problems:
            p = doc["payload"]
            problems += _alpha_beta_problems(lib, curve, pid, 2, Fraction(p["alpha"]), Fraction(p["beta"]))
        return problems
    return oracle


def _canonical_oracle(pid, m_max):
    # the CLI's default weights put the whole genus on the point: h1(2p) = 0 needed
    def oracle(lib, curve, code, doc):
        return _special_expected(lib, curve, {pid: 2}, code) + _h1_problems(lib, curve, {pid: m_max})[1]
    return oracle


def _fit_oracle(pid):
    # fit needs a non-Weierstrass point: h1(2p) = 0
    return lambda lib, curve, code, doc: _special_expected(lib, curve, {pid: 2}, code)


def queries_jobs(lib, rng, workdir, operations=OPERATIONS, suites=SUITES, desk=True):
    """A seeded stream of small CLI jobs on seeded spec files, with the fixed
    verify suites and the desk check interleaved."""
    specs = _make_specs(lib, rng, workdir)
    jobs = [job for op, count in operations for job in _query_jobs(lib, rng, specs, op, count)]
    jobs += [_suite_job(lib, name) for name in suites] + ([_desk_job(lib)] if desk else [])
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {"recursion": recursion_jobs, "canonical": canonical_jobs, "queries": queries_jobs}
