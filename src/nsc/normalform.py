"""Leading-polar-term recursion for the canonical parameter at a moving point.

The paper's model works over Q[lam] with lam a graded indeterminate of
weight 1, the weight of the G_m action behind the stack's weights.  Every
value of the recursion is homogeneous, so its degree is fixed by where it
sits: the coefficient at u^e of f[-m] has degree m+e, the stage-n pole
coefficient and correction degree n-1, the subtraction multiplier p_i degree
i, and the parameter change's coefficient at u^e degree e-1.  The degree
carries nothing the indices do not, so the recursion runs over Q at lam = 1,
on `LaurentSeries` of integer numerators over one denominator, and reads
each value as the rational r of r*lam^degree.  The inputs are the filtration
representatives

    F[-(g+1)] = t^-(g+1) - lam * t^-g,      F[-m] = t^-m   (m >= g+2),

and the recursion alternates two moves: a tangent-preserving parameter
correction u_{n-1} = u_n + (c/(g+n-1)) u_n^n killing the u^-g coefficient of
the previously built series, and a subtraction of earlier normal forms killing
every exponent strictly between -(g+n) and -g.  The output normal forms have
the shape u^-m + sum_j s_{m,j} lam^(m-g+j) u^(-g+j); the rational constants
s_{m,j} are the coefficient table.  F[-(g+n)] = t^-(g+n) is t^-(g+n-1) * t^-1,
both carried through every correction step: one series product per stage.
A stage's subtraction is one `series_reduce` of t^-(g+n) against
f[-(g+n-1)], ..., f[-(g+1)] at the exponents -(g+n-1), ..., -(g+1): each
lead is 1 at its exponent, so the multipliers p_1 .. p_(n-1) are the
coefficients read there, and all of them are subtracted on one list of
integer numerators.

The parameter change t = u + ... is not carried: t^-1 is known on
[-1, S-1), S the number of stages, and its inverse is t on [1, S+1), read
off once at the end.

A table entry for (m, j) only becomes final once the recursion has run past
stage m-g+j+1 (later corrections first disturb exponent -m+n-1), so the
recursion internally runs (m_max-g) + j_max + 1 stages and reports exactly the
stable window.  The last j_max + 1 stages build f[-m] for m > m_max, which is
never reported: the next stage reads it at u^-g for its correction, and
later stages subtract it only from f[-m'] with m' > m_max, reading their
multipliers below u^-g.  So those series are built on [-m, -g+1) instead of
[-m, cut), by cutting the stage's t^-(g+n) at -g+1 before the subtraction.
That is sound because they only pass through corrections, which map u^e to
exponents >= e, and subtractions, which read each coefficient at its own
exponent: below u^(-g+1) they agree with the series on the long window.

`correction_monomial_check` checks the grading by a second route, the torus
action lam -> 2*lam: a run from lam = 2 must scale each value by 2^degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, ValidationError
from .laurent import LaurentSeries, ParamChange, series_reduce, series_substitute
from .rational import format_rational


@dataclass(frozen=True)
class StageRecord:
    """One recursion stage n: the read pole coefficient, the correction and
    the subtraction multipliers, as rationals r of r*lam^degree: degree n-1
    for the first two, i for p_i."""

    n: int
    pole_coefficient: Fraction | None  # c read at u^-g before correcting
    correction: Fraction | None        # c/(g+n-1), coefficient of u_n^n
    multipliers: tuple  # p_1 .. p_{n-1} used to build f[-(g+n)]


@dataclass(frozen=True)
class STable:
    """Map (m, j) -> s_{m,j}: the rational with coefficient-of-u^(-g+j) in
    f[-m] equal to s_{m,j} * lam^(m-g+j)."""

    genus: int
    entries: dict

    def value(self, m: int, j: int) -> Fraction:
        return self.entries[(m, j)]

    def to_jsonable(self) -> dict:
        return {
            "genus": self.genus,
            "entries": [
                {"m": m, "j": j, "value": format_rational(v)}
                for (m, j), v in sorted(self.entries.items())
            ],
        }


@dataclass(frozen=True)
class NormalFormResult:
    genus: int
    m_max: int
    j_max: int
    param_change: ParamChange                # t1 in terms of the final parameter
    normal_forms: dict                       # m -> LaurentSeries in the final parameter
    s_table: STable
    stages: tuple                            # StageRecord per stage


def run_recursion(g: int, m_max: int | None = None, j_max: int = 6) -> NormalFormResult:
    """Run the recursion for genus g, reporting f[-m] for m <= m_max and the
    s_{m,j} table for 1 <= j <= j_max.  Exact and deterministic."""
    if not (type(g) is int and g >= 2):
        raise ValidationError("genus must be an integer >= 2")
    if m_max is None:
        m_max = g + 6
    if not (type(m_max) is int and m_max >= g + 1):
        raise ValidationError("m_max must be an integer >= g+1")
    if not (type(j_max) is int and j_max >= 0):
        raise ValidationError("j_max must be an integer >= 0")
    return _recursion(g, m_max, j_max, 1)


def _recursion(g: int, m_max: int, j_max: int, lam: int) -> NormalFormResult:
    """The recursion from F[-(g+1)] = t^-(g+1) - lam*t^-g at the integer
    lam: each value is r*lam^degree, its degree given by its indices."""
    cut = -g + j_max + 1
    stages_total = (m_max - g) + j_max + 1

    # t^-1 and t^-(g+n-1) are known on stages_total terms.  A product loses
    # one at the top, and F[-(g+n)] is read below u^(-g+stages_total-n): below
    # u^cut up to m_max, at u^-g by the next correction, below it at the end.
    # The operands are built in lowest terms, so they skip the checked
    # constructor.
    inverse = LaurentSeries._of("u", -1, [1], 1, stages_total - 1)
    power = LaurentSeries._of("u", -(g + 1), [1], 1, stages_total - (g + 1))
    current = {g + 1: LaurentSeries._of("u", -(g + 1), [1, -lam], 1, cut)}  # F[-(g+1)]
    stages = [StageRecord(1, None, None, ())]

    for n in range(2, stages_total + 1):
        c = current[g + n - 1].coefficient(-g)
        eps = c / (g + n - 1)  # the step u_{n-1} = u_n + eps*u_n^n
        inverse, power = series_substitute(inverse, eps, n), series_substitute(power, eps, n)
        for m in current:
            current[m] = series_substitute(current[m], eps, n)
        if current[g + n - 1].coefficient(-g):
            raise InternalInconsistencyError(
                f"stage {n}: correction failed to kill the u^-{g} coefficient"
            )
        power = power * inverse  # t^-(g+n), F[-(g+n)] before the subtractions
        # f[-m] past m_max is read only at u^-g and below: keep it short
        top = cut if g + n <= m_max else -g + 1
        multipliers, work = series_reduce(power.truncate(top),
                                          [(-g - n + i, current[g + n - i]) for i in range(1, n)])
        for e in range(-g - n + 1, -g):
            if work.numerator(e):
                raise InternalInconsistencyError(
                    f"stage {n}: exponent {e} not cleared in f[-{g + n}]"
                )
        current[g + n] = work
        stages.append(StageRecord(n, c, eps, tuple(multipliers)))

    entries = {(m, j): current[m].coefficient(-g + j)
               for m in range(g + 1, m_max + 1) for j in range(1, j_max + 1)}
    normal_forms = {m: current[m] for m in range(g + 1, m_max + 1)}
    return NormalFormResult(
        genus=g,
        m_max=m_max,
        j_max=j_max,
        param_change=ParamChange(inverse.inverse()),  # t on [1, stages_total + 1)
        normal_forms=normal_forms,
        s_table=STable(g, entries),
        stages=tuple(stages),
    )


def closed_form_s1(g: int) -> Fraction:
    return Fraction(-(2 * g + 1), 2 * (g + 1))


def closed_form_s2(g: int) -> Fraction:
    return Fraction(4 * g + 2, 3 * (g + 1) ** 2)


@dataclass(frozen=True)
class ClosedFormReport:
    genus: int
    computed_s1: Fraction
    computed_s2: Fraction
    expected_s1: Fraction
    expected_s2: Fraction

    @property
    def passed(self) -> bool:
        return self.computed_s1 == self.expected_s1 and self.computed_s2 == self.expected_s2

    def to_jsonable(self) -> dict:
        return {
            "genus": self.genus,
            "computed": {"s_g+1_1": format_rational(self.computed_s1),
                         "s_g+1_2": format_rational(self.computed_s2)},
            "expected": {"s_g+1_1": format_rational(self.expected_s1),
                         "s_g+1_2": format_rational(self.expected_s2)},
            "status": "pass" if self.passed else "fail",
        }


def closed_form_check(g: int) -> ClosedFormReport:
    """Compare s_{g+1,1} and s_{g+1,2} against their closed forms, exactly.

    The entry (m, j) is final after stage m-g+j+1, so the two read here are
    final after stage 4: run_recursion(g, g + 1, 2) runs exactly those four
    stages, and any deeper run gives the same two values."""
    result = run_recursion(g, g + 1, 2)
    return ClosedFormReport(
        genus=g,
        computed_s1=result.s_table.value(g + 1, 1),
        computed_s2=result.s_table.value(g + 1, 2),
        expected_s1=closed_form_s1(g),
        expected_s2=closed_form_s2(g),
    )


@dataclass(frozen=True)
class MonomialCheckReport:
    genus: int
    failures: tuple
    stage_multiplier_counts: dict

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "genus": self.genus,
            "status": "pass" if self.passed else "fail",
            "failures": list(self.failures),
            "multiplier_counts": {str(n): c for n, c in sorted(self.stage_multiplier_counts.items())},
        }


def correction_monomial_check(result: NormalFormResult) -> MonomialCheckReport:
    """Check the grading by the torus action lam -> 2*lam: rerun the
    recursion from lam = 2 and require every value of degree d to be 2^d
    times the result's.  That is each stage-n pole coefficient and correction
    (d = n-1), each multiplier p_i (d = i), each coefficient at u^e of f[-m]
    (d = m+e) and of the parameter change (d = e-1), and each s_{m,j}
    (d = m-g+j).  Also checks that stage n has n-1 multipliers."""
    g = result.genus
    scaled = _recursion(g, result.m_max, result.j_max, 2)
    failures = []
    counts = {}

    def scales(what, x, y, d):
        if y != 2 ** d * x:
            failures.append(f"{what} = {x} does not scale by 2^{d} under lam -> 2*lam: the rerun reads {y}")

    if len(result.stages) != len(scaled.stages):
        failures.append(f"expected {len(scaled.stages)} stages, got {len(result.stages)}")
    for rec, twice in zip(result.stages, scaled.stages):
        if rec.n == 1:
            continue
        counts[rec.n] = len(rec.multipliers)
        if len(rec.multipliers) != rec.n - 1:
            failures.append(f"stage {rec.n}: expected {rec.n - 1} multipliers, got {len(rec.multipliers)}")
        scales(f"stage {rec.n}: pole coefficient", rec.pole_coefficient, twice.pole_coefficient, rec.n - 1)
        scales(f"stage {rec.n}: correction", rec.correction, twice.correction, rec.n - 1)
        for i, (p, q) in enumerate(zip(rec.multipliers, twice.multipliers), start=1):
            scales(f"stage {rec.n}: multiplier p_{i}", p, q, i)
    series = [(f"f[-{m}]", s, scaled.normal_forms[m], m) for m, s in sorted(result.normal_forms.items())]
    series.append(("the parameter change", result.param_change.series, scaled.param_change.series, -1))
    for what, s, twice, w in series:
        if (s.low, s.cut) != (twice.low, twice.cut):
            failures.append(f"{what}: the rerun has another window")
            continue
        for e, c in s.known_items():
            scales(f"{what}: coefficient at u^{e}", c, twice.coefficient(e), w + e)
    for (m, j), v in sorted(result.s_table.entries.items()):
        scales(f"s_{m},{j}", v, scaled.s_table.value(m, j), m - g + j)
    return MonomialCheckReport(result.genus, tuple(failures), counts)
