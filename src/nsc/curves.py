"""Singular curves with rational normalization, modelled at the jet level.

A curve is a union of projective lines glued along singular points.  Each
singular point is given by its branches (points of the normalization), a jet
order k, a conductor c with c <= k, and a basis of the local algebra's image
in the product jet space prod_branches Q[s]/(s^k).  Because the span contains
everything vanishing to order >= c on all branches, it determines the local
ring exactly.

Every computation reads a singular point as its jet conditions: the linear
functionals annihilating the span, computed once per jet order and each
stored sparsely as integer numerators over one denominator.  A function is
regular at the point iff its jet is killed by all of them, and the delta
invariant is their count.  Validation reads them too:
the constants, the conductor tail and the products of basis jets lie in the
span iff every condition kills them, and the branches are glued iff the
conditions' entries on the constant terms have rank #branches - 1.  Summed
per component, those entries have rank #components - 1 iff the curve is
connected.
Arithmetic genus and the section spaces of divisors supported on marked
smooth points thus become finite exact linear algebra over Q.

Global functions are tuples of rational functions, one per component, with
poles confined to the marked points; they are represented on the partial
fraction basis {1} + {(t-a)^-j} + {t^j at infinity}, the ambient elements.
An element's expansion at a point is integer numerators over one
denominator too, so the value of a condition on an element is one integer
dot product over the product of the two denominators: the one Fraction an
entry of the jet rows costs.

A curve object keeps, for as long as it lives, its genus and the column of
every condition's value on each ambient element asked of it, so a curve
asked many questions (a spec curve interned by curveio.load_curve) evaluates
each condition on each element once.  The memo is per object, not a module
cache keyed on (point, element), although a singular point compares by one
integer key and such a lookup would be cheap: the per-object memo goes when
its curve does, while a module cache would need a bound of its own, and
turning the jet rows of the curves built afresh per call into hits trades
their time for memory kept across calls.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from . import linalg
from .errors import InternalInconsistencyError, ValidationError
from .laurent import _scalar
from .rational import format_rational


class Infinity:
    """The point at infinity on a projective line (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __hash__(self):
        return hash("nsc-point-at-infinity")

    def __eq__(self, other):
        return isinstance(other, Infinity)


INF = Infinity()


def format_point(p) -> str:
    return "inf" if isinstance(p, Infinity) else format_rational(p)


@dataclass(frozen=True)
class Branch:
    component: str
    point: object  # Fraction or INF


# Branches x jet order at one singular point: the width of the jet space that
# validation and every constraint build work in.  Validation grows with a
# power of the width; at the limit, the deep cusp ccusp31 loads in about
# 0.01 s, and a spec with 63 dense basis vectors on two branches of jet order
# 32 in about 0.35 s with small integer entries and about 4 s with two-digit
# fractions, most of it the elimination that finds the point's conditions
# (Python 3.11, one core of a shared x86-64 host).
MAX_JET_WIDTH = 64

# The algebra-basis entries of all singular points of one curve together,
# and its marked points.  The widest dense point has 63 x 64 = 4,032 entries
# and ccusp31 2,112; no zoo curve or test marks more than two points.
MAX_BASIS_ENTRIES = MAX_JET_WIDTH * MAX_JET_WIDTH
MAX_MARKED_POINTS = 64

# Bounds on the three module caches here (curveio.SPEC_CACHE_SIZE bounds the
# fourth), so a long-lived process does not grow them without limit.
# _span_info keeps a point's conditions at one jet order, each a tuple of
# (slot, int) pairs and an int denominator; _elt_expansion keeps one
# element's expansion at one point on one window, a tuple of ints and an int
# denominator.  Each is above the working set of a benchmark round: 32, 102
# and 2,112 entries on the seeded CLI queries, 11, 13 and 413 on the
# canonical-parameter jobs.
SPAN_CACHE_SIZE = 256
VALIDATE_CACHE_SIZE = 512
EXPANSION_CACHE_SIZE = 4096

# Besides these, each CurveModel keeps the jet-condition columns of the
# ambient elements asked of it (_jet_columns) for as long as the object
# lives: a spec curve interned by curveio.load_curve, or the first curve of
# each value, which _validate_cached keeps as its key.  A curve's columns
# number at most the elements of the largest divisor asked of it, one
# constant per component and one pole per order at each marked point (the
# command line bounds the orders by curveio.MAX_MULTIPLICITY, and
# canonical_parameter by sections.MAX_M_MAX plus the weights), each one value
# per jet condition.


_EXACT = frozenset({int, Fraction})
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def check_jet_width(branches: int, jet_order: int) -> None:
    """Reject a singular point whose jet space is wider than MAX_JET_WIDTH."""
    if branches * jet_order > MAX_JET_WIDTH:
        raise ValidationError(
            f"jet width {branches} x {jet_order} = {branches * jet_order} is out of range: "
            f"the limit is branches x jet_order <= {MAX_JET_WIDTH}"
        )


@dataclass(frozen=True, eq=False)
class SingularPoint:
    branches: tuple
    jet_order: int
    conductor: int
    algebra_basis: tuple  # tuples of Fractions, length len(branches)*jet_order

    # Every lookup keyed on a point, or on a curve that holds it, compares and
    # hashes this key: ints compared in C, not each basis entry's
    # Fraction.__eq__.  Equal values give equal keys, an int and its Fraction
    # alike; a float or bool entry keys unequal to its exact twin, and
    # CurveModel._valid rejects it by name.
    @functools.cached_property
    def _key(self):
        branches = tuple((br.component, br.point) if type(br.point) not in _EXACT
                         else (br.component, br.point.numerator, br.point.denominator) for br in self.branches)
        entries = tuple(itertools.chain.from_iterable(self.algebra_basis))
        if set(map(type, entries)) <= _EXACT:
            values = (*map(_NUMERATOR, entries), *map(_DENOMINATOR, entries))
        else:
            values = tuple((type(x), x) for x in entries)
        key = (branches, self.jet_order, self.conductor, tuple(map(len, self.algebra_basis)), values)
        return hash(key), key

    def __eq__(self, other):
        if type(other) is not SingularPoint:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._key[0]


@dataclass(frozen=True)
class MarkedPoint:
    component: str
    point: object
    tangent: Fraction = Fraction(1)
    weight: int | None = None


@dataclass(frozen=True)
class CurveModel:
    components: tuple
    singularities: tuple
    marked_points: tuple

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self):
        return hash((self.components, self.singularities, self.marked_points))

    # ambient element -> the values of every singular point's jet conditions
    # on it, the points in order; _jet_rows fills it
    @functools.cached_property
    def _jet_columns(self):
        return {}

    @functools.cached_property
    def _genus(self):
        conditions = sum(len(_span_info(sing, sing.jet_order)) for sing in self.singularities)
        return conditions - (len(self.components) - 1)

    # one cache lookup per object, whose hit compares the whole model with the
    # cached key; an invalid curve stores nothing and raises on every call.
    # The key compares a marked point, tangent or weight of 5.0 or True equal
    # to its exact twin, and an int branch point equal to its Fraction, so
    # points, tangents and weights are checked to be exact here, on every
    # object.  So are the basis entries, to reject a float or bool by name;
    # a singular point's key never equals its exact twin's.  Its key compares
    # a jet order or conductor of 4.0 equal to 4 and True equal to 1, so
    # those are checked to be ints too.
    @functools.cached_property
    def _valid(self):
        points = [("branch point", br) for sing in self.singularities for br in sing.branches]
        for what, p in points + [("marked point", mp) for mp in self.marked_points]:
            if not isinstance(p.point, (Fraction, Infinity)):
                raise ValidationError(f"{what} {p.point!r} on {p.component} must be a Fraction or inf")
        for mp in self.marked_points:
            if not isinstance(mp.tangent, Fraction):
                raise ValidationError(f"marked point tangent {mp.tangent!r} must be a Fraction")
            if mp.weight is not None and type(mp.weight) is not int:
                raise ValidationError(f"marked point weight {mp.weight!r} must be an int, "
                                      f"not a {type(mp.weight).__name__}")
        for sing in self.singularities:
            for field in ("jet_order", "conductor"):
                value = getattr(sing, field)
                if type(value) is not int:
                    raise ValidationError(f"singular point {field} {value!r} must be an int, "
                                          f"not a {type(value).__name__}")
            if not set(map(type, itertools.chain.from_iterable(sing.algebra_basis))) <= _EXACT:
                x = next(x for v in sing.algebra_basis for x in v if type(x) not in _EXACT)
                raise ValidationError(f"algebra basis entry {x!r} must be an int or a Fraction")
        return _validate_cached(self)

    def point_ids(self):
        return [f"p{i}" for i in range(len(self.marked_points))]

    def marked(self, point_id: str) -> MarkedPoint:
        return self.marked_points[self.point_index(point_id)]

    def point_index(self, point_id: str, what: str = "marked point id") -> int:
        if point_id == "pinf":
            hits = [i for i, p in enumerate(self.marked_points) if isinstance(p.point, Infinity)]
            if len(hits) != 1:
                raise ValidationError(f"{what}: no unique marked point at infinity for id 'pinf'")
            return hits[0]
        if isinstance(point_id, str) and re.fullmatch("p[0-9]+", point_id):
            i = int(point_id[1:])
            if i < len(self.marked_points):
                return i
        raise ValidationError(f"{what}: unknown id {point_id!r}, expected p0..p{len(self.marked_points) - 1} "
                              "or pinf")


@dataclass(frozen=True)
class Divisor:
    """Integer multiplicities on marked points; negative = prescribed zero."""

    items: tuple  # sorted tuple of (point_id, multiplicity), zeros dropped

    @classmethod
    def of(cls, mapping) -> "Divisor":
        for pid, n in mapping.items():
            if type(n) is not int:
                raise ValidationError(f"divisor multiplicity {n!r} at {pid} must be an int, not a {type(n).__name__}")
        return cls(tuple(sorted((pid, n) for pid, n in mapping.items() if n != 0)))

    def multiplicity(self, point_id: str) -> int:
        return dict(self.items).get(point_id, 0)

    def degree(self) -> int:
        return sum(n for _, n in self.items)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def _span_info(sing: SingularPoint, k: int) -> tuple:
    """The singular point as its jet conditions at jet order k >= the model's.

    The span is the algebra basis zero-padded to order k plus the conductor
    tail (every s^d, k_model <= d < k, on every branch).  Returns a basis of
    the functionals phi with phi . v = 0 for every v in that span, each a
    pair (entries, den): the (slot, numerator) pairs of its nonzero entries,
    slot b*k + d being s^d on branch b, over their positive common
    denominator.  A jet lies in the span iff every functional's numerators
    kill it, and the delta invariant is the number of functionals.
    """
    k0, B = sing.jet_order, len(sing.branches)
    pad = [Fraction(0)] * (k - k0)
    rows = [[x for b in range(B) for x in (*v[b * k0:(b + 1) * k0], *pad)]
            for v in sing.algebra_basis]
    for b in range(B):
        for d in range(k0, k):
            unit = [Fraction(0)] * (B * k)
            unit[b * k + d] = Fraction(1)
            rows.append(unit)
    vectors, den = linalg.kernel(rows, ncols=B * k)
    content = [gcd(den, *phi.values()) for phi in vectors]
    return tuple((tuple((s, x // g) for s, x in phi.items()), den // g) for phi, g in zip(vectors, content))


def validate(curve: CurveModel) -> CurveModel:
    """Check every model invariant; returns the curve or raises ValidationError."""
    curve._valid
    return curve


@functools.lru_cache(maxsize=VALIDATE_CACHE_SIZE)
def _validate_cached(curve: CurveModel) -> bool:
    if not curve.components:
        raise ValidationError("curve has no components")
    if len(set(curve.components)) != len(curve.components):
        raise ValidationError("duplicate component labels")

    branch_points = set()
    for sing in curve.singularities:
        # the closure check is quadratic in the basis vectors that are nonzero
        # below the conductor; a basis longer than the jet width cannot be
        # linearly independent
        check_jet_width(len(sing.branches), sing.jet_order)
        k, B = sing.jet_order, len(sing.branches)
        width = B * k
        if len(sing.algebra_basis) > width:
            raise ValidationError(
                f"algebra_basis has {len(sing.algebra_basis)} vectors: the limit is the jet width, "
                f"branches x jet_order = {width}"
            )
        if not sing.branches:
            raise ValidationError("singularity with no branches")
        if sing.conductor < 1:
            raise ValidationError("conductor must be >= 1")
        # k >= c is the sound minimum: jets of order >= c are free, so the span
        # determines the local ring.  Nothing here detects a basis truncated
        # too early: the span at a deeper order is the padded basis plus every
        # tail unit, so delta is the same at every order k >= jet order for
        # any basis, and the delta-stability checks cannot fail.
        if sing.jet_order < max(sing.conductor, 2):
            raise ValidationError(
                f"jet order {sing.jet_order} too small for conductor {sing.conductor}"
            )
        for br in sing.branches:
            if br.component not in curve.components:
                raise ValidationError(f"branch on undeclared component {br.component!r}")
            key = (br.component, br.point)
            if key in branch_points:
                raise ValidationError(f"branch point {format_point(br.point)} on {br.component} reused")
            branch_points.add(key)
        for v in sing.algebra_basis:
            if len(v) != width:
                raise ValidationError("algebra basis vector has wrong length")

    # the totals come before any check that reads a point's jet conditions,
    # so a refused spec leaves nothing in _span_info
    entries = sum(len(v) for sing in curve.singularities for v in sing.algebra_basis)
    if entries > MAX_BASIS_ENTRIES:
        raise ValidationError(f"{entries} algebra basis entries in all is out of range: "
                              f"the limit is {MAX_BASIS_ENTRIES}")
    if len(curve.marked_points) > MAX_MARKED_POINTS:
        raise ValidationError(f"{len(curve.marked_points)} marked points is out of range: "
                              f"the limit is {MAX_MARKED_POINTS}")

    on_constants = []  # each condition's entries on the components' constants
    for sing in curve.singularities:
        k, B = sing.jet_order, len(sing.branches)
        width = B * k
        # one reading of the point: its conditions, and their entries on the
        # branches' constant terms, where the constants and the gluing live
        conditions = _span_info(sing, k)
        at_zero = [[dict(phi).get(b * k, 0) for b in range(B)] for phi, _ in conditions]
        for row in at_zero:
            by_component = dict.fromkeys(curve.components, 0)
            for br, x in zip(sing.branches, row):
                by_component[br.component] += x
            on_constants.append(list(by_component.values()))
        if any(sum(row) for row in at_zero):
            raise ValidationError("missing constants: the all-ones jet is not in the span")

        # every s^d with d >= c is in the span iff no condition reads its slot
        c = sing.conductor
        slot = min((s for phi, _ in conditions for s, _ in phi if s % k >= c), default=None)
        if slot is not None:
            b, d = divmod(slot, k)
            raise ValidationError(f"conductor violation: jet s^{d} on branch {b} is not in the span")

        # the conditions now read only degrees below c, and a product's part
        # there comes from its factors' parts there; each vector is scaled by
        # its common denominator, so the products run on integers
        heads = []
        for v in sing.algebra_basis:
            den = lcm(*(x.denominator for x in v))
            u = [[(d, x.numerator * (den // x.denominator)) for d, x in enumerate(v[b * k:b * k + c]) if x]
                 for b in range(B)]
            if any(u):
                heads.append(u)
        for i, u in enumerate(heads):
            for v in heads[i:]:
                prod = [0] * width
                for b in range(B):
                    for d, x in u[b]:
                        for e, y in v[b]:
                            if d + e >= c:
                                break
                            prod[b * k + d + e] += x * y
                if any(sum(x * prod[s] for s, x in phi) for phi, _ in conditions):
                    raise ValidationError(
                        "non-subalgebra span: a product of basis jets leaves the span"
                    )

        # the singularity must glue all its branches into one point: the only
        # branchwise-constant jets in the span are the global constants
        if B - linalg.rank(at_zero) != 1:
            raise ValidationError("singularity does not glue its branches into one point")

    seen_marked = set()
    for mp in curve.marked_points:
        if mp.component not in curve.components:
            raise ValidationError(f"marked point on undeclared component {mp.component!r}")
        if mp.tangent == 0:
            raise ValidationError("tangent scalar must be nonzero")
        if mp.weight is not None and mp.weight < 0:
            raise ValidationError("marked point weight must be a nonnegative integer")
        key = (mp.component, mp.point)
        if key in seen_marked:
            raise ValidationError("marked points must be distinct")
        if key in branch_points:
            raise ValidationError(
                f"marked point at {format_point(mp.point)} on {mp.component} coincides with a singular branch point"
            )
        seen_marked.add(key)

    # connected iff the only locally constant regular functions are the
    # constants; every point glues its branches, so iff the conditions read
    # on the components' constants have rank #components - 1
    if linalg.rank(on_constants) != len(curve.components) - 1:
        raise ValidationError("disconnected curve")

    return True


# ---------------------------------------------------------------------------
# delta invariant and genus
# ---------------------------------------------------------------------------

def delta_invariant(curve: CurveModel, sing: SingularPoint, jet_order: int | None = None) -> int:
    """(#branches * k) - dim(span), i.e. the number of jet conditions,
    optionally recomputed at a deeper jet order (the span extends by
    zero-padding plus the conductor tail)."""
    if sing not in curve.singularities:
        raise ValidationError("singularity does not belong to this curve")
    k = jet_order if jet_order is not None else sing.jet_order
    if k < sing.jet_order:
        raise ValidationError("cannot shrink the jet order below the model's")
    return len(_span_info(sing, k))


def arithmetic_genus(curve: CurveModel) -> int:
    """Sum of delta invariants minus (#components - 1); components are rational."""
    return curve._genus


# ---------------------------------------------------------------------------
# expansions of ambient basis functions
# ---------------------------------------------------------------------------
# An ambient element is ("const", component) or ("pole", component, point, j):
# the function 1 resp. (t-point)^-j (t^j when point is INF), supported on one
# component and zero on the others.

@functools.lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def _elt_expansion(elt, component, point, low: int, high: int) -> tuple:
    """(nums, den): the element's expansion at (component, point) in the
    standard parameter s (= t - point, or 1/t at infinity) on exponents
    [low, high), its coefficient at s^e being nums[e - low] / den, with den > 0
    and gcd(den, *nums) = 1.

    Near the point every element is s^v (a + b s)^e:
      the constant                            v = 0,  e = 0;
      a pole at the point itself, t^j at inf  v = -j, e = 0;
      (t - t0)^-j at infinity                 v = j,  e = -j, a = 1, b = -t0;
      t^j at a finite point                   v = 0,  e = j,  a = point, b = 1;
      any other (t - t0)^-j                   v = 0,  e = -j, a = point - t0, b = 1.
    Its coefficient at s^(v+i) is C(e,i) a^(e-i) b^i, with the binomial
    C(e,i) = C(e,i-1)(e-i+1) // i exact on the integers for either sign of
    e; it is zero for every i > e >= 0.  Each power of a or b is an integer
    over a power of its denominator, and the coefficients share the lcm of
    those powers."""
    terms = {}
    if elt[1] == component:
        v, e, a, b = 0, 0, 1, 1
        if elt[0] == "pole":
            _, _, t0, j = elt
            if t0 == point:
                v = -j
            elif isinstance(point, Infinity):
                v, e, b = j, -j, -t0
            elif isinstance(t0, Infinity):
                e, a = j, point
            else:
                e, a = -j, point - t0
        binom = 1
        for i in range(high - v):
            if not binom:
                break
            if v + i >= low:
                an, ad = _power(a, e - i)
                bn, bd = _power(b, i)
                terms[v + i] = binom * an * bn, ad * bd
            binom = binom * (e - i) // (i + 1)
    den = lcm(*(d for _, d in terms.values()))
    nums = [0] * (high - low)
    for exponent, (n, d) in terms.items():
        nums[exponent - low] = n * (den // d)
    content = gcd(den, *nums)
    return tuple(x // content for x in nums), den // content


def _power(x, n: int) -> tuple:
    """x^n for a rational x (nonzero if n < 0) as (numerator, denominator > 0)."""
    p, q = x.numerator, x.denominator
    if n < 0:
        p, q, n = (q, p, -n) if p > 0 else (-q, -p, -n)
    return p ** n, q ** n


def _jet_rows(curve: CurveModel, elts):
    """One row per independent jet condition at each singularity.

    Only the columns missing from the curve's memo are computed, each point's
    conditions read once per call; the rows transpose the columns.  An
    element's jet at a point is its expansions on the branches over their
    lcm denominator D, so each entry is one integer dot product with a
    condition's numerators, over the condition's denominator times D.  A
    column enters the memo complete, so threads sharing a curve read whole
    columns, at worst computing one twice."""
    memo = curve._jet_columns
    # a fresh curve's memo is empty, and a lookup hashes each element's point
    columns = [memo.get(elt) for elt in elts] if memo else [None] * len(elts)
    missing = [i for i, column in enumerate(columns) if column is None]
    if missing:
        new = [[] for _ in missing]
        for sing in curve.singularities:
            k = sing.jet_order
            conditions = _span_info(sing, k)
            for column, i in zip(new, missing):
                jet, den = _jet(elts[i], sing.branches, k)
                column.extend(Fraction(sum(x * jet[s] for s, x in phi), d * den) for phi, d in conditions)
        for i, column in zip(missing, new):
            columns[i] = memo[elts[i]] = column
    return [list(row) for row in zip(*columns)]


def _jet(elt, branches, k: int) -> tuple:
    """(nums, den): the element's jet at a singular point, s^d on branch b at
    slot b*k + d, over the lcm of the branches' denominators."""
    parts = [_elt_expansion(elt, br.component, br.point, 0, k) for br in branches]
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(d for _, d in parts))
    return [x * (den // d) for nums, d in parts for x in nums], den


class FunctionOnCurve:
    """A global section: coordinates over the partial-fraction ambient basis."""

    __slots__ = ("curve", "elts", "coords")

    def __init__(self, curve, elts, coords):
        """One exact coordinate, an int (not a bool) or a `Fraction`, per
        element of elts."""
        self.curve = curve
        self.elts = list(elts)
        self.coords = [_scalar(c) for c in coords]
        if len(self.coords) != len(self.elts):
            raise ValidationError(f"{len(self.coords)} coordinates for {len(self.elts)} elements")

    def component_terms(self, component: str):
        """(constant, [(point, order, coeff), ...]) for one component."""
        const = Fraction(0)
        poles = []
        for x, elt in zip(self.coords, self.elts):
            if not x or elt[1] != component:
                continue
            if elt[0] == "const":
                const += x
            else:
                poles.append((elt[2], elt[3], x))
        return const, poles

    def to_jsonable(self):
        out = []
        for comp in self.curve.components:
            const, poles = self.component_terms(comp)
            out.append({
                "component": comp,
                "constant": format_rational(const),
                "poles": [
                    {"point": format_point(p), "order": j, "coeff": format_rational(c)}
                    for p, j, c in poles
                ],
            })
        return out

    def __str__(self):
        parts = []
        for comp in self.curve.components:
            const, poles = self.component_terms(comp)
            terms = []
            if const or not poles:
                terms.append(format_rational(const))
            for p, j, c in poles:
                if isinstance(p, Infinity):
                    mono = "t" if j == 1 else f"t^{j}"
                else:
                    denom = f"(t - {format_rational(p)})" if p else "t"
                    mono = f"1/{denom}" if j == 1 else f"1/{denom}^{j}"
                terms.append(mono if c == 1 else f"{format_rational(c)}*{mono}")
            parts.append(f"{comp}: " + " + ".join(terms))
        return "; ".join(parts)


@dataclass(frozen=True)
class H0Result:
    dimension: int
    basis: tuple  # FunctionOnCurve


def _canonical_divisor(curve: CurveModel, divisor: Divisor) -> Divisor:
    """Resolve id aliases (e.g. "pinf") to the canonical p<i> keys, merging."""
    mapping: dict = {}
    for pid, n in divisor.items:
        key = f"p{curve.point_index(pid)}"
        mapping[key] = mapping.get(key, 0) + n
    return Divisor.of(mapping)


def constraints(curve: CurveModel, divisor: Divisor):
    """(ambient basis, constraint rows) for the sections of O(divisor).

    The ambient basis spans the functions with poles bounded by the divisor's
    positive part; a combination of it is a section iff it satisfies every
    row: the jet conditions at each singularity, then one row per prescribed
    zero of the negative part."""
    validate(curve)
    divisor = _canonical_divisor(curve, divisor)
    mults = [divisor.multiplicity(pid) for pid in curve.point_ids()]
    elts = [("const", c) for c in curve.components]
    for mp, n in zip(curve.marked_points, mults):
        for j in range(1, n + 1):
            elts.append(("pole", mp.component, mp.point, j))
    rows = _jet_rows(curve, elts)
    for mp, n in zip(curve.marked_points, mults):
        for d in range(-n):
            rows.append([Fraction(nums[0], den) for nums, den in
                         (_elt_expansion(elt, mp.component, mp.point, d, d + 1) for elt in elts)])
    return elts, rows


def h0(curve: CurveModel, divisor: Divisor) -> H0Result:
    """Dimension and explicit basis of the sections of O(divisor), in reduced
    row echelon form.

    One elimination gives it: the kernel of the reversed columns has one
    vector per free column, 1 there, 0 at the other free columns and nothing
    after it.  Read back reversed, in reverse order, each vector leads with 1
    at its own column, which the others do not touch: the unique reduced
    echelon form of the kernel."""
    elts, rows = constraints(curve, divisor)
    kernel = linalg.nullspace([row[::-1] for row in rows], ncols=len(elts))
    return H0Result(len(kernel), tuple(FunctionOnCurve(curve, elts, v[::-1]) for v in reversed(kernel)))


def _h0_dimension(curve: CurveModel, divisor: Divisor) -> int:
    """h0(curve, divisor).dimension, read from one rank: no kernel, no basis."""
    elts, rows = constraints(curve, divisor)
    return len(elts) - linalg.rank(rows)


def h1(curve: CurveModel, divisor: Divisor) -> int:
    """Defined through Riemann-Roch: h1 = h0 - deg - 1 + arithmetic genus."""
    value = _h0_dimension(curve, divisor) - divisor.degree() - 1 + arithmetic_genus(curve)
    if value < 0:
        raise InternalInconsistencyError(
            f"negative h1 = {value} for divisor {divisor.items}: bug in the solver"
        )
    return value


def h1_corank(curve: CurveModel, divisor: Divisor) -> int:
    """Independent oracle: corank of the full constraint matrix (jet conditions
    plus prescribed-zero conditions) on the ambient pole space."""
    _, rows = constraints(curve, divisor)
    return len(rows) - linalg.rank(rows)
