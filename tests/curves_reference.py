"""The reference validation for the tests: `_validate_cached` and its four
helpers as they were before validation read a singular point through its
jet conditions once.  It tests membership in the span one dense jet at a
time: the all-ones jet, each unit jet of degree >= the conductor, and the
product, truncated at the jet order, of every pair of basis vectors.  The
tests compare the package's outcome and error text against it.

Also the equality of singular points as it was before a point compared by
its exact integer key: the dataclass's field-by-field comparison, each
algebra-basis entry compared by its own `__eq__`.

Also `_jet_rows` as it was before a curve kept its jet-condition columns
and before the jet conditions and element expansions became integer
numerators: every row built afresh, one `Fraction` dot product per
(condition, element), each element expanded by the per-kind `Fraction`
formulas of `sections_reference._elt_expansion`; and h0's
basis as it was before one elimination gave it: the kernel, then its reduced
echelon form by a second elimination.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from nsc import linalg
from nsc.curves import (
    VALIDATE_CACHE_SIZE,
    CurveModel,
    SingularPoint,
    _span_info,
    check_jet_width,
    constraints,
    format_point,
)
from nsc.errors import ValidationError
from linalg_reference import reference_rref
from sections_reference import _elt_expansion


def point_eq(a: SingularPoint, b: SingularPoint) -> bool:
    def fields(p):
        return p.branches, p.jet_order, p.conductor, p.algebra_basis

    return fields(a) == fields(b)


def _span_contains(sing: SingularPoint, vector) -> bool:
    return not any(sum(x * vector[s] for s, x in phi) for phi, _ in _span_info(sing, sing.jet_order))


def _jet_slot(sing: SingularPoint, branch_index: int, degree: int) -> int:
    return branch_index * sing.jet_order + degree


def _truncated_branch_product(sing, u, v, branch_index):
    k = sing.jet_order
    base = branch_index * k
    out = [Fraction(0)] * k
    for i in range(k):
        a = u[base + i]
        if not a:
            continue
        for j in range(k - i):
            b = v[base + j]
            if b:
                out[i + j] += a * b
    return out


@functools.lru_cache(maxsize=VALIDATE_CACHE_SIZE)
def _validate_cached(curve: CurveModel) -> bool:
    if not curve.components:
        raise ValidationError("curve has no components")
    if len(set(curve.components)) != len(curve.components):
        raise ValidationError("duplicate component labels")

    branch_points = set()
    for sing in curve.singularities:
        # the subalgebra check is quadratic in the basis size; a basis longer
        # than the jet width cannot be linearly independent
        check_jet_width(len(sing.branches), sing.jet_order)
        width = len(sing.branches) * sing.jet_order
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

        ones = [Fraction(0)] * width
        for b in range(len(sing.branches)):
            ones[_jet_slot(sing, b, 0)] = Fraction(1)
        if not _span_contains(sing, ones):
            raise ValidationError("missing constants: the all-ones jet is not in the span")

        for b in range(len(sing.branches)):
            for d in range(sing.conductor, sing.jet_order):
                unit = [Fraction(0)] * width
                unit[_jet_slot(sing, b, d)] = Fraction(1)
                if not _span_contains(sing, unit):
                    raise ValidationError(
                        f"conductor violation: jet s^{d} on branch {b} is not in the span"
                    )

        basis = [list(map(Fraction, v)) for v in sing.algebra_basis]
        for i, u in enumerate(basis):
            for v in basis[i:]:
                prod = []
                for b in range(len(sing.branches)):
                    prod.extend(_truncated_branch_product(sing, u, v, b))
                if not _span_contains(sing, prod):
                    raise ValidationError(
                        "non-subalgebra span: a product of basis jets leaves the span"
                    )

        # the singularity must glue all its branches into one point: the only
        # branchwise-constant jets in the span are the global constants
        if _constant_block_dimension(sing) != 1:
            raise ValidationError("singularity does not glue its branches into one point")

    seen_marked = set()
    for mp in curve.marked_points:
        if mp.component not in curve.components:
            raise ValidationError(f"marked point on undeclared component {mp.component!r}")
        if mp.tangent == 0:
            raise ValidationError("tangent scalar must be nonzero")
        if mp.weight is not None and (not isinstance(mp.weight, int) or mp.weight < 0):
            raise ValidationError("marked point weight must be a nonnegative integer")
        key = (mp.component, mp.point)
        if key in seen_marked:
            raise ValidationError("marked points must be distinct")
        if key in branch_points:
            raise ValidationError(
                f"marked point at {format_point(mp.point)} on {mp.component} coincides with a singular branch point"
            )
        seen_marked.add(key)

    # connectivity of the component graph, singularities joining their branches
    if len(curve.components) > 1:
        parent = {c: c for c in curve.components}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for sing in curve.singularities:
            comps = [br.component for br in sing.branches]
            for c in comps[1:]:
                parent[find(c)] = find(comps[0])
        roots = {find(c) for c in curve.components}
        if len(roots) != 1:
            raise ValidationError("disconnected curve")
    return True


def _constant_block_dimension(sing: SingularPoint) -> int:
    """Dimension of {c in Q^B : the branchwise-constant jet c lies in the span}.

    Dimension 1 means the local algebra has no nontrivial idempotents, i.e.
    the branches really are glued into a single point.
    """
    B = len(sing.branches)
    functionals = [dict(phi) for phi, _ in _span_info(sing, sing.jet_order)]
    cond = [[phi.get(_jet_slot(sing, b, 0), 0) for b in range(B)] for phi in functionals]
    if not cond:
        return B
    return len(linalg.nullspace(cond, ncols=B))


def _jet_rows(curve: CurveModel, elts):
    """One row per independent jet condition at each singularity."""
    rows = []
    for sing in curve.singularities:
        k = sing.jet_order
        jets = []
        for elt in elts:
            jet = []
            for br in sing.branches:
                jet.extend(_elt_expansion(elt, br.component, br.point, 0, k))
            jets.append(jet)
        for phi, den in _span_info(sing, k):
            rows.append([sum(Fraction(x, den) * jet[s] for s, x in phi) for jet in jets])
    return rows


def h0_basis(curve: CurveModel, divisor):
    """The coordinate vectors of h0's basis: the reduced echelon form of the
    kernel of the constraint rows."""
    elts, rows = constraints(curve, divisor)
    kernel = linalg.nullspace(rows, ncols=len(elts))
    kernel, _ = reference_rref(kernel)
    return kernel
