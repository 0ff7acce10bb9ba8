"""The reference Groebner division and substitution for the tests.

`poly_reduce` and `substitute` are as they were before the division moved to
one mutable term dict: every step rebuilds the whole polynomial, taking its
leading term by `max` over the order's sort key, and every substitution
raises each value to its power afresh.  The polynomial arithmetic they used
is written out here on term dicts (`_add`, `_neg`, `_mul`), so that only the
coefficients' own arithmetic goes through the package.  The tests compare the
package's quotients, remainders and substitutions against them.
"""

from __future__ import annotations

from nsc.errors import ValidationError
from nsc.multipoly import MultiPoly


def _add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    terms = dict(a.terms)
    for exps, c in b.terms.items():
        s = terms.get(exps)
        s = c if s is None else s + c
        if s:
            terms[exps] = s
        elif exps in terms:
            del terms[exps]
    return MultiPoly(a.ring, terms)


def _neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.ring, {e: -c for e, c in a.terms.items()})


def _mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
    return MultiPoly(a.ring, terms)


def _pow(a: MultiPoly, n: int) -> MultiPoly:
    out = a.ring.one()
    for _ in range(n):
        out = _mul(out, a)
    return out


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def poly_reduce(f: MultiPoly, basis):
    """Multivariate division, first match in basis order."""
    basis = list(basis)
    if not basis:
        raise ValidationError("empty basis")
    ring = f.ring
    lts = []
    for b in basis:
        lt = b.leading_term()
        if lt is None:
            raise ValidationError("zero basis element")
        lts.append(lt)
    quotients = [ring.zero() for _ in basis]
    remainder = ring.zero()
    p = f
    while p.terms:
        exps, c = p.leading_term()
        for i, (lexps, lc) in enumerate(lts):
            if _divides(lexps, exps):
                q_exps = tuple(a - b for a, b in zip(exps, lexps))
                q = MultiPoly(ring, {q_exps: c * (1 / lc)})
                quotients[i] = _add(quotients[i], q)
                p = _add(p, _neg(_mul(q, basis[i])))
                break
        else:
            t = MultiPoly(ring, {exps: c})
            remainder = _add(remainder, t)
            p = _add(p, _neg(t))
    return quotients, remainder


def substitute(poly: MultiPoly, assignments: dict) -> MultiPoly:
    """Substitute ring elements for variables (others left alone)."""
    ring = poly.ring
    values = {}
    for name, val in assignments.items():
        if name not in ring._index:
            raise ValidationError(f"unknown variable {name!r}")
        values[ring._index[name]] = poly._coerce_operand(val)
    out = ring.zero()
    for exps, c in poly.terms.items():
        term = ring.const(c)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            if i in values:
                term = _mul(term, _pow(values[i], e))
            else:
                mono = [0] * len(exps)
                mono[i] = e
                term = _mul(term, MultiPoly(ring, {tuple(mono): 1}))
        out = _add(out, term)
    return out
