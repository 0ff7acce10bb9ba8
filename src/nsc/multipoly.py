"""Sparse multivariate polynomials over Q.

Coefficients are `fractions.Fraction`.  The monomial order is weighted
degree-reverse-lexicographic with exponent vectors listed largest variable
first: among equal weighted degrees the monomial whose last nonzero exponent
difference is negative is the larger one.  Under this
convention (precedence k > h > f, weights 5,4,3) the leading monomials of the
genus-2 relation shapes are h^2, hk, k^2.

Weights and exponents are ints (not bools).  A polynomial never changes once
built: arithmetic builds each result's term dict once and hands it over
without a copy, and `poly_reduce` divides on one private term dict.  Two
rings are compared by identity first, then by value.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, le, sub

from .errors import ValidationError
from .rational import format_rational


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class PolyRing:
    """Polynomial ring over Q with named weighted variables, ordered by
    weighted degrevlex on exponent tuples (largest variable first)."""

    def __init__(self, variables, weights=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValidationError("duplicate variable names")
        weights = (1,) * len(variables) if weights is None else tuple(weights)
        if len(variables) != len(weights):
            raise ValidationError("one weight per variable required")
        if not all(_is_int(w) and w > 0 for w in weights):
            raise ValidationError("weights must be positive integers")
        self.variables = variables
        self.weights = weights
        self._index = {v: i for i, v in enumerate(variables)}

    def weighted_degree(self, exps) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def sort_key(self, exps):
        """Key increasing with the order; usable with max()."""
        return (self.weighted_degree(exps), tuple(-e for e in reversed(exps)))

    def heap_key(self, exps):
        """Key decreasing with the order: the smallest key is the largest
        monomial, as heapq pops it."""
        return (-self.weighted_degree(exps), exps[::-1])

    def coerce_coeff(self, x) -> Fraction:
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ValidationError(f"cannot coerce {x!r} into QQ")

    # -- element constructors -----------------------------------------------

    def zero(self) -> "MultiPoly":
        return MultiPoly._adopt(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c) -> "MultiPoly":
        c = self.coerce_coeff(c)
        if not c:
            return MultiPoly._adopt(self, {})
        return MultiPoly._adopt(self, {(0,) * len(self.variables): c})

    def var(self, name: str) -> "MultiPoly":
        if name not in self._index:
            raise ValidationError(f"unknown variable {name!r}")
        exps = [0] * len(self.variables)
        exps[self._index[name]] = 1
        return MultiPoly._adopt(self, {tuple(exps): Fraction(1)})

    def gens(self):
        return tuple(self.var(v) for v in self.variables)

    def monomial_str(self, exps) -> str:
        parts = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.variables == other.variables and self.weights == other.weights

    def __hash__(self):
        return hash((self.variables, self.weights))

    def __repr__(self):
        return f"QQ[{','.join(self.variables)}]"


def format_terms(pairs) -> str:
    """The sum of the terms given as (coefficient, monomial) strings, largest
    first: a coefficient 1 or -1 and a monomial 1 are left out, and a
    negative term is subtracted; "0" for no terms."""
    parts = []
    for cs, mono in pairs:
        if mono == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _same_ring(a: PolyRing, b: PolyRing) -> bool:
    return a is b or a == b


def _accumulate(terms: dict, more: dict) -> None:
    """Add the terms of `more` into the term dict `terms`, dropping zeros."""
    for exps, c in more.items():
        s = terms.get(exps)
        s = c if s is None else s + c
        if s:
            terms[exps] = s
        elif exps in terms:
            del terms[exps]


def _product(a: dict, b: dict) -> dict:
    """The term dict of the product of two term dicts."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
    return terms


class MultiPoly:
    """Immutable sparse polynomial: map exponent tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        """The polynomial sum c*x^exps over the (exps, c) items of terms:
        each exponent vector is checked, each c coerced into the ring's
        coefficients, and zero sums dropped."""
        clean = {}
        n = len(ring.variables)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != n or not all(_is_int(e) and e >= 0 for e in exps):
                raise ValidationError(f"bad exponent vector {exps!r}")
            c = ring.coerce_coeff(c)
            if c:
                acc = clean.get(exps)
                c = c if acc is None else acc + c
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _adopt(cls, ring: PolyRing, terms: dict) -> "MultiPoly":
        """The polynomial with the term dict `terms`, which the caller built
        for it and no longer touches: no copy is made."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- basics --------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly) or not _same_ring(other.ring, self.ring):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def coefficient(self, exps):
        """Coefficient at the exponent tuple (0 if absent)."""
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic ------------------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly) and _same_ring(other.ring, self.ring):
            return other
        return self.ring.const(other)

    def __add__(self, other):
        try:
            other = self._coerce_operand(other)
        except ValidationError:
            return NotImplemented
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return MultiPoly._adopt(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._adopt(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_operand(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps)
            s = -c if s is None else s - c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        return MultiPoly._adopt(self.ring, terms)

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        try:
            other = self._coerce_operand(other)
        except ValidationError:
            return NotImplemented
        return MultiPoly._adopt(self.ring, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """Division by a nonzero rational."""
        inv = 1 / self.ring.coerce_coeff(scalar)
        return MultiPoly._adopt(self.ring, {e: c * inv for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if not _is_int(n):
            raise ValidationError(f"polynomial power {n!r} must be an int, not a {type(n).__name__}")
        if n < 0:
            raise ValidationError("negative polynomial power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure --------------------------------------------------------------

    def leading_term(self):
        """(exponents, coefficient) of the largest monomial in the ring's
        order; None for zero."""
        if not self.terms:
            return None
        exps = max(self.terms, key=self.ring.sort_key)
        return exps, self.terms[exps]

    def weighted_degrees(self):
        """All weighted degrees of the monomials present."""
        return {self.ring.weighted_degree(exps) for exps in self.terms}

    def is_homogeneous(self, degree: int) -> bool:
        degs = self.weighted_degrees()
        return degs == set() or degs == {degree}

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.ring._index[name]
        return max(e[i] for e in self.terms)

    def substitute(self, assignments: dict) -> "MultiPoly":
        """Substitute ring elements for variables (others left alone).  Each
        substituted value is raised to each power once per call."""
        ring = self.ring
        values = {}
        for name, val in assignments.items():
            if name not in ring._index:
                raise ValidationError(f"unknown variable {name!r}")
            values[ring._index[name]] = self._coerce_operand(val)
        order = sorted(values)
        powers = {}
        terms = {}
        for exps, c in self.terms.items():
            # the variables left alone stay in the monomial; the values'
            # powers multiply it in variable order
            substituted = [(i, exps[i]) for i in order if exps[i]]
            kept = list(exps)
            for i, _ in substituted:
                kept[i] = 0
            term = {tuple(kept): c}
            for i, e in substituted:
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = (values[i] ** e).terms
                term = _product(term, power)
            _accumulate(terms, term)
        return MultiPoly._adopt(ring, terms)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        ring = self.ring
        return format_terms((format_rational(self.terms[exps]), ring.monomial_str(exps))
                            for exps in sorted(self.terms, key=ring.sort_key, reverse=True))

    def __repr__(self):
        return f"MultiPoly({self})"


def poly_reduce(f: MultiPoly, basis):
    """Multivariate division: f = sum(q_i * basis_i) + remainder.

    No remainder term is divisible by any basis leading monomial.  Divisor
    choice is deterministic (first match in basis order), so quotients are
    reproducible; the remainder is basis-order independent exactly when the
    basis is a Groebner basis.

    The division runs on one private term dict, whose monomials wait in a heap
    keyed by the order; each monomial's key is computed once per call.  A
    step removes the leading term, which the divisor's leading term cancels
    exactly, and subtracts the multiple of the divisor's other terms; the
    monomials it adds are smaller, so a monomial taken from the heap never
    comes back.  Each quotient and the remainder are built once, term by term
    in the order the division meets them.
    """
    basis = list(basis)
    if not basis:
        raise ValidationError("empty basis")
    ring = f.ring
    divisors = []
    for b in basis:
        if not _same_ring(b.ring, ring):
            raise ValidationError(f"basis element in {b.ring!r}, not in {ring!r}")
        lt = b.leading_term()
        if lt is None:
            raise ValidationError("zero basis element")
        lexps, lc = lt
        divisors.append((lexps, lc, [(e, c) for e, c in b.terms.items() if e != lexps]))
    inverses = [None] * len(basis)  # of the leading coefficients, on first use
    keys = {}
    heap_key = ring.heap_key

    def entry(exps):
        key = keys.get(exps)
        if key is None:
            key = keys[exps] = heap_key(exps)
        return key, exps

    p = dict(f.terms)
    heap = [entry(exps) for exps in p]
    heapq.heapify(heap)
    quotients = [{} for _ in basis]
    remainder = {}
    while heap:
        exps = heapq.heappop(heap)[1]
        c = p.pop(exps, None)
        if c is None:  # cancelled after it entered the heap
            continue
        for i, (lexps, lc, tail) in enumerate(divisors):
            if all(map(le, lexps, exps)):
                if inverses[i] is None:
                    inverses[i] = 1 / lc
                q_exps = tuple(map(sub, exps, lexps))
                qc = quotients[i][q_exps] = c * inverses[i]
                for e, bc in tail:
                    e = tuple(map(add, q_exps, e))
                    t = qc * bc
                    s = p.get(e)
                    if s is None:
                        p[e] = -t
                        heapq.heappush(heap, entry(e))
                    else:
                        s = s - t
                        if s:
                            p[e] = s
                        else:
                            del p[e]
                break
        else:
            remainder[exps] = c
    return [MultiPoly._adopt(ring, q) for q in quotients], MultiPoly._adopt(ring, remainder)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial: the lcm-of-leading-monomials combination cancelling leads."""
    if not f.terms or not g.terms:
        raise ValidationError("s_polynomial requires nonzero inputs")
    ring = f.ring
    (ef, cf), (eg, cg) = f.leading_term(), g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = MultiPoly(ring, {tuple(l - a for l, a in zip(lcm, ef)): 1 / cf})
    mg = MultiPoly(ring, {tuple(l - a for l, a in zip(lcm, eg)): 1 / cg})
    return mf * f - mg * g
