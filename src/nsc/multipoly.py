"""Sparse multivariate polynomials over an exact coefficient ring.

Coefficients are either `fractions.Fraction` or polynomials from another
`PolyRing` (nested rings give Q[q...][f,h,k] and friends).  The monomial
order is weighted degree-reverse-lexicographic with exponent vectors listed
largest variable first: among equal weighted degrees the monomial whose last
nonzero exponent difference is negative is the larger one.  Under this
convention (precedence k > h > f, weights 5,4,3) the leading monomials of the
genus-2 relation shapes are h^2, hk, k^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


@dataclass(frozen=True)
class MonomialOrder:
    """Weighted degrevlex on exponent tuples (largest variable first)."""

    variables: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.variables) != len(self.weights):
            raise ValidationError("one weight per variable required")
        if any(w <= 0 or not isinstance(w, int) for w in self.weights):
            raise ValidationError("weights must be positive integers")

    def weighted_degree(self, exps) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def sort_key(self, exps):
        """Key increasing with the order; usable with max()."""
        return (self.weighted_degree(exps), tuple(-e for e in reversed(exps)))


class PolyRing:
    """Polynomial ring with named weighted variables over QQ or another PolyRing."""

    def __init__(self, variables, weights=None, base=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValidationError("duplicate variable names")
        if weights is None:
            weights = (1,) * len(variables)
        self.variables = variables
        self.weights = tuple(weights)
        self.base = base  # None means Fraction coefficients
        self.order = MonomialOrder(variables, self.weights)
        self._index = {v: i for i, v in enumerate(variables)}

    # -- coefficient domain -------------------------------------------------

    def coeff_zero(self):
        return Fraction(0) if self.base is None else self.base.zero()

    def coeff_one(self):
        return Fraction(1) if self.base is None else self.base.one()

    def coerce_coeff(self, x):
        if self.base is None:
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            if isinstance(x, MultiPoly):
                const = x.constant_value_or_none()
                if const is not None:
                    return const
            raise ValidationError(f"cannot coerce {x!r} into QQ")
        if isinstance(x, MultiPoly) and x.ring == self.base:
            return x
        return self.base.const(x)

    # -- element constructors -----------------------------------------------

    def element(self, terms: dict) -> "MultiPoly":
        clean = {}
        n = len(self.variables)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValidationError(f"bad exponent vector {exps!r}")
            c = self.coerce_coeff(c)
            if c:
                acc = clean.get(exps)
                c = c if acc is None else acc + c
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        return MultiPoly(self, clean)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c) -> "MultiPoly":
        c = self.coerce_coeff(c)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * len(self.variables): c})

    def var(self, name: str) -> "MultiPoly":
        if name not in self._index:
            raise ValidationError(f"unknown variable {name!r}")
        exps = [0] * len(self.variables)
        exps[self._index[name]] = 1
        return MultiPoly(self, {tuple(exps): self.coeff_one()})

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
        return (
            self.variables == other.variables
            and self.weights == other.weights
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.variables, self.weights, self.base))

    def __repr__(self):
        base = "QQ" if self.base is None else repr(self.base)
        return f"{base}[{','.join(self.variables)}]"


def _coeff_is_rational(c) -> bool:
    return isinstance(c, (int, Fraction))


def _coeff_invert(c):
    """Inverse of a coefficient; only units (nonzero constants) are invertible."""
    if _coeff_is_rational(c):
        if c == 0:
            raise ZeroDivisionError("zero coefficient")
        return Fraction(1) / c
    const = c.constant_value_or_none()
    if const is None:
        raise ValidationError(f"leading coefficient {c} is not a unit")
    return c.ring.const(Fraction(1) / const)


def _coeff_weights(c):
    """Set of weighted degrees carried by a coefficient (0 for rationals)."""
    if _coeff_is_rational(c):
        return {0} if c else set()
    out = set()
    for exps, cc in c.terms.items():
        d = c.ring.order.weighted_degree(exps)
        out.update(d + w for w in _coeff_weights(cc))
    return out


class MultiPoly:
    """Immutable sparse polynomial: map exponent tuple -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", dict(terms))

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
        if not isinstance(other, MultiPoly) or other.ring != self.ring:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def coefficient(self, exps):
        """Coefficient at the exponent tuple (zero of the base if absent)."""
        return self.terms.get(tuple(exps), self.ring.coeff_zero())

    def constant_value_or_none(self):
        """The constant rational value if the polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        zero_exp = (0,) * len(self.ring.variables)
        if set(self.terms) != {zero_exp}:
            return None
        c = self.terms[zero_exp]
        if _coeff_is_rational(c):
            return Fraction(c)
        return c.constant_value_or_none()

    # -- arithmetic ------------------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly) and other.ring == self.ring:
            return other
        return self.ring.const(other)

    def __add__(self, other):
        try:
            other = self._coerce_operand(other)
        except ValidationError:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps)
            s = c if s is None else s + c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        return MultiPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        try:
            other = self._coerce_operand(other)
        except ValidationError:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return MultiPoly(self.ring, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """Division by a unit scalar only."""
        inv = _coeff_invert(self.ring.coerce_coeff(scalar))
        return MultiPoly(self.ring, {e: c * inv for e, c in self.terms.items()})

    def __pow__(self, n: int):
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
        exps = max(self.terms, key=self.ring.order.sort_key)
        return exps, self.terms[exps]

    def monomials(self):
        return set(self.terms)

    def weighted_degrees(self):
        """All total weighted degrees present, coefficients' grading included."""
        out = set()
        for exps, c in self.terms.items():
            d = self.ring.order.weighted_degree(exps)
            out.update(d + w for w in _coeff_weights(c))
        return out

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
        """Substitute ring elements for variables (others left alone)."""
        values = {}
        for name, val in assignments.items():
            if name not in self.ring._index:
                raise ValidationError(f"unknown variable {name!r}")
            values[self.ring._index[name]] = self._coerce_operand(val)
        out = self.ring.zero()
        for exps, c in self.terms.items():
            term = self.ring.const(c)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i in values:
                    term = term * values[i] ** e
                else:
                    mono = [0] * len(exps)
                    mono[i] = e
                    term = term * MultiPoly(self.ring, {tuple(mono): self.ring.coeff_one()})
            out = out + term
        return out

    # -- printing ---------------------------------------------------------------

    def _coeff_str(self, c) -> str:
        if _coeff_is_rational(c):
            from .rational import format_rational

            return format_rational(Fraction(c))
        s = str(c)
        return f"({s})" if len(c.terms) > 1 else s

    def __str__(self):
        if not self.terms:
            return "0"
        order = self.ring.order
        parts = []
        for exps in sorted(self.terms, key=order.sort_key, reverse=True):
            c = self.terms[exps]
            mono = self.ring.monomial_str(exps)
            cs = self._coeff_str(c)
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def poly_reduce(f: MultiPoly, basis):
    """Multivariate division: f = sum(q_i * basis_i) + remainder.

    No remainder term is divisible by any basis leading monomial.  Divisor
    choice is deterministic (first match in basis order), so quotients are
    reproducible; the remainder is basis-order independent exactly when the
    basis is a Groebner basis.
    """
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
                q = MultiPoly(ring, {q_exps: c * _coeff_invert(lc)})
                quotients[i] = quotients[i] + q
                p = p - q * basis[i]
                break
        else:
            t = MultiPoly(ring, {exps: c})
            remainder = remainder + t
            p = p - t
    return quotients, remainder


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial: the lcm-of-leading-monomials combination cancelling leads."""
    if not f.terms or not g.terms:
        raise ValidationError("s_polynomial requires nonzero inputs")
    ring = f.ring
    (ef, cf), (eg, cg) = f.leading_term(), g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = MultiPoly(ring, {tuple(l - a for l, a in zip(lcm, ef)): _coeff_invert(cf)})
    mg = MultiPoly(ring, {tuple(l - a for l, a in zip(lcm, eg)): _coeff_invert(cg)})
    return mf * f - mg * g
