"""Truncated Laurent series and tangent-preserving parameter changes.

A series stores exact coefficients on an explicit window [low, cut): below
``low`` everything is identically zero, at or above ``cut`` nothing is known.
``cut is None`` marks a Laurent polynomial (identically zero beyond the stored
window).  Every operation produces the tightest sound truncation of its
operands; reading a coefficient beyond the window raises, it is never
fabricated.

Composition has two closed forms that need no series product:

* a negative power p^n = lead^n u^(nv) (1+h)^n is one pass of J.C.P.
  Miller's power recurrence, on the window [nv, min(cut, p.cut + (n-1)v));
* `series_substitute` takes exact two-term changes t = u + eps*u^r only,
  and expands u^e -> sum_i C(e,i) eps^i u^(e + i(r-1)) with the generalized
  binomial C(e,i), which covers e < 0 too, on the window below
  min(cut, s.cut).

A negative power asked for below its valuation returns the empty window
[nv, nv).

Coefficients are `Fraction` (an int is stored as one) or `Graded`, the
rational with a lam-degree that the polar-term recursion computes with.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TruncationError, ValidationError
from .rational import Graded

_ZERO = Fraction(0)


def _coerce(x):
    if isinstance(x, (Fraction, Graded)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"not an exact scalar: {x!r}")


class LaurentSeries:
    __slots__ = ("var", "low", "coeffs", "cut")

    def __init__(self, var: str, low: int, coeffs, cut: int | None = None):
        coeffs = [_coerce(c) for c in coeffs]
        if cut is not None:
            if cut < low:
                cut = low
            # pad/trim the stored window to exactly [low, cut)
            coeffs = coeffs[: cut - low]
            coeffs += [_ZERO] * (cut - low - len(coeffs))
        # strip known-zero leading coefficients
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            low += 1
        if cut is None:
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        if not coeffs:
            low = 0 if cut is None else cut
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "cut", cut)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, var, cut=None):
        """Zero, known below cut: the empty window [cut, cut)."""
        return cls(var, 0 if cut is None else cut, [], cut)

    @classmethod
    def monomial(cls, var, exponent, coeff=1, cut=None):
        return cls(var, exponent, [coeff], cut)

    # -- inspection -----------------------------------------------------------

    def coefficient(self, exponent: int):
        if self.cut is not None and exponent >= self.cut:
            raise TruncationError(
                f"coefficient of {self.var}^{exponent} is beyond the truncation "
                f"window [{self.low}, {self.cut}) of {self}"
            )
        if exponent < self.low or exponent >= self.low + len(self.coeffs):
            return _ZERO
        return self.coeffs[exponent - self.low]

    def known_items(self):
        """(exponent, coefficient) pairs over the stored window, ascending."""
        return [(self.low + i, c) for i, c in enumerate(self.coeffs)]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero known coefficient; None if all known are zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.low + i
        return None

    def is_known_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other):
        if self.var != other.var:
            raise ValidationError("series are in different variables")

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.monomial(self.var, 0, other)
        self._check_compatible(other)
        cuts = [c for c in (self.cut, other.cut) if c is not None]
        cut = min(cuts) if cuts else None
        low = min(self.low, other.low) if (self.coeffs or other.coeffs) else 0
        high = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        if cut is not None:
            high = cut
        coeffs = []
        for e in range(low, high):
            a = self.coeffs[e - self.low] if 0 <= e - self.low < len(self.coeffs) else _ZERO
            b = other.coeffs[e - other.low] if 0 <= e - other.low < len(other.coeffs) else _ZERO
            coeffs.append(a + b)
        return LaurentSeries(self.var, low, coeffs, cut)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.var, self.low, [-c for c in self.coeffs], self.cut)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.monomial(self.var, 0, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = _coerce(c)
        return LaurentSeries(self.var, self.low, [c * x if x else x for x in self.coeffs], self.cut)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        self._check_compatible(other)
        cuts = []
        if self.cut is not None:
            cuts.append(self.cut + other.low)
        if other.cut is not None:
            cuts.append(other.cut + self.low)
        cut = min(cuts) if cuts else None
        low = self.low + other.low
        high = (self.low + len(self.coeffs)) + (other.low + len(other.coeffs)) - 1
        if cut is not None:
            high = cut
        acc = {e: _ZERO for e in range(low, max(high, low))}
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                e = self.low + i + other.low + j
                if cut is not None and e >= cut:
                    break
                if b:
                    acc[e] = acc[e] + a * b
        coeffs = [acc.get(e, _ZERO) for e in range(low, high)]
        return LaurentSeries(self.var, low, coeffs, cut)

    __rmul__ = __mul__

    def truncate(self, cut: int) -> "LaurentSeries":
        """Narrow the known window to exponents < cut."""
        if self.cut is None and self.low + len(self.coeffs) <= cut:
            return self
        if self.cut is not None and cut >= self.cut:
            return self
        return LaurentSeries(self.var, self.low, list(self.coeffs)[: max(0, cut - self.low)], cut)

    def with_cut(self, cut: int) -> "LaurentSeries":
        """Forget everything at exponents >= cut, marking the window explicitly
        (unlike truncate, this turns an exact series into a truncated one)."""
        return LaurentSeries(self.var, self.low, list(self.coeffs)[: max(0, cut - self.low)], cut)

    def inverse(self, cut: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse; the lowest coefficient must be a unit."""
        return self.pow(-1, cut)

    def pow(self, n: int, cut: int | None = None) -> "LaurentSeries":
        """self^n, truncated below cut.

        A positive n multiplies out.  A negative n writes self = lead*u^v*(1+h)
        and builds (1+h)^n in one pass by J.C.P. Miller's power recurrence

            b_0 = 1,  b_m = ((n+1)/m) sum_i i*h_i*b_(m-i) - sum_i h_i*b_(m-i),

        whose first sum vanishes at n = -1 (the geometric inverse).  The window
        is [n*v, min(cut, self.cut + (n-1)*v)): exactly what inverting and
        multiplying |n| copies would know (empty when cut <= n*v).
        """
        if n == 0:
            one = LaurentSeries.monomial(self.var, 0, 1)
            return one if cut is None else one.truncate(cut)
        if n > 0:
            # ascending powers: intermediate truncation at cut is sound only
            # when multiplying by a series with nonnegative valuation
            safe_trunc = cut is not None and self.low >= 0
            out = self
            for _ in range(n - 1):
                out = out * self
                if safe_trunc:
                    out = out.truncate(cut)
            return out if cut is None else out.truncate(cut)
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("negative power of a (known-)zero series")
        lead = self.coefficient(v)
        unit = None if lead == 1 else lead ** -1
        scale = 1 if unit is None else unit ** -n
        bounds = []
        if self.cut is not None:
            bounds.append(self.cut + (n - 1) * v)
        if cut is not None:
            bounds.append(cut)
        if not bounds:
            if len(self.coeffs) == 1:
                return LaurentSeries.monomial(self.var, n * v, scale)
            raise ValidationError("inverse of a polynomial is an infinite series; pass cut")
        out_cut = min(bounds)
        terms = max(out_cut - n * v, 0)
        h = list(self.coeffs[:terms])  # h[0] = lead is never read
        h += [_ZERO] * (terms - len(h))
        if unit is not None:
            h = [c * unit for c in h]
        miller = n != -1
        b = [Fraction(1)][:terms]
        for m in range(1, terms):
            # tail runs through sum_{i>=j} h_i*b_(m-i) for j = m..1: it ends as
            # the second sum, and the tails add up to the first, sum_i i*h_i*b_(m-i)
            tail = first = _ZERO
            for i in range(m, 0, -1):
                if h[i]:
                    tail += h[i] * b[m - i]
                if miller:
                    first += tail
            b.append(first * Fraction(n + 1, m) - tail if miller else -tail)
        if unit is not None:
            b = [scale * c for c in b]
        return LaurentSeries(self.var, n * v, b, out_cut)

    # -- comparison / printing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.low == other.low
            and self.cut == other.cut
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.low, self.cut, self.coeffs))

    def __str__(self):
        parts = []
        for e, c in self.known_items():
            if not c:
                continue
            cs = str(c)
            cs = f"({cs})" if (" " in cs or "*" in cs) else cs
            if e == 0:
                parts.append(cs)
            else:
                mono = self.var if e == 1 else f"{self.var}^{e}"
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.cut is None else f" + O({self.var}^{self.cut})"
        return body + tail

    def __repr__(self):
        return f"LaurentSeries({self})"


class ParamChange:
    """Substitution t = u + c2*u^2 + ... with leading coefficient exactly 1."""

    __slots__ = ("series",)

    def __init__(self, series: LaurentSeries):
        if series.low < 1:
            raise ValidationError("parameter change must have positive valuation")
        if series.coefficient(1) != 1:
            raise ValidationError("parameter change must be tangent-preserving (leading coefficient 1)")
        object.__setattr__(self, "series", series)

    def __setattr__(self, *a):
        raise AttributeError("ParamChange is immutable")

    @classmethod
    def identity(cls, var: str, order: int | None = None):
        return cls(LaurentSeries.monomial(var, 1, 1, cut=order))

    def order(self) -> int | None:
        return self.series.cut

    def coefficient(self, exponent: int):
        return self.series.coefficient(exponent)

    def is_identity(self) -> bool:
        return all(not c for e, c in self.series.known_items() if e != 1)

    def compose(self, inner: "ParamChange") -> "ParamChange":
        """Substitution for t = self(inner(w)): apply inner, an exact two-term
        change, inside self."""
        return ParamChange(series_substitute(self.series, inner))

    def __eq__(self, other):
        return isinstance(other, ParamChange) and self.series == other.series

    def __repr__(self):
        return f"ParamChange({self.series})"


def series_substitute(s: LaurentSeries, pc: ParamChange, cut: int | None = None) -> LaurentSeries:
    """Exact coefficients of s(t) with t = pc(u), for an exact two-term change
    t = u + eps*u^r, on the window below min(cut, s.cut).

    Each monomial expands in closed form, u^e -> sum_i C(e,i) eps^i
    u^(e + i(r-1)) with the generalized binomial C(e,i), so no series
    product is needed.  The window is unbounded only for an exact s with
    s.low >= 0; an exact s with a pole raises (the tail is infinite).  Any
    other change raises ValidationError.
    """
    p = pc.series
    shape = _binomial_shape(p)
    if shape is None:
        raise ValidationError(f"series_substitute takes an exact change u + eps*u^r, not {p}")
    bounds = [c for c in (s.cut, cut) if c is not None]
    if bounds:
        out_cut = min(bounds)
    else:
        if s.low < 0:
            raise TruncationError(
                "composition has an infinite tail; pass an explicit cut"
            )
        out_cut = None
    items = [(e, c) for e, c in s.known_items() if c and (out_cut is None or e < out_cut)]
    if not items:
        return LaurentSeries.zero(p.var, out_cut)
    return _substitute_binomial(items, *shape, p.var, out_cut)


def _binomial_shape(p: LaurentSeries):
    """(eps, r) when p is exactly u + eps*u^r with r >= 2 (eps = 0 for the
    identity), else None."""
    c = p.coeffs
    if p.cut is not None or any(c[1:-1]):
        return None
    if len(c) == 1:  # the identity: eps = 0
        return _ZERO, 2
    return c[-1], p.low + len(c) - 1


def _substitute_binomial(items, eps, r, var, out_cut) -> LaurentSeries:
    """sum_e c_e (u + eps*u^r)^e over the (exponent, coefficient) items,
    with the binomials C(e,i) = C(e,i-1)*(e-i+1)/i and eps^i built once."""
    tops = []  # the last binomial index each exponent contributes
    for e, _ in items:
        top = e if e >= 0 else None  # C(e,i) = 0 for i > e >= 0
        if out_cut is not None:
            window = (out_cut - 1 - e) // (r - 1)
            top = window if top is None else min(top, window)
        tops.append(top if eps else 0)
    eps_pows = [Fraction(1)]
    for _ in range(max(tops)):
        eps_pows.append(eps_pows[-1] * eps)
    k0 = items[0][0]
    high = out_cut if out_cut is not None else max(e + t * (r - 1) for (e, _), t in zip(items, tops)) + 1
    acc = [_ZERO] * (high - k0)
    for (e, c), top in zip(items, tops):
        acc[e - k0] += c
        binom = Fraction(1)
        for i in range(1, top + 1):
            binom = binom * (e - i + 1) / i
            acc[e - k0 + i * (r - 1)] += c * eps_pows[i] * binom
    return LaurentSeries(var, k0, acc, out_cut)
