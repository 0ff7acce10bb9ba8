"""The reference series for the tests: `LaurentSeries`, `ParamChange` and
`series_substitute` over tuples of `Fraction` and `Graded` coefficients, with
negative powers by one pass of J.C.P. Miller's power recurrence.  This is the
route `nsc.laurent` replaced by integer numerators over one denominator; the
tests compare the package's series against it operation by operation.

`Graded` is the monomial r*lam^d, the scalar the polar-term recursion ran on
over Q[lam] before it ran over Q at lam = 1: the graded reference recursion
in the tests runs on it, so each value it reads carries its lam-degree.

`series_reduce` is the sequential route that `nsc.laurent.series_reduce`
replaced: one scaled series subtracted at a time.  It runs on this module's
series or on the package's.
"""

from __future__ import annotations

from fractions import Fraction

from nsc.errors import InternalInconsistencyError, TruncationError, ValidationError

_ZERO = Fraction(0)


def _parts(x):
    return (x.r, x.d) if isinstance(x, Graded) else (x, 0)


class Graded:
    """The monomial r * lam^d: a rational r with a lam-degree d.

    Q embeds as degree 0 and zero is homogeneous of every degree.  Products
    add degrees and division by a rational keeps the degree.  A sum of two
    nonzero values of different degrees is no monomial, so it raises.
    """

    __slots__ = ("r", "d")

    def __init__(self, r, d: int):
        self.r = r if type(r) is Fraction else Fraction(r)
        self.d = d

    def __add__(self, other):
        r, d = _parts(other)
        if r and self.r and d != self.d:
            raise InternalInconsistencyError(f"lam-degree mismatch: {self!r} + {other!r}")
        return Graded(self.r + r, self.d if self.r else d)

    __radd__ = __add__

    def __neg__(self):
        return Graded(-self.r, self.d)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        r, d = _parts(other)
        return Graded(self.r * r, self.d + d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Graded(self.r / other, self.d)

    def __pow__(self, n: int):
        return Graded(self.r ** n, self.d * n)

    def __bool__(self):
        return bool(self.r)

    def __eq__(self, other):
        r, d = _parts(other)
        return self.r == r and (d == self.d or not r)

    def __hash__(self):
        return hash(self.r if self.d == 0 or not self.r else (self.r, self.d))

    def __repr__(self):
        return f"{self.r}*lam^{self.d}"


def _coerce(x):
    if isinstance(x, (Fraction, Graded)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"not an exact scalar: {x!r}")


class LaurentSeries:
    __slots__ = ("var", "low", "coeffs", "cut")

    def __init__(self, var: str, low: int, coeffs, cut: int):
        coeffs = [_coerce(c) for c in coeffs]
        cut = max(cut, low)
        # pad/trim the stored window to exactly [low, cut)
        coeffs = coeffs[: cut - low]
        coeffs += [_ZERO] * (cut - low - len(coeffs))
        # strip known-zero leading coefficients
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            low += 1
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "cut", cut)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, var, cut):
        """Zero, known below cut: the empty window [cut, cut)."""
        return cls(var, cut, [], cut)

    @classmethod
    def monomial(cls, var, exponent, coeff, cut):
        return cls(var, exponent, [coeff], cut)

    # -- inspection -----------------------------------------------------------

    def coefficient(self, exponent: int):
        if exponent >= self.cut:
            raise TruncationError(
                f"coefficient of {self.var}^{exponent} is beyond the truncation "
                f"window [{self.low}, {self.cut}) of {self}"
            )
        if exponent < self.low:
            return _ZERO
        return self.coeffs[exponent - self.low]

    def known_items(self):
        """(exponent, coefficient) pairs over the stored window, ascending."""
        return [(self.low + i, c) for i, c in enumerate(self.coeffs)]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero known coefficient; None if all known are zero."""
        return self.low if self.coeffs else None

    def is_known_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other):
        if self.var != other.var:
            raise ValidationError("series are in different variables")

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.monomial(self.var, 0, other, self.cut)
        self._check_compatible(other)
        low, cut = min(self.low, other.low), min(self.cut, other.cut)
        coeffs = []
        for e in range(low, cut):
            a = self.coeffs[e - self.low] if e >= self.low else _ZERO
            b = other.coeffs[e - other.low] if e >= other.low else _ZERO
            coeffs.append(a + b)
        return LaurentSeries(self.var, low, coeffs, cut)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.var, self.low, [-c for c in self.coeffs], self.cut)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.monomial(self.var, 0, other, self.cut)
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
        low = self.low + other.low
        cut = min(self.cut + other.low, other.cut + self.low)
        width = cut - low
        acc = [_ZERO] * width
        for i, a in enumerate(self.coeffs[:width]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: width - i], start=i):
                if b:
                    acc[j] = acc[j] + a * b
        return LaurentSeries(self.var, low, acc, cut)

    __rmul__ = __mul__

    def truncate(self, cut: int) -> "LaurentSeries":
        """Narrow the known window to exponents < cut."""
        if cut >= self.cut:
            return self
        return LaurentSeries(self.var, self.low, self.coeffs, cut)

    def inverse(self, cut: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse; the lowest coefficient must be a unit."""
        return self.pow(-1, cut)

    def pow(self, n: int, cut: int | None = None) -> "LaurentSeries":
        """self^n on the window [n*v, min(cut, self.cut + (n-1)*v)), v the
        valuation: exactly what inverting and multiplying |n| copies would
        know, and for n = 0 what self * self^-1 knows (empty when
        cut <= n*v).

        n = 0 gives 1 and a positive n multiplies out.  A negative n writes
        self = lead*u^v*(1+h) and builds (1+h)^n in one pass by J.C.P.
        Miller's power recurrence

            b_0 = 1,  b_m = ((n+1)/m) sum_i i*h_i*b_(m-i) - sum_i h_i*b_(m-i),

        whose first sum vanishes at n = -1 (the geometric inverse).
        """
        v = self.low
        out_cut = self.cut + (n - 1) * v
        if cut is not None:
            out_cut = min(out_cut, cut)
        if n == 0:
            return LaurentSeries(self.var, 0, [1], out_cut)
        if n > 0:
            out = self
            for _ in range(n - 1):
                out = out * self
                if v >= 0:
                    # sound: a factor of nonnegative valuation keeps the window
                    out = out.truncate(out_cut)
            return out.truncate(out_cut)
        if not self.coeffs:
            raise ZeroDivisionError("negative power of a (known-)zero series")
        lead = self.coeffs[0]
        unit = None if lead == 1 else lead ** -1
        scale = 1 if unit is None else unit ** -n
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
        return f"{body} + O({self.var}^{self.cut})"

    def __repr__(self):
        return f"LaurentSeries({self})"


class ParamChange:
    """Substitution t = u + c2*u^2 + ..., known below u^order(), with leading
    coefficient exactly 1."""

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
    def identity(cls, var: str, order: int):
        return cls(LaurentSeries.monomial(var, 1, 1, order))

    def order(self) -> int:
        return self.series.cut

    def coefficient(self, exponent: int):
        return self.series.coefficient(exponent)

    def is_identity(self) -> bool:
        return all(not c for e, c in self.series.known_items() if e != 1)

    def compose(self, eps, r: int) -> "ParamChange":
        """Substitution for t = self(w + eps*w^r): one correction step,
        applied inside self."""
        return ParamChange(series_substitute(self.series, eps, r))

    def __eq__(self, other):
        return isinstance(other, ParamChange) and self.series == other.series

    def __repr__(self):
        return f"ParamChange({self.series})"


def series_substitute(s: LaurentSeries, eps, r: int) -> LaurentSeries:
    """Exact coefficients of s(t) with t = u + eps*u^r, r >= 2, on the window
    of s (eps = 0 is the identity).

    Each monomial expands in closed form, u^e -> sum_i C(e,i) eps^i
    u^(e + i(r-1)), with the generalized binomial C(e,i) = C(e,i-1)(e-i+1)/i
    and eps^i built once, so no series product is needed.
    """
    if r < 2:
        raise ValidationError(f"a correction step u + eps*u^r needs r >= 2, got r = {r}")
    items = [(e, c) for e, c in s.known_items() if c]
    tops = []  # the last binomial index each exponent contributes
    for e, _ in items:
        top = (s.cut - 1 - e) // (r - 1)
        if e >= 0:  # C(e,i) = 0 for i > e >= 0
            top = min(top, e)
        tops.append(top if eps else 0)
    eps_pows = [Fraction(1)]
    for _ in range(max(tops, default=0)):
        eps_pows.append(eps_pows[-1] * eps)
    acc = [_ZERO] * len(s.coeffs)
    for (e, c), top in zip(items, tops):
        k = e - s.low
        acc[k] += c
        binom = Fraction(1)
        for i in range(1, top + 1):
            binom = binom * (e - i + 1) / i
            acc[k + i * (r - 1)] += c * eps_pows[i] * binom
    return LaurentSeries(s.var, s.low, acc, s.cut)


def series_reduce(s, divisors):
    """(multipliers, remainder): for each (exponent, d) in order, x is the
    remainder's coefficient at the exponent, and r = r - d.scale(x) if x is
    nonzero."""
    multipliers = []
    for e, d in divisors:
        x = s.coefficient(e)
        multipliers.append(x)
        if x:
            s = s - d.scale(x)
    return multipliers, s
