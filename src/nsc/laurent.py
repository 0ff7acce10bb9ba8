"""Truncated Laurent series and tangent-preserving parameter changes.

A series stores exact coefficients on an explicit window [low, cut): below
``low`` everything is identically zero, at or above ``cut`` nothing is known.
Every operation produces the tightest sound truncation of its operands;
reading a coefficient beyond the window raises, it is never fabricated.

The coefficients are integer numerators over one positive denominator: the
coefficient at u^e is coeffs[e - low] / den, in lowest terms (den > 0,
gcd(den, *coeffs) = 1, a nonzero first numerator).  Each operation runs on
the integers and divides out the content of its result once.  A series may
carry a lam weight w: its coefficient at u^e is then the monomial
r*lam^(w+e), read as a `Graded` (a plain rational where w+e = 0), the scalar
of the polar-term recursion.  A plain series has w = None.  Sums need equal
weights, products add them, and a series with no nonzero coefficient takes
any weight; any other mix raises.

`series_substitute` advances s through one correction step t = u + eps*u^r,
given as the pair (eps, r): it expands u^e -> sum_i C(e,i) eps^i
u^(e + i(r-1)) with the generalized binomial C(e,i), which covers e < 0 too,
on the window of s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalInconsistencyError, TruncationError, ValidationError
from .rational import Graded


def _scalar(x):
    """(value, lam-degree) of an exact scalar; zero and plain rationals have
    degree 0."""
    if type(x) is Fraction:
        return x, 0
    if isinstance(x, Graded):
        return x.r, x.d if x.r else 0
    if isinstance(x, (int, Fraction)):
        return Fraction(x), 0
    raise ValidationError(f"not an exact scalar: {x!r}")



class LaurentSeries:
    __slots__ = ("var", "low", "coeffs", "den", "cut", "w")

    def __init__(self, var: str, low: int, coeffs, cut: int):
        """The series with the given coefficients (int, Fraction or `Graded`)
        from u^low on, known below u^cut.  Any `Graded` value makes it
        weighted; its nonzero values must then be homogeneous, r*lam^(w+e)
        at u^e for one w, a plain rational counting as lam^0."""
        values = [_scalar(c) for c in coeffs]
        w = None
        if any(isinstance(c, Graded) for c in coeffs):
            weights = {d - e for e, (r, d) in enumerate(values, low) if r}
            if len(weights) > 1:
                raise ValidationError(f"coefficients not homogeneous in lam: {coeffs!r}")
            w = weights.pop() if weights else None
        den = lcm(*(r.denominator for r, _ in values))
        self._set(var, low, [r.numerator * (den // r.denominator) for r, _ in values], den, cut, w)

    def _set(self, var, low, nums, den, cut, w):
        """Store nums[k]/den at u^(low+k) on [low, cut), in lowest terms."""
        cut = max(cut, low)
        if len(nums) != cut - low:
            nums = list(nums[:cut - low]) + [0] * (cut - low - len(nums))
        start = 0
        while start < len(nums) and not nums[start]:
            start += 1
        content = gcd(den, *nums)
        if content != 1 or start:
            nums = [x // content for x in nums[start:]]
            den //= content
        for put, value in zip(_SLOTS, (var, low + start, tuple(nums), den, cut, w)):
            put(self, value)

    @classmethod
    def _of(cls, var, low, nums, den, cut, w):
        out = cls.__new__(cls)
        out._set(var, low, nums, den, cut, w)
        return out

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

    def numerator(self, exponent: int) -> int:
        """The integer numerator of the coefficient at u^exponent over den."""
        if exponent >= self.cut:
            raise TruncationError(
                f"coefficient of {self.var}^{exponent} is beyond the truncation "
                f"window [{self.low}, {self.cut}) of {self}"
            )
        return self.coeffs[exponent - self.low] if exponent >= self.low else 0

    def _value(self, x: int, exponent: int):
        r = Fraction(x, self.den)
        return r if self.w is None or self.w + exponent == 0 else Graded(r, self.w + exponent)

    def coefficient(self, exponent: int):
        return self._value(self.numerator(exponent), exponent)

    def known_items(self):
        """(exponent, coefficient) pairs over the stored window, ascending."""
        return [(e, self._value(x, e)) for e, x in enumerate(self.coeffs, self.low)]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero known coefficient; None if all known are zero."""
        return self.low if self.coeffs else None

    def is_known_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other):
        if self.var != other.var:
            raise ValidationError("series are in different variables")

    def _plus(self, other: "LaurentSeries", sign: int):
        """self + sign*other."""
        self._check_compatible(other)
        if self.w != other.w and self.coeffs and other.coeffs:
            raise InternalInconsistencyError(f"lam-degree mismatch: {self!r} and {other!r}")
        w = self.w if self.coeffs else other.w
        low, cut = min(self.low, other.low), min(self.cut, other.cut)
        den = lcm(self.den, other.den)
        acc = [0] * (cut - low)
        for s, f in ((self, den // self.den), (other, sign * (den // other.den))):
            for k, x in enumerate(s.coeffs[:max(cut - s.low, 0)], s.low - low):
                acc[k] += x * f
        return LaurentSeries._of(self.var, low, acc, den, cut, w)

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return LaurentSeries._of(self.var, self.low, [-x for x in self.coeffs], self.den, self.cut, self.w)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        r, d = _scalar(c)
        if d and self.w is None and self.coeffs:
            raise InternalInconsistencyError(f"lam-degree mismatch: a plain series {self!r} times lam^{d}")
        w = None if self.w is None else self.w + d
        return LaurentSeries._of(self.var, self.low, [r.numerator * x for x in self.coeffs],
                                 self.den * r.denominator, self.cut, w)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        self._check_compatible(other)
        if (self.w is None) != (other.w is None) and self.coeffs and other.coeffs:
            raise InternalInconsistencyError(f"lam-degree mismatch: a plain and a weighted series, {self!r} * {other!r}")
        w = None if self.w is None or other.w is None else self.w + other.w
        low = self.low + other.low
        cut = min(self.cut + other.low, other.cut + self.low)
        width = cut - low
        acc = [0] * width
        for i, a in enumerate(self.coeffs[:width]):
            if a:
                for j, b in enumerate(other.coeffs[:width - i], i):
                    acc[j] += a * b
        return LaurentSeries._of(self.var, low, acc, self.den * other.den, cut, w)

    __rmul__ = __mul__

    def truncate(self, cut: int) -> "LaurentSeries":
        """Narrow the known window to exponents < cut."""
        if cut >= self.cut:
            return self
        return LaurentSeries._of(self.var, self.low, self.coeffs, self.den, cut, self.w)

    # no caller in the package: kept as perfbench/tracing.py wraps it by name
    def inverse(self, cut: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse on [-v, min(cut, self.cut - 2v)), v the
        valuation; the lowest coefficient must be a unit.

        With self = (u^v/den) sum_i a_i u^i, the numerators N_0 = a_0^(T-1),
        N_m = -(sum_{i=1..m} a_i N_(m-i)) / a_0, each division exact, give
        self^-1 = (den u^-v / a_0^T) sum_m N_m u^m on T terms."""
        if not self.coeffs:
            raise ZeroDivisionError("negative power of a (known-)zero series")
        v = self.low
        out_cut = self.cut - 2 * v if cut is None else min(cut, self.cut - 2 * v)
        terms = max(out_cut + v, 0)
        a = self.coeffs
        nums = [a[0] ** (terms - 1)] if terms else []
        for m in range(1, terms):
            nums.append(-sum(a[i] * nums[m - i] for i in range(1, m + 1) if a[i]) // a[0])
        sign = -1 if a[0] < 0 and terms % 2 else 1
        nums = [sign * self.den * x for x in nums]
        w = None if self.w is None else -self.w
        return LaurentSeries._of(self.var, -v, nums, abs(a[0]) ** terms, out_cut, w)

    # -- comparison / printing ---------------------------------------------------

    def _degree(self, exponent: int) -> int:
        return 0 if self.w is None else self.w + exponent

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.low == other.low
            and self.cut == other.cut
            and self.den == other.den
            and self.coeffs == other.coeffs
            # a plain coefficient equals the same rational at lam^0
            and (self.w == other.w or all(self._degree(e) == other._degree(e)
                                          for e, x in enumerate(self.coeffs, self.low) if x))
        )

    def __hash__(self):
        return hash((self.var, self.low, self.cut, tuple(c for _, c in self.known_items())))

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


# the slots' own setters: LaurentSeries.__setattr__ refuses every assignment
_SLOTS = tuple(getattr(LaurentSeries, name).__set__ for name in LaurentSeries.__slots__)


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
        return not any(self.series.coeffs[1:])  # the lead is the 1 at u^1

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
    of s (eps = 0 is the identity).  Over a weighted s, eps must have
    lam-degree r - 1, and over a plain one it must be a plain rational.

    Each monomial expands in closed form, u^e -> sum_i C(e,i) eps^i
    u^(e + i(r-1)), with the generalized binomial C(e,i) = C(e,i-1)(e-i+1)/i.
    With eps = p/q folded into the denominator as q^top, top the largest
    index i the window reaches, the terms are the integers
    C(e,i) p^i q^(top-i): no series product and one content division.
    """
    if r < 2:
        raise ValidationError(f"a correction step u + eps*u^r needs r >= 2, got r = {r}")
    value, d = _scalar(eps)
    need = 0 if s.w is None else r - 1
    if value and s.coeffs and d != need:
        raise InternalInconsistencyError(f"a step u + ({eps!r})*u^{r} on this series needs a lam^{need} coefficient")
    p, q, size = value.numerator, value.denominator, len(s.coeffs)
    top = max(size - 1, 0) // (r - 1) if p else 0
    pq = [p ** i * q ** (top - i) for i in range(top + 1)]
    acc = [0] * size
    for k, x in enumerate(s.coeffs):
        if x:
            e, binom, last = s.low + k, 1, min(top, (size - 1 - k) // (r - 1))
            acc[k] += x * pq[0]
            for i in range(1, (last if e < 0 else min(last, e)) + 1):  # C(e,i) = 0 for i > e >= 0
                binom = binom * (e - i + 1) // i
                acc[k + i * (r - 1)] += x * binom * pq[i]
    return LaurentSeries._of(s.var, s.low, acc, s.den * q ** top, s.cut, s.w)
