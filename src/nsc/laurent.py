"""Truncated Laurent series and tangent-preserving parameter changes.

A series stores exact coefficients on an explicit window [low, cut): below
``low`` everything is identically zero, at or above ``cut`` nothing is known.
Every operation produces the tightest sound truncation of its operands;
reading a coefficient beyond the window raises, it is never fabricated.

The coefficients are integer numerators over one positive denominator: the
coefficient at u^e is coeffs[e - low] / den, in lowest terms (den > 0,
gcd(den, *coeffs) = 1, a nonzero first numerator).  Each operation runs on
the integers and divides out the content of its result once.  The scalars
are exact: an int (not a bool) or a `Fraction`, and a coefficient reads back
as a `Fraction`; the exponents and windows are ints.  Anything else raises
`ValidationError`.

`series_substitute` advances s through one correction step t = u + eps*u^r,
given as the pair (eps, r): it expands u^e -> sum_i C(e,i) eps^i
u^(e + i(r-1)) with the generalized binomial C(e,i), which covers e < 0 too,
on the window of s.

`series_reduce` reduces a series against a triangular family of series, one
lead exponent at a time: it reads the coefficient at each exponent and
subtracts that multiple of the family's series, on one list of integer
numerators over one denominator, and divides out the content once.  The
recursion's subtraction stage and the genus-2 presentation both read their
answer off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import TruncationError, ValidationError


def _scalar(x) -> Fraction:
    """An exact scalar, an int (not a bool) or a `Fraction`, as a `Fraction`."""
    if type(x) is Fraction:
        return x
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    raise ValidationError(f"not an exact scalar: {x!r}")


def _int(x, name: str) -> int:
    """x, which must be an int and not a bool."""
    if type(x) is not int:
        raise ValidationError(f"{name} must be an int, got {x!r}")
    return x


class LaurentSeries:
    __slots__ = ("var", "low", "coeffs", "den", "cut")

    def __init__(self, var: str, low: int, coeffs, cut: int):
        """The series with the given coefficients (int or Fraction) from u^low
        on, known below u^cut."""
        values = [_scalar(c) for c in coeffs]
        den = lcm(*(r.denominator for r in values))
        self._set(var, _int(low, "low"), [r.numerator * (den // r.denominator) for r in values], den,
                  _int(cut, "cut"))

    def _set(self, var, low, nums, den, cut):
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
        _set_var(self, var)
        _set_low(self, low + start)
        _set_coeffs(self, tuple(nums))
        _set_den(self, den)
        _set_cut(self, cut)

    @classmethod
    def _of(cls, var, low, nums, den, cut):
        out = cls.__new__(cls)
        out._set(var, low, nums, den, cut)
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

    def coefficient(self, exponent: int) -> Fraction:
        return Fraction(self.numerator(exponent), self.den)

    def known_items(self):
        """(exponent, coefficient) pairs over the stored window, ascending."""
        return [(e, Fraction(x, self.den)) for e, x in enumerate(self.coeffs, self.low)]

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
        low, cut = min(self.low, other.low), min(self.cut, other.cut)
        den = lcm(self.den, other.den)
        acc = [0] * (cut - low)
        for s, f in ((self, den // self.den), (other, sign * (den // other.den))):
            for k, x in enumerate(s.coeffs[:max(cut - s.low, 0)], s.low - low):
                acc[k] += x * f
        return LaurentSeries._of(self.var, low, acc, den, cut)

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return LaurentSeries._of(self.var, self.low, [-x for x in self.coeffs], self.den, self.cut)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        r = _scalar(c)
        return LaurentSeries._of(self.var, self.low, [r.numerator * x for x in self.coeffs],
                                 self.den * r.denominator, self.cut)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        self._check_compatible(other)
        low = self.low + other.low
        cut = min(self.cut + other.low, other.cut + self.low)
        width = cut - low
        acc = [0] * width
        for i, a in enumerate(self.coeffs[:width]):
            if a:
                for j, b in enumerate(other.coeffs[:width - i], i):
                    acc[j] += a * b
        return LaurentSeries._of(self.var, low, acc, self.den * other.den, cut)

    __rmul__ = __mul__

    def truncate(self, cut: int) -> "LaurentSeries":
        """Narrow the known window to exponents < cut."""
        if _int(cut, "cut") >= self.cut:
            return self
        return LaurentSeries._of(self.var, self.low, self.coeffs, self.den, cut)

    def inverse(self, cut: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse on [-v, min(cut, self.cut - 2v)), v the
        valuation; the lowest coefficient must be a unit.

        With self = (u^v/den) sum_i a_i u^i, the numerators N_0 = a_0^(T-1),
        N_m = -(sum_{i=1..m} a_i N_(m-i)) / a_0, each division exact, give
        self^-1 = (den u^-v / a_0^T) sum_m N_m u^m on T terms."""
        if not self.coeffs:
            raise ZeroDivisionError("negative power of a (known-)zero series")
        v = self.low
        out_cut = self.cut - 2 * v if cut is None else min(_int(cut, "cut"), self.cut - 2 * v)
        terms = max(out_cut + v, 0)
        a = self.coeffs
        nums = [a[0] ** (terms - 1)] if terms else []
        for m in range(1, terms):
            nums.append(-sum(a[i] * nums[m - i] for i in range(1, m + 1) if a[i]) // a[0])
        sign = -1 if a[0] < 0 and terms % 2 else 1
        nums = [sign * self.den * x for x in nums]
        return LaurentSeries._of(self.var, -v, nums, abs(a[0]) ** terms, out_cut)

    # -- comparison / printing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.low == other.low
            and self.cut == other.cut
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.low, self.cut, tuple(c for _, c in self.known_items())))

    def __str__(self):
        parts = []
        for e, c in self.known_items():
            if not c:
                continue
            cs = str(c)
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
_set_var, _set_low, _set_coeffs, _set_den, _set_cut = (
    getattr(LaurentSeries, name).__set__ for name in LaurentSeries.__slots__)


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
    of s (eps = 0 is the identity).  r must be an int.

    Each monomial expands in closed form, u^e -> sum_i C(e,i) eps^i
    u^(e + i(r-1)), with the generalized binomial C(e,i) = C(e,i-1)(e-i+1)/i.
    With eps = p/q folded into the denominator as q^top, top the largest
    index i the window reaches, the terms are the integers
    C(e,i) p^i q^(top-i): no series product and one content division.
    """
    if _int(r, "r") < 2:
        raise ValidationError(f"a correction step u + eps*u^r needs r >= 2, got r = {r}")
    value = _scalar(eps)
    p, q, size = value.numerator, value.denominator, len(s.coeffs)
    top = max(size - 1, 0) // (r - 1) if p else 0
    if not top:  # no term u^(e + i(r-1)), i >= 1, lands in the window
        return s
    pq = [p ** i * q ** (top - i) for i in range(top + 1)]
    step, lead = r - 1, pq[0]
    acc = [x * lead for x in s.coeffs]  # the i = 0 terms
    for k, x in enumerate(s.coeffs[:size - step]):  # the rest map past the window
        if x:
            e, binom, i = s.low + k, 1, 0
            stop = k + e * step + 1  # C(e,i) = 0 for i > e >= 0
            if e < 0 or stop > size:
                stop = size
            for at in range(k + step, stop, step):  # at = k + i*step
                i += 1
                binom = binom * (e - i + 1) // i
                acc[at] += x * binom * pq[i]
    return LaurentSeries._of(s.var, s.low, acc, s.den * q ** top, s.cut)


def series_reduce(s: LaurentSeries, divisors):
    """Reduce s against (exponent, series) pairs, in order: read the running
    remainder's coefficient x at the exponent, as `coefficient` reads it, and
    subtract x times the series when x is nonzero.  Returns (multipliers,
    remainder), the multipliers being every x read, zeros included.

    The remainder equals the sequential r = r - d.scale(x) in value, window
    and den.  It runs on one list of integer
    numerators over one denominator: a step x = p/q rescales the list to
    lcm(den, q*d.den) and subtracts the integers of x*d; the content is
    divided out once, at the end.
    """
    var, low, cut, den = s.var, s.low, s.cut, s.den
    nums = list(s.coeffs)
    multipliers = []
    for e, d in divisors:
        if e >= cut:  # the remainder's own read raises the TruncationError
            LaurentSeries._of(var, low, nums, den, cut).numerator(e)
        x = nums[e - low] if e >= low else 0
        value = Fraction(x, den)
        multipliers.append(value)
        if not x:
            continue
        if d.var != var:
            raise ValidationError("series are in different variables")
        step = value.denominator * d.den
        new = lcm(den, step)
        a, b = new // den, value.numerator * (new // step)
        if d.low < low:
            nums[:0] = [0] * (low - d.low)
            low = d.low
        cut = min(cut, d.cut)
        del nums[cut - low:]
        if a != 1:
            nums = [a * y for y in nums]
        part = d.coeffs[:max(cut - d.low, 0)]
        at = d.low - low
        nums[at:at + len(part)] = [y - b * z for y, z in zip(nums[at:at + len(part)], part)]
        den = new
    return multipliers, LaurentSeries._of(var, low, nums, den, cut)
