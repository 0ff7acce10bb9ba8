"""Exact rational scalars and their wire format.

The base scalar everywhere is `fractions.Fraction`, which already stores
values in lowest terms with a positive denominator and never rounds.  This
module pins the textual grammar used by every external interface: decimal-free
literals ``p`` or ``p/q``.  `Graded` is a rational carrying a lam-degree, the
scalar of the polar-term recursion.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InternalInconsistencyError, ValidationError

Rational = Fraction

# ASCII digits only: \d, str.isdigit and int() also take other scripts' digits
INTEGER = "-?[0-9]+"
_RATIONAL_RE = re.compile(rf"({INTEGER})(?:/([1-9][0-9]*))?")


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """Parse a decimal-free rational literal ``p`` or ``p/q``; the error
    names `what`."""
    m = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValidationError(f"{what}: expected a string 'p' or 'p/q' in ASCII digits, got {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Render exactly, as ``p`` or ``p/q``."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
