"""Exact rational scalars and their wire format.

The base scalar everywhere is `fractions.Fraction`, which already stores
values in lowest terms with a positive denominator and never rounds.  This
module pins the textual grammar used by every external interface: decimal-free
literals ``p`` or ``p/q``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError

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
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

