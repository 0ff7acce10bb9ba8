"""The reference expansions for the tests: `_expansion`, `_elt_expansion` and
`_binom_neg` as they were before every expansion became a combination of
element series, each element expanded by one binomial formula.  `_expansion`
sums `Fraction` products over the ambient elements; `_elt_expansion` writes
out each kind of element separately.  The tests compare the package's
expansions against them, and the second route of `test_sections` expands
through them.

`_solve_section` is the section solve as one elimination, `linalg.solve_affine`
over the expansions' integer numerators, for every shape of the system, and
`_combine` the sequential scale-and-add of the basis expansions: the package's
forward substitution and one-pass combination are compared against them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from nsc import linalg
from nsc.curves import EXPANSION_CACHE_SIZE, Divisor, Infinity
from nsc.errors import CohomologyError
from nsc.laurent import LaurentSeries


def _binom_neg(j: int, i: int) -> Fraction:
    # binomial(-j, i) = (-1)^i * C(j+i-1, i)
    out = Fraction(1)
    for r in range(i):
        out *= Fraction(j + r, r + 1)
    return out if i % 2 == 0 else -out


@functools.lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def _elt_expansion(elt, component, point, low: int, high: int) -> tuple:
    """Coefficients of the element's expansion at (component, point) in the
    standard parameter s (= t - point, or 1/t at infinity), exponents [low, high)."""
    kind = elt[0]
    coeffs = {e: Fraction(0) for e in range(low, high)}
    if elt[1] != component:
        return tuple(coeffs[e] for e in range(low, high))
    if kind == "const":
        if low <= 0 < high:
            coeffs[0] = Fraction(1)
    else:
        _, _, t0, j = elt
        at_inf = isinstance(point, Infinity)
        pole_at_inf = isinstance(t0, Infinity)
        if not at_inf and not pole_at_inf and t0 == point:
            if low <= -j < high:
                coeffs[-j] = Fraction(1)
        elif at_inf and pole_at_inf:
            if low <= -j < high:
                coeffs[-j] = Fraction(1)
        elif at_inf:
            # (t - t0)^-j = s^j (1 - t0 s)^-j
            for i in range(max(0, low - j), high - j):
                coeffs[j + i] = _binom_neg(j, i) * (-t0) ** i
        elif pole_at_inf:
            # t^j = (point + s)^j
            for i in range(max(0, low), min(j, high - 1) + 1):
                c = Fraction(1)
                for r in range(i):
                    c *= Fraction(j - r, r + 1)
                coeffs[i] = c * point ** (j - i)
        else:
            # (t - t0)^-j around s = t - point:  ((point - t0) + s)^-j
            base = point - t0
            for i in range(max(0, low), high):
                coeffs[i] = _binom_neg(j, i) * base ** (-j - i)
    return tuple(coeffs[e] for e in range(low, high))


def _expansion(curve, pid, low, high, terms) -> LaurentSeries:
    """Expansion at a marked point of the sum of x*elt over the (x, elt) terms,
    in the tangent-rescaled parameter u = s/v."""
    mp = curve.marked(pid)
    coeffs = [Fraction(0)] * (high - low)
    for x, elt in terms:
        if not x:
            continue
        for i, c in enumerate(_elt_expansion(elt, mp.component, mp.point, low, high)):
            coeffs[i] += x * c
    v = mp.tangent
    return LaurentSeries("u", low, [c * v ** (low + i) for i, c in enumerate(coeffs)], cut=high)


def _solve_section(weights, i, m, expansions):
    """Coordinates y_k of f_i[-m] over the expansions with low >= -m: one
    elimination over their integer numerators at the targets, solving for
    z_k = y_k / den_k."""
    near = [s for s in expansions if s.low >= -m]
    targets = [(-m, 1)] + [(e, 0) for e in range(-m + 1, -weights.get(i, 0))] + [(0, 0)]
    rows = [[s.numerator(e) for s in near] for e, _ in targets]
    solved = linalg.solve_affine(rows, [value for _, value in targets])
    if solved is None:
        raise CohomologyError(
            f"no section with principal part u^-{m} at {i}: h1 obstruction "
            f"(weights {weights})"
        )
    z, kernel = solved
    if kernel:
        raise CohomologyError(
            f"section of order {m} at {i} is not unique: "
            f"h1({Divisor.of({**weights, i: m}).items}) != 0"
        )
    return [x * s.den for x, s in zip(z, near)]


def _combine(y, series) -> LaurentSeries:
    """sum_k y_k series_k over the nonzero y_k, one scale and one + each."""
    terms = [s.scale(c) for c, s in zip(y, series) if c]
    return sum(terms[1:], terms[0])
