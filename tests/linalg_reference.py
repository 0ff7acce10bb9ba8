"""The reference elimination for the tests: dense Gauss-Jordan over
`Fraction` rows, the elimination `nsc.linalg` used before it moved to sparse
integer rows.  It returns the reduced row echelon form itself, every row
divided by its pivot entry.  The tests compare the package's `rref`, `rank`,
`nullspace` and `solve_affine` against it, and `curves_reference.h0_basis`
reduces its kernel with it.
"""

from __future__ import annotations

from fractions import Fraction


def reference_rref(rows):
    """(reduced rows, pivot columns) of a matrix given as rows of rationals."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots
