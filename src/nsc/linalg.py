"""Dense exact linear algebra over Q (lists of Fraction rows)."""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
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


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Basis of {x : rows @ x = 0}, in reduced (deterministic) form."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty constraint list")
        ncols = len(rows[0])
    red, pivots = rref(rows) if rows else ([], [])
    return _kernel(red, pivots, ncols)


def _kernel(red, pivots, ncols):
    """Kernel basis of the first ncols columns of a reduced matrix, one vector
    per free column."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            v[pcol] = -red[i][fcol]
        basis.append(v)
    return basis


def solve_affine(rows, rhs):
    """All solutions of rows @ x = rhs: (particular, kernel_basis) or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:  # a pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x, _kernel(red, pivots, ncols)
