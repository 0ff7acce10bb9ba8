"""Exact linear algebra over Q.

Matrices come in and go out as dense lists of rows of rationals (ints or
Fractions in, Fractions out).  The elimination itself runs over Python ints
on sparse rows: each row has its denominators cleared and is kept as a
{column: int} dict of its nonzero entries, scaled to content 1 after every
change.  It divides by the pivots only once, when the reduced rows are turned
back into Fractions.  The reduced row echelon form is unique, so the result
does not depend on how the elimination reached it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _primitive(row: dict) -> dict:
    """row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


def _eliminate(rows):
    """Gauss-Jordan over integer rows: (reduced, pivots).

    ``reduced[i]`` is a primitive {column: int} row whose lowest column is
    ``pivots[i]``, and every other reduced row is zero at ``pivots[i]``.
    Dividing each row by its pivot entry gives the reduced row echelon form.
    """
    work = []
    for r in rows:
        nonzero = [(c, x) for c, x in enumerate(r) if x]
        if nonzero:
            den = lcm(*(x.denominator for _, x in nonzero))
            work.append(_primitive({c: x.numerator * (den // x.denominator) for c, x in nonzero}))
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        if r == len(work):
            break
        for pivot in range(r, len(work)):
            if c in work[pivot]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[c]
        for i, row in enumerate(work):
            a = row.get(c)
            if a is None or i == r:
                continue
            # row = (p/g) row - (a/g) prow clears column c; only prow's columns change
            g = gcd(p, a)
            pg, ag = p // g, a // g
            new = {k: pg * v for k, v in row.items()} if pg != 1 else dict(row)
            for k, v in prow.items():
                x = new.get(k, 0) - ag * v
                if x:
                    new[k] = x
                else:
                    del new[k]
            work[i] = _primitive(new) if new else new
        pivots.append(c)
        r += 1
    return work[:r], pivots


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    reduced, pivots = _eliminate(rows)
    ncols = len(rows[0]) if rows else 0
    out = []
    for row, c in zip(reduced, pivots):
        p = row[c]
        dense = [_ZERO] * ncols
        for k, v in row.items():
            dense[k] = Fraction(v, p)
        out.append(dense)
    return out, pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


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
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:  # a pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x, _kernel(red, pivots, ncols)
