"""Exact linear algebra over Q.

Matrices come in as lists of rows of rationals (ints or Fractions), every
row as long as the first.  The one elimination, `rref`, runs over Python
ints on sparse rows: each row has its denominators cleared and is kept as a
{column: int} dict of its nonzero entries, scaled to content 1 after every
change.  The reduced row echelon form is unique, so the result does not
depend on how the elimination reached it.  `rank` counts its pivots; the
kernel is read off the integer rows once, by `kernel`, as {column: int} maps
over one denominator, and `nullspace` and `solve_affine` make Fractions of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _primitive(row: dict) -> dict:
    """row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


def rref(rows):
    """Reduced row echelon form over integer rows: (reduced, pivots).

    ``reduced[i]`` is the i-th row of the reduced row echelon form scaled to
    a primitive {column: int} row: its lowest column is ``pivots[i]``, and
    every other reduced row is zero at ``pivots[i]``.  Dividing each row by
    its pivot entry gives the unique reduced row.  A row whose length differs
    from the first row's raises ValueError.
    """
    ncols = len(rows[0]) if rows else 0
    work = []
    for i, r in enumerate(rows):
        if len(r) != ncols:
            raise ValueError(f"row {i} is not as long as row 0")
        ratios = [(c, x.as_integer_ratio()) for c, x in enumerate(r) if x]
        if ratios:
            den = lcm(*[d for _, (_, d) in ratios])
            work.append(_primitive({c: n * (den // d) for c, (n, d) in ratios}))
    pivots = []
    r = 0
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel(rows, ncols):
    """(vectors, den): the kernel of rows, read once off rref's integer rows
    as one {column: int} map per free column, ascending, over den > 0, the
    lcm of the pivot entries.  A row whose length is not ncols raises
    ValueError: here for the first row, in `rref` for the others."""
    if rows and len(rows[0]) != ncols:
        raise ValueError(f"row 0 has {len(rows[0])} entries, not ncols = {ncols}")
    reduced, pivots = rref(rows)
    den = lcm(*[row[p] for row, p in zip(reduced, pivots)])
    vectors = {c: {} for c in range(ncols)}
    for row, p in zip(reduced, pivots):  # past its pivot a reduced row has free columns only
        del vectors[p]
        f = -den // row[p]
        for c, a in row.items():
            if c != p:
                vectors[c][p] = a * f
    for c, v in vectors.items():
        v[c] = den
    return list(vectors.values()), den


def nullspace(rows, ncols):
    """Basis of {x in Q^ncols : rows @ x = 0}, in reduced (deterministic)
    form: `kernel`'s vectors as dense lists of Fractions."""
    vectors, den = kernel(rows, ncols)
    return [_dense(v, den, ncols) for v in vectors]


def _dense(entries, den, ncols):
    v = [_ZERO] * ncols
    for c, x in entries.items():
        v[c] = Fraction(x, den) if x != den else _ONE
    return v


def solve_affine(rows, rhs):
    """All solutions of rows @ x = rhs: (particular, kernel_basis), or None
    when the system is inconsistent; with rhs as one more column, (-x, 1)
    spans its kernel vector.  It needs an equation, and an rhs entry each."""
    if not rows:
        raise ValueError("solve_affine needs at least one equation")
    if len(rhs) != len(rows):
        raise ValueError(f"solve_affine got {len(rhs)} right-hand side entries for {len(rows)} equations")
    ncols = len(rows[0])
    vectors, den = kernel([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if not vectors or ncols not in vectors[-1]:  # a pivot in the rhs column: inconsistent
        return None
    x = vectors.pop()
    del x[ncols]
    return _dense(x, -den, ncols), [_dense(v, den, ncols) for v in vectors]
