from fractions import Fraction

from nsc import linalg


def apply(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


def test_solve_affine_inconsistent_is_none():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.solve_affine(rows, [1, 3, 0]) is None


def test_solve_affine_rank_deficient_consistent():
    # the third row is the sum of the first two, so the rank is 2
    rows = [[1, 2, 0, -1, 3], [0, 1, 1, 2, Fraction(1, 2)], [1, 3, 1, 1, Fraction(7, 2)]]
    rhs = [3, -1, 2]
    x, kernel = linalg.solve_affine(rows, rhs)
    assert apply(rows, x) == rhs
    assert len(kernel) == 5 - 2
    for v in kernel:
        assert apply(rows, v) == [0, 0, 0]
    assert linalg.rank(kernel) == len(kernel)
    assert kernel == linalg.nullspace(rows)
