import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linalg_reference import reference_rref
from nsc import linalg
from nsc.curves import Divisor, h0, h1
from nsc.sections import canonical_parameter
from nsc.zoo import zoo


def apply(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


def reference_nullspace(rows, ncols):
    """nullspace as it was before it read the kernel off the integer rows:
    through the dense rref, kept as the second route."""
    return reference_kernel(*reference_rref(rows), ncols)


def dense(reduced, pivots, ncols):
    """The package's primitive integer rows divided by their pivot entries:
    the reduced row echelon form as dense Fraction rows."""
    out = []
    for row, c in zip(reduced, pivots):
        v = [Fraction(0)] * ncols
        for k, x in row.items():
            v[k] = Fraction(x, row[c])
        out.append(v)
    return out


def reference_kernel(red, pivots, ncols):
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            v[pcol] = -red[i][fcol]
        basis.append(v)
    return basis


def reference_solve_affine(rows, rhs):
    """solve_affine as it was before it read the solution off the integer
    rows, for a nonempty system."""
    ncols = len(rows[0])
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x, reference_kernel(red, pivots, ncols)


def assert_same_vectors(got, expected):
    """Equal by value and by type, entry by entry."""
    assert got == expected
    assert [[type(x) for x in v] for v in got] == [[type(x) for x in v] for v in expected]
    assert repr(got) == repr(expected)


# mostly zeros and small entries, as in the jet-condition rows, plus ints and
# rationals with numerators and denominators of about 100 bits
ENTRIES = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(Fraction, st.integers(-2**100, 2**100), st.integers(1, 2**100)),
)


@st.composite
def matrices(draw, max_rows=7, max_cols=8):
    """Empty, wide, tall, with zero rows, and rank-deficient: some rows are
    combinations of the others (all-zero coefficients give a zero row)."""
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        coeffs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        combination = [sum(Fraction(c) * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combination)
    return rows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_rank_match_the_dense_reference(rows):
    expected = reference_rref(rows)
    reduced, pivots = linalg.rref(rows)
    got = dense(reduced, pivots, len(rows[0]) if rows else 0), pivots
    assert got == expected
    assert repr(got) == repr(expected)
    assert linalg.rank(rows) == len(expected[0])


@settings(max_examples=75, deadline=None)
@given(matrices())
def test_elimination_keeps_its_integer_rows_primitive(rows):
    # content 1 after every change is what keeps the integers small; the
    # result would be the same without it, only slower
    reduced, pivots = linalg.rref(rows)
    assert pivots == reference_rref(rows)[1]
    for row, c in zip(reduced, pivots):
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert min(row) == c
        assert all(p == c or p not in row for p in pivots)


@settings(max_examples=75, deadline=None)
@given(matrices(), st.integers(0, 8))
def test_nullspace_vectors_are_killed_by_the_rows(rows, ncols):
    ncols = len(rows[0]) if rows else ncols
    kernel = linalg.nullspace(rows, ncols=ncols)
    assert len(kernel) == ncols - len(reference_rref(rows)[0])
    for v in kernel:
        assert len(v) == ncols
        assert apply(rows, v) == [0] * len(rows)
    assert linalg.rank(kernel) == len(kernel)


@settings(max_examples=75, deadline=None)
@given(matrices(), st.data())
def test_solve_affine_agrees_with_the_reference(rows, data):
    ncols = len(rows[0]) if rows else 0
    if data.draw(st.booleans()):  # consistent by construction
        x0 = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        rhs = apply(rows, x0)
    else:
        rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    if not rows:
        with pytest.raises(ValueError):
            linalg.solve_affine(rows, rhs)
        return
    solved = linalg.solve_affine(rows, rhs)
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    assert (solved is None) == (ncols in pivots)
    if solved is None:
        return
    x, kernel = solved
    particular = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        particular[p] = red[i][ncols]
    assert x == particular
    assert apply(rows, x) == [Fraction(b) for b in rhs]
    assert kernel == linalg.nullspace(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 8))
def test_nullspace_matches_the_rref_route(rows, ncols):
    # wide, tall, empty and zero rows, by value and by type
    ncols = len(rows[0]) if rows else ncols
    assert_same_vectors(linalg.nullspace(rows, ncols=ncols), reference_nullspace(rows, ncols))


@st.composite
def kernel_cases(draw):
    """(kind, rows, ncols): no rows, zero rows, or rows in echelon form on
    drawn pivot columns, mixed by row operations that keep the row space
    and shuffled: a pivot in every column, pivot entries all negative, the
    first or the last column free, or drawn."""
    kind = draw(st.sampled_from(("no rows", "zero rows", "full rank", "negative pivots",
                                 "free first", "free last", "drawn")))
    ncols = draw(st.integers(0 if kind in ("no rows", "zero rows", "drawn") else 2, 7))
    if kind == "no rows":
        return kind, [], ncols
    if kind == "zero rows":
        return kind, draw(st.lists(st.lists(st.sampled_from((0, Fraction(0))), min_size=ncols,
                                            max_size=ncols), min_size=1, max_size=4)), ncols
    columns = range(1 if kind == "free first" else 0, ncols - 1 if kind == "free last" else ncols)
    if kind == "full rank":
        pivots = list(columns)
    else:
        pivots = sorted(draw(st.sets(st.sampled_from(columns))) if columns else ())
    rows = []
    for p in pivots:
        lead = draw(st.integers(1, 9).map(lambda x: -x) if kind == "negative pivots" else ENTRIES.filter(bool))
        rows.append([0] * p + [lead] + draw(st.lists(ENTRIES, min_size=ncols - p - 1, max_size=ncols - p - 1)))
    if kind != "negative pivots" and len(rows) > 1:
        for _ in range(draw(st.integers(0, 3))):  # row i += c * row j
            i, j = draw(st.permutations(range(len(rows))))[:2]
            c = draw(ENTRIES)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rows = draw(st.permutations(rows))
    return kind, rows, ncols


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_read_off_matches_the_reference(case):
    # each vector, read once off the integer rows as a sparse map over the
    # lcm of the pivot entries, is the reference's vector times that
    # denominator; the Fractions that nullspace builds from it are the
    # reference's in value and in type
    kind, rows, ncols = case
    expected = reference_nullspace(rows, ncols)
    got, den = linalg.kernel(rows, ncols)
    reduced, pivots = linalg.rref(rows)
    assert den == math.lcm(*[row[p] for row, p in zip(reduced, pivots)]) > 0
    assert len(got) == len(expected)
    for entries, v in zip(got, expected):
        assert all(type(x) is int and x for x in entries.values())
        assert list(entries) == sorted(entries)
        assert entries == {c: x * den for c, x in enumerate(v) if x}
    assert_same_vectors(linalg.nullspace(rows, ncols), expected)
    if kind == "negative pivots" and rows:
        assert any(row[p] < 0 for row, p in zip(reduced, pivots))
    if kind == "full rank":
        assert got == []
    if kind in ("free first", "free last"):
        assert (0 if kind == "free first" else ncols - 1) in {max(v) for v in got}


@st.composite
def systems(draw):
    """A nonempty system: a right-hand side made consistent from a drawn
    solution, drawn at random, or made inconsistent by a nonzero entry
    against an inserted zero row."""
    rows = draw(matrices().filter(bool))
    ncols = len(rows[0])
    kind = draw(st.sampled_from(("consistent", "drawn", "inconsistent")))
    if kind == "drawn":
        return rows, draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    x0 = draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    rhs = apply(rows, x0)
    if kind == "inconsistent":
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [draw(st.sampled_from((0, Fraction(0))))] * ncols)
        rhs.insert(at, draw(ENTRIES.filter(bool)))
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_affine_matches_the_rref_route(system):
    rows, rhs = system
    got, expected = linalg.solve_affine(rows, rhs), reference_solve_affine(rows, rhs)
    assert (got is None) == (expected is None)
    if got is not None:
        assert_same_vectors([got[0]], [expected[0]])
        assert_same_vectors(got[1], expected[1])


def test_solve_affine_needs_an_equation():
    with pytest.raises(ValueError):
        linalg.solve_affine([], [])


def test_solve_affine_needs_one_rhs_entry_per_equation():
    # a short right-hand side once dropped the second equation: a rank-2
    # system read as ([1, 0], [[0, 1]])
    with pytest.raises(ValueError, match="1 right-hand side entries for 2 equations"):
        linalg.solve_affine([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError, match="3 right-hand side entries for 2 equations"):
        linalg.solve_affine([[1, 0], [0, 1]], [1, 2, 3])
    assert linalg.solve_affine([[1, 0], [0, 1]], [1, 2]) == ([1, 2], [])


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
    assert kernel == linalg.nullspace(rows, 5)


# every row was once read at the first row's width: the rank of [[1], [0, 1]]
# read as 1, its system x = 1, y = 1 as inconsistent, and rows shorter than
# ncols gave a kernel with a free column that no row constrained
@pytest.mark.parametrize("call, message", [
    (lambda: linalg.rank([[1], [0, 1]]), "row 1 is not as long as row 0"),
    (lambda: linalg.solve_affine([[1], [0, 1]], [1, 1]), "row 1 is not as long as row 0"),
    (lambda: linalg.nullspace([[1], [0, 1]], ncols=2), "row 0 has 1 entries, not ncols = 2"),
    (lambda: linalg.nullspace([[1, 0], [0, 1]], ncols=3), "row 0 has 2 entries, not ncols = 3"),
    (lambda: linalg.nullspace([[1, 0], [0]], ncols=2), "row 1 is not as long as row 0"),
    (lambda: linalg.kernel([[1, 0], [0, 1]], ncols=3), "row 0 has 2 entries, not ncols = 3"),
    (lambda: linalg.kernel([[1, 0], [0]], ncols=2), "row 1 is not as long as row 0"),
], ids=["rank", "solve_affine", "nullspace", "nullspace-ncols", "nullspace-later-row", "kernel-ncols",
        "kernel-later-row"])
def test_ragged_rows_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_every_elimination_goes_through_rref(monkeypatch):
    # the benchmark's linalg span wraps linalg.rref, so an elimination that
    # went around it would read as its caller's time.  A triangular section
    # solve is forward substitution, no elimination, and reads as sections
    # time; canonical_parameter still eliminates once, for its basis
    calls = []
    rref = linalg.rref

    def counting(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    rows = [[1, 2, 3], [2, 4, 7]]
    for run in (lambda: linalg.rank(rows), lambda: linalg.nullspace(rows, 3),
                lambda: linalg.solve_affine(rows, [1, 2])):
        calls.clear()
        run()
        assert len(calls) == 1
    cur = zoo("Ia")
    for run in (lambda: h0(cur, Divisor.of({"p0": 2})), lambda: h1(cur, Divisor.of({"p0": 2})),
                lambda: canonical_parameter(cur, {"p0": 2}, "p0", 6)):
        calls.clear()
        run()
        assert calls
