"""The one elimination over Q, against the fraction-free determinant over Z
and over Laurent polynomials; the fused matrix product against an
entrywise sum of products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictrace.linalg import Matrix, det_bareiss, eliminate
from cubictrace.rings import LaurentPolynomial, RingError

T = ("t",)


def _bareiss(rows):
    return det_bareiss(Matrix(rows).map(lambda x: LaurentPolynomial.constant(x, T)))


def _times(rows, x):
    return [sum(a * xi for a, xi in zip(row, x)) for row in rows]


@pytest.mark.parametrize("n", range(1, 7))
def test_determinant_and_solutions(n):
    rng = random.Random(100 + n)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rhs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(3)]
        det, solutions = eliminate(Matrix(rows), rhs)
        assert LaurentPolynomial.constant(det, T) == _bareiss(rows)
        assert det_bareiss(Matrix(rows)) == det
        if det == 0:
            assert solutions is None
            continue
        assert len(solutions) == len(rhs)
        for b, x in zip(rhs, solutions):
            assert _times(rows, x) == b


@pytest.mark.parametrize("n", range(2, 7))
def test_repeated_row_is_singular(n):
    rng = random.Random(200 + n)
    for _ in range(10):
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        rows[j] = list(rows[i])
        det, solutions = eliminate(Matrix(rows), [[1] * n])
        assert det == 0 and solutions is None
        assert _bareiss(rows).is_zero()
        assert det_bareiss(Matrix(rows)) == 0


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],                       # zero leading pivot, row swap
    [[0, 2, 1], [3, 1, 4], [1, 5, 9]],
    [[0, 0, 1], [0, 2, 0], [3, 0, 0]],      # a swap at every step
    [[0, 1, 2], [0, 3, 4], [5, 6, 7]],      # swap past two zero pivots
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],      # singular, nonzero entries
    [[0, 1, 1], [0, 2, 2], [0, 3, 4]],      # singular: a zero column
    [[2, 4], [1, 2]],                       # singular 2x2
    [[-7]],
])
def test_integer_bareiss_against_elimination(rows):
    det, _ = eliminate(Matrix(rows))
    int_det = det_bareiss(Matrix(rows))
    assert type(int_det) is int and int_det == det
    assert LaurentPolynomial.constant(det, T) == _bareiss(rows)


def test_bareiss_rejects_rational_entries():
    with pytest.raises(RingError):
        det_bareiss(Matrix([[Fraction(1, 2)]]))


@pytest.mark.parametrize("rows,rhs", [
    ([[0.1, 1], [2, Fraction(1, 3)]], ()),
    ([[1, 1], [2, "1/3"]], ()),
    ([[1, 0], [0, 1]], [(1, 0.5)]),
])
def test_elimination_rejects_inexact_entries(rows, rhs):
    with pytest.raises(RingError):
        eliminate(Matrix(rows), rhs)


# Small exponents and coefficients, so that sums of products often cancel;
# the Fractions include integral ones such as 4/2.
small_ints = st.integers(min_value=-2, max_value=2)
small_fractions = st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=2))
AB = ("a", "b")


@st.composite
def small_polys(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    mono = st.tuples(st.integers(min_value=-1, max_value=1), st.integers(min_value=-1, max_value=1))
    return LaurentPolynomial(AB, {draw(mono): draw(st.one_of(small_ints, small_fractions))
                                  for _ in range(n)})


ENTRIES = {"laurent": small_polys(), "int": small_ints, "fraction": small_fractions,
           "mixed": st.one_of(small_polys(), small_ints, small_fractions)}


@st.composite
def matrix_pairs(draw, kind):
    n, k, m = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    entry = ENTRIES[kind]
    x = Matrix([[draw(entry) for _ in range(k)] for _ in range(n)])
    y = Matrix([[draw(entry) for _ in range(m)] for _ in range(k)])
    return x, y


def _entrywise_product(x: Matrix, y: Matrix) -> list[list]:
    """(x y)[i][j], one product and one partial sum at a time."""
    out = []
    for i in range(x.nrows):
        row = []
        for j in range(y.ncols):
            acc = x[i, 0] * y[0, j]
            for k in range(1, x.ncols):
                acc = acc + x[i, k] * y[k, j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_product_matches_the_entrywise_sum(kind, data):
    x, y = data.draw(matrix_pairs(kind))
    product = x * y
    assert product == Matrix(_entrywise_product(x, y))
    if kind == "laurent":
        for row in product.rows:
            for p in row:
                assert all(type(c) is int or c.denominator != 1 for c in p.terms.values()), p


def test_fused_product_cancels_and_stores_integral_sums_as_ints():
    p = LaurentPolynomial.parse("a - 1/2*b^-1", AB)
    q = LaurentPolynomial.parse("3*a*b + 2", AB)
    half_a = LaurentPolynomial.parse("1/2*a", AB)
    a = LaurentPolynomial.parse("a", AB)
    cancelled = (Matrix([[p, -p]]) * Matrix([[q], [q]]))[0, 0]
    assert cancelled.is_zero() and cancelled.terms == {}
    whole = (Matrix([[half_a, half_a]]) * Matrix([[a], [a]]))[0, 0]
    assert whole.terms == {(2, 0): 1} and type(whole.terms[(2, 0)]) is int
    halves = Matrix([[Fraction(1, 2), Fraction(3, 2)]]) * Matrix([[1], [1]])
    assert halves[0, 0] == 2


@pytest.mark.parametrize("position", [0, 1])
def test_fused_product_rejects_mismatched_variables(position):
    ab = LaurentPolynomial.one(AB)
    column = [[ab], [ab]]
    column[position] = [LaurentPolynomial.one(("a", "x"))]
    with pytest.raises(RingError, match="mismatched"):
        Matrix([[ab, ab]]) * Matrix(column)


def test_fused_product_takes_rationals_beside_polynomials_in_either_order():
    """A row or column may mix `int`/`Fraction` entries with polynomials,
    whichever kind comes first: a rational is the constant polynomial."""
    ab = LaurentPolynomial.parse("a + b", AB)
    expected = LaurentPolynomial.parse("5/2*a + 5/2*b", AB)
    assert (Matrix([[ab, 2]]) * Matrix([[Fraction(1, 2)], [ab]]))[0, 0] == expected
    assert (Matrix([[2, ab]]) * Matrix([[ab], [Fraction(1, 2)]]))[0, 0] == expected
    m = Matrix([[ab, 0], [1, ab]])
    ident = Matrix.identity(2, 1, 0)
    assert m * ident == m == ident * m


def test_arithmetic_results_keep_their_shape_and_the_constructor_validates():
    """Arithmetic results skip validation; their rows are tuples of the
    width their shape says.  `Matrix(rows)` still refuses bad rows."""
    row, col = Matrix([[1, 2, 3]]), Matrix([[1], [2], [3]])
    results = {(1, 1): row * col, (3, 3): col * row, (1, 3): row + row,
               (3, 1): col - col, (2, 3): Matrix([[1, 2, 3], [4, 5, 6]]).map(str)}
    for shape, m in results.items():
        assert (m.nrows, m.ncols) == shape
        assert all(type(r) is tuple and len(r) == m.ncols for r in m.rows)
    assert col * row == Matrix([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    assert (row * Fraction(1, 2)).rows == ((Fraction(1, 2), 1, Fraction(3, 2)),)
    for rows, message in (([], "empty"), ([[1, 2], [3]], "ragged")):
        with pytest.raises(RingError, match=message):
            Matrix(rows)
    with pytest.raises(RingError, match="shape"):
        row + col
