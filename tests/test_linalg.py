"""The one elimination over Q, against the fraction-free determinant over Z
and over Laurent polynomials; the fused dot product against an entrywise
sum of products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictrace.linalg import det_bareiss, dot, eliminate
from cubictrace.rings import LaurentPolynomial, RingError

T = ("t",)


def _bareiss(rows):
    return det_bareiss([[LaurentPolynomial.constant(x, T) for x in row] for row in rows])


def _times(rows, x):
    return [sum(a * xi for a, xi in zip(row, x)) for row in rows]


@pytest.mark.parametrize("n", range(1, 7))
def test_determinant_and_solutions(n):
    rng = random.Random(100 + n)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rhs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(3)]
        det, solutions = eliminate(rows, rhs)
        assert LaurentPolynomial.constant(det, T) == _bareiss(rows)
        assert det_bareiss(rows) == det
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
        det, solutions = eliminate(rows, [[1] * n])
        assert det == 0 and solutions is None
        assert _bareiss(rows).is_zero()
        assert det_bareiss(rows) == 0


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
    det, _ = eliminate(rows)
    int_det = det_bareiss(rows)
    assert type(int_det) is int and int_det == det
    assert LaurentPolynomial.constant(det, T) == _bareiss(rows)


def test_bareiss_rejects_rational_entries():
    with pytest.raises(RingError):
        det_bareiss([[Fraction(1, 2)]])


@pytest.mark.parametrize("rows,rhs", [
    ([[0.1, 1], [2, Fraction(1, 3)]], ()),
    ([[1, 1], [2, "1/3"]], ()),
    ([[1, 0], [0, 1]], [(1, 0.5)]),
])
def test_elimination_rejects_inexact_entries(rows, rhs):
    with pytest.raises(RingError):
        eliminate(rows, rhs)


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
def vector_pairs(draw, kind):
    k = draw(st.integers(min_value=1, max_value=4))
    entry = ENTRIES[kind]
    return [draw(entry) for _ in range(k)], [draw(entry) for _ in range(k)]


def _entrywise_dot(xs: list, ys: list):
    """sum(x * y), one product and one partial sum at a time."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def _product(x: list[list], y: list[list]) -> list[list]:
    """The row-list product x y, one `dot` per entry."""
    return [[dot(row, col) for col in zip(*y)] for row in x]


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_product_matches_the_entrywise_sum(kind, data):
    xs, ys = data.draw(vector_pairs(kind))
    p = dot(xs, ys)
    assert p == _entrywise_dot(xs, ys)
    if kind == "laurent":
        assert all(type(c) is int or c.denominator != 1 for c in p.terms.values()), p


def test_fused_product_cancels_and_stores_integral_sums_as_ints():
    p = LaurentPolynomial.parse("a - 1/2*b^-1", AB)
    q = LaurentPolynomial.parse("3*a*b + 2", AB)
    half_a = LaurentPolynomial.parse("1/2*a", AB)
    a = LaurentPolynomial.parse("a", AB)
    cancelled = dot([p, -p], [q, q])
    assert cancelled.is_zero() and cancelled.sorted_terms() == []
    whole = dot([half_a, half_a], [a, a])
    assert whole.sorted_terms() == [((2, 0), 1)] and type(whole.sorted_terms()[0][1]) is int
    halves = dot([Fraction(1, 2), Fraction(3, 2)], [1, 1])
    assert halves == 2


@pytest.mark.parametrize("position", [0, 1])
def test_fused_product_rejects_mismatched_variables(position):
    ab = LaurentPolynomial.one(AB)
    column = [ab, ab]
    column[position] = LaurentPolynomial.one(("a", "x"))
    with pytest.raises(RingError, match="mismatched"):
        dot([ab, ab], column)


def test_fused_product_takes_rationals_beside_polynomials_in_either_order():
    """A vector may mix `int`/`Fraction` entries with polynomials, whichever
    kind comes first: a rational is the constant polynomial."""
    ab = LaurentPolynomial.parse("a + b", AB)
    expected = LaurentPolynomial.parse("5/2*a + 5/2*b", AB)
    assert dot([ab, 2], [Fraction(1, 2), ab]) == expected
    assert dot([2, ab], [ab, Fraction(1, 2)]) == expected
    m = [[ab, 0], [1, ab]]
    ident = [[1, 0], [0, 1]]
    assert _product(m, ident) == m == _product(ident, m)


def test_determinants_refuse_empty_ragged_and_non_square_rows():
    cases = [([], "empty"), ([[1, 2], [3]], "ragged"), ([[1], [2, 3]], "ragged"),
             ([[1, 2], [3, 4, 5]], "ragged"), ([[1, 2, 3], [4, 5, 6]], "non-square"),
             ([[1], [2]], "non-square")]
    for rows, message in cases:
        poly_rows = [[LaurentPolynomial.constant(x, T) for x in row] for row in rows]
        for determinant, entries in ((eliminate, rows), (det_bareiss, rows),
                                     (det_bareiss, poly_rows)):
            with pytest.raises(RingError, match=message):
                determinant(entries)
