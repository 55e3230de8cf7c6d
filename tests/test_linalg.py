"""The one elimination over Q, against the fraction-free determinant over Z
and over Laurent polynomials."""

import random
from fractions import Fraction

import pytest

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
