"""The one elimination over Q, against the fraction-free determinant."""

import random

import pytest

from cubictrace.linalg import Matrix, det_bareiss, eliminate
from cubictrace.rings import LaurentPolynomial

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
