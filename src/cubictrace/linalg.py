"""Exact linear algebra on matrices given as sequences of rows.

Entries may be `int`, `Fraction` or `LaurentPolynomial`; the only
requirements are +, -, * and (for determinants) exact division.  `dot` is
the one fused dot product, which `h3` combines its traces with.  A matrix
over Q[a]/(a^2-1) is taken as one matrix over Q at a = 1 and one at
a = -1, as the T0 pin check in `verify` takes its determinants.  There
are two determinants: `det_bareiss`, fraction-free over Z and over
Laurent polynomials, and `eliminate`, the one Gaussian elimination over
Q, which also solves linear systems.  Each refuses an empty, ragged or
non-square matrix with `RingError`.  There is no matrix type, product or
inverse routine: `burau` applies each letter as one column update, and
the generators inverted elsewhere have closed-form inverses from their
defining relations.  Everything here is tiny (24x24 at most), so the code
favors clarity over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .rings import LaurentPolynomial, RingError, _as_fraction


def dot(xs: Sequence, ys: Sequence):
    """sum(x * y for x, y in zip(xs, ys)) over nonempty xs: `LaurentPolynomial.dot`,
    one accumulation, when xs[0] is a polynomial, else a plain sum that
    starts from the first product (from 0, every Fraction entry would cost
    one more Fraction addition)."""
    if isinstance(xs[0], LaurentPolynomial):
        return LaurentPolynomial.dot(xs, ys)
    products = map(mul, xs, ys)
    return sum(products, next(products))


def _size(rows: Sequence[Sequence]) -> int:
    """n for an n x n matrix given by its rows; `RingError` on an empty,
    ragged or non-square one."""
    if not rows:
        raise RingError("empty matrix")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise RingError("ragged matrix")
    if len(rows) != n:
        raise RingError("determinant of a non-square matrix")
    return n


def eliminate(rows: Sequence[Sequence], rhs: Sequence[Sequence] = ()
              ) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Determinant over Q of the matrix m with these rows, and the solution
    x of m x = b for each b in `rhs`.

    One forward Gaussian elimination with exact fractions carries the
    right-hand sides along; back-substitution then reads off the solutions.
    They are None when m is singular (its determinant is then 0).  Entries
    must be `int` or `Fraction`; a float or a string raises `RingError`.
    """
    n = _size(rows)
    a = [[Fraction(_as_fraction(x)) for x in row] + [Fraction(_as_fraction(b[i])) for b in rhs]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            a[r][col:] = [x - factor * y for x, y in zip(a[r][col:], a[col][col:])]
    solutions = []
    for j in range(n, n + len(rhs)):
        x = [Fraction(0)] * n
        for i in reversed(range(n)):
            x[i] = (a[i][j] - sum(a[i][k] * x[k] for k in range(i + 1, n))) / a[i][i]
        solutions.append(x)
    return det, solutions


def _exact_int_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise RingError(f"{num} is not divisible by {den}")
    return quotient


def det_bareiss(rows: Sequence[Sequence]):
    """Fraction-free determinant, over Z or over a Laurent polynomial ring,
    of the matrix with these rows.

    Bareiss' algorithm: all divisions are exact in an integral domain, which
    `LaurentPolynomial.exact_div`, or `divmod` with a zero remainder over Z,
    verifies as it goes.
    """
    n = _size(rows)
    sample = rows[0][0]
    if isinstance(sample, LaurentPolynomial):
        zero = LaurentPolynomial.zero(sample.variables)
        one = LaurentPolynomial.one(sample.variables)
        divide = LaurentPolynomial.exact_div
    elif isinstance(sample, int):
        zero, one, divide = 0, 1, _exact_int_div
    else:
        raise RingError("det_bareiss expects int or LaurentPolynomial entries")
    a = [list(row) for row in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if a[k][k] == zero:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != zero), None)
            if pivot is None:
                return zero
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = divide(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det
