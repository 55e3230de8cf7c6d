"""Small exact matrices over any of the project's rings.

Entries may be `int`, `Fraction` or `LaurentPolynomial`; the only
requirements are +, -, * and (for determinants) exact division.  Each
entry of a product is one dot product (`dot`).  A matrix over
Q[a]/(a^2-1) is taken as one matrix over Q at a = 1 and one at a = -1,
as the T0 pin check in `verify` takes its determinants.  There are two
determinants: `det_bareiss`, fraction-free over Z and over Laurent
polynomials, and `eliminate`, the one Gaussian elimination over Q, which
also solves linear systems.  There is no inverse routine: the generators inverted
elsewhere have closed-form inverses from their defining relations.
Everything here is tiny (24x24 at most), so the code favors clarity over
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Sequence

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


class Matrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise RingError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise RingError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    @classmethod
    def _trusted(cls, rows: tuple[tuple, ...]) -> "Matrix":
        """Wrap an arithmetic result: nonempty rows, already tuples of equal
        width.  Skips `__init__`'s validation, which `Matrix(rows)` keeps."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", len(rows[0]))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, one, zero) -> "Matrix":
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise RingError("matrix shape mismatch")
            cols = list(zip(*other.rows))
            return Matrix._trusted(tuple(tuple(dot(r, c) for c in cols) for r in self.rows))
        return self.map(lambda x: x * other)

    def _entrywise(self, op: Callable, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise RingError("matrix shape mismatch")
        rows = zip(self.rows, other.rows)
        return Matrix._trusted(tuple(tuple(map(op, r1, r2)) for r1, r2 in rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def map(self, f: Callable) -> "Matrix":
        return Matrix._trusted(tuple(tuple(f(x) for x in r) for r in self.rows))

    def is_zero(self) -> bool:
        for row in self.rows:
            for x in row:
                zero = (x == 0) if isinstance(x, (int, Fraction)) else x.is_zero()
                if not zero:
                    return False
        return True

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


def eliminate(m: Matrix, rhs: Sequence[Sequence] = ()) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Determinant over Q, and the solution x of m x = b for each b in `rhs`.

    One forward Gaussian elimination with exact fractions carries the
    right-hand sides along; back-substitution then reads off the solutions.
    They are None when m is singular (its determinant is then 0).  Entries
    must be `int` or `Fraction`; a float or a string raises `RingError`.
    """
    n = m.nrows
    if n != m.ncols:
        raise RingError("determinant of a non-square matrix")
    a = [[Fraction(_as_fraction(x)) for x in row] + [Fraction(_as_fraction(b[i])) for b in rhs]
         for i, row in enumerate(m.rows)]
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


def det_bareiss(m: Matrix):
    """Fraction-free determinant over Z or over a Laurent polynomial ring.

    Bareiss' algorithm: all divisions are exact in an integral domain, which
    `LaurentPolynomial.exact_div`, or `divmod` with a zero remainder over Z,
    verifies as it goes.
    """
    n = m.nrows
    if n != m.ncols:
        raise RingError("determinant of a non-square matrix")
    sample = m.rows[0][0]
    if isinstance(sample, LaurentPolynomial):
        zero = LaurentPolynomial.zero(sample.variables)
        one = LaurentPolynomial.one(sample.variables)
        divide = LaurentPolynomial.exact_div
    elif isinstance(sample, int):
        zero, one, divide = 0, 1, _exact_int_div
    else:
        raise RingError("det_bareiss expects int or LaurentPolynomial entries")
    a = [list(row) for row in m.rows]
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
