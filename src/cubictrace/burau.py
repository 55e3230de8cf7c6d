"""Alexander determinants via the reduced Burau representation.

For a braid b on n strands, det(rho(b) - I) equals, up to a unit +-t^k,
Delta(t) (1 + t + ... + t^(n-1)) where Delta is the Alexander polynomial
of the closure.  The quotient by (1 - t^n)/(1 - t) is carried out by exact
polynomial division *before* any evaluation, so t = -1 (where 1 - t^n
vanishes for n even) is safe; the link determinant is then |Delta(-1)|.

This pipeline shares no code with the skein evaluator, which is what makes
the identity  t^K = a^(#L-1) det^2  at a^2 = y = 1, x = 2a a genuine
cross-check between two independent computations.
"""

from __future__ import annotations

from fractions import Fraction

from .braids import BraidWord
from .linalg import Matrix, det_bareiss
from .rings import LaurentPolynomial, RingError

T = ("t",)


def _tp(text: str) -> LaurentPolynomial:
    return LaurentPolynomial.parse(text, T)


def reduced_burau_generator(letter: int, n: int) -> Matrix:
    """Image of s_i^(+-1), i = |letter|, in the reduced Burau representation of B_n.

    The (n-1) x (n-1) matrix differs from the identity in column i only:
    s_i has -t on the diagonal, t above and 1 below; s_i^-1 has -t^-1 on
    the diagonal, 1 above and t^-1 below.
    """
    i = abs(letter)
    if not (1 <= i <= n - 1):
        raise RingError("generator index out of range")
    size = n - 1
    zero, one = LaurentPolynomial.zero(T), LaurentPolynomial.one(T)
    t = _tp("t") if letter > 0 else _tp("t^-1")
    above, below = (t, one) if letter > 0 else (one, t)
    rows = [[one if r == c else zero for c in range(size)] for r in range(size)]
    r = i - 1  # row/col of the generator's own basis vector
    rows[r][r] = -t
    if r > 0:
        rows[r - 1][r] = above
    if r + 1 < size:
        rows[r + 1][r] = below
    return Matrix(rows)


def burau_matrix(w: BraidWord) -> Matrix:
    n = w.strands
    if n < 2:
        raise RingError("reduced Burau needs at least 2 strands")
    size = n - 1
    zero, one = LaurentPolynomial.zero(T), LaurentPolynomial.one(T)
    acc = Matrix.identity(size, one, zero)
    gens: dict[int, Matrix] = {}
    for letter in w.letters:
        if letter not in gens:
            gens[letter] = reduced_burau_generator(letter, n)
        acc = acc * gens[letter]
    return acc


def alexander_polynomial_normalized(w: BraidWord) -> LaurentPolynomial:
    """Delta(t) up to a unit +-t^k, via det(Burau - I) (1-t)/(1-t^n)."""
    n = w.strands
    if n == 1:
        return LaurentPolynomial.one(T)
    m = burau_matrix(w)
    size = n - 1
    zero, one = LaurentPolynomial.zero(T), LaurentPolynomial.one(T)
    ident = Matrix.identity(size, one, zero)
    d = det_bareiss(m - ident)
    numerator = d * (one - _tp("t"))
    denominator = one - _tp("t") ** n
    if numerator.is_zero():
        return numerator
    return numerator.exact_div(denominator)


def alexander_determinant(w: BraidWord) -> int:
    """|Delta(-1)|, the determinant of the closure of w."""
    delta = alexander_polynomial_normalized(w)
    value = delta.evaluate({"t": Fraction(-1)})
    if value.denominator != 1:
        raise RingError("Alexander determinant should be an integer")
    return abs(int(value))


def alexander_coefficients(w: BraidWord) -> tuple[int, ...]:
    """Coefficients of Delta(t) of the closure, lowest degree first.

    Delta is defined up to a unit +-t^k; the sign is fixed so that the
    first coefficient is positive.
    """
    terms = alexander_polynomial_normalized(w).terms
    if not terms:
        return ()
    exps = [mono[0] for mono in terms]
    coeffs = [int(terms.get((e,), 0)) for e in range(min(exps), max(exps) + 1)]
    return tuple(coeffs) if coeffs[0] > 0 else tuple(-c for c in coeffs)
