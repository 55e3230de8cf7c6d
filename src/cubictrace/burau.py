"""Alexander polynomials and link determinants via the reduced Burau representation.

For a braid b on n strands, det(rho(b) - I) equals, up to a unit +-t^k,
Delta(t) (1 + t + ... + t^(n-1)) where Delta is the Alexander polynomial
of the closure.  For Delta itself the quotient by (1 - t^n)/(1 - t) is
carried out by exact polynomial division.

The link determinant |Delta(-1)| needs no polynomials.  At t = -1 the
Burau images are integer matrices, and for n odd the second factor is 1,
so |Delta(-1)| = |det(rho(b)(-1) - I)|.  A braid on an even number n of
strands is first stabilized by s_n, which closes to the same link on
n + 1 strands.  `burau_at_minus_one` gives the integer letter images on
that odd working strand count, `closure_determinant` takes the integer
Bareiss determinant of a product of them, and `alexander_determinant` is
the two composed.

This pipeline shares no code with the skein evaluator, which is what makes
the identity  t^K = a^(#L-1) det^2  at a^2 = y = 1, x = 2a a genuine
cross-check between two independent computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType

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


@cache
def burau_at_minus_one(n: int) -> MappingProxyType:
    """Integer images at t = -1 of s_i^(+-1), 1 <= i < n, keyed by letter.

    They act on the odd working strand count: n, or n + 1 when n is even,
    so that `closure_determinant` can append s_n.  The mapping is cached
    per n and read-only, since every caller shares it.
    """
    working = n | 1
    at = lambda p: int(p.evaluate({"t": Fraction(-1)}))
    return MappingProxyType({letter: reduced_burau_generator(letter, working).map(at)
                             for i in range(1, n) for letter in (i, -i)})


def closure_determinant(product: Matrix, n: int) -> int:
    """|Delta(-1)| of the closure of a braid on n >= 2 strands, from the
    product of its letters' images under `burau_at_minus_one(n)`."""
    if n % 2 == 0:
        product = product * burau_at_minus_one(n + 1)[n]
    return abs(det_bareiss(product - Matrix.identity(product.nrows, 1, 0)))


def alexander_determinant(w: BraidWord) -> int:
    """|Delta(-1)|, the determinant of the closure of w."""
    if w.strands == 1:
        return 1
    letters = burau_at_minus_one(w.strands)
    product = Matrix.identity((w.strands | 1) - 1, 1, 0)
    for letter in w.letters:
        product = product * letters[letter]
    return closure_determinant(product, w.strands)


def alexander_coefficients(w: BraidWord) -> tuple[int, ...]:
    """Coefficients of Delta(t) of the closure, lowest degree first.

    Delta is defined up to a unit +-t^k; the sign is fixed so that the
    first coefficient is positive.
    """
    terms = dict(alexander_polynomial_normalized(w).sorted_terms())
    if not terms:
        return ()
    exps = [mono[0] for mono in terms]
    coeffs = [int(terms.get((e,), 0)) for e in range(min(exps), max(exps) + 1)]
    return tuple(coeffs) if coeffs[0] > 0 else tuple(-c for c in coeffs)
