"""Alexander polynomials and link determinants via the reduced Burau representation.

For a braid b on n strands, det(rho(b) - I) equals, up to a unit +-t^k,
Delta(t) (1 + t + ... + t^(n-1)) where Delta is the Alexander polynomial
of the closure.  For Delta itself the quotient by (1 - t^n)/(1 - t) is
carried out by exact polynomial division.

An image is an immutable tuple of row tuples.  The image of s_i^(+-1)
differs from the identity in column i only, so a letter changes only that
column of the image it multiplies on the right: `burau_step`, the one
place the letter images are written down, takes O(n^2) work per letter
instead of a matrix product.

The link determinant |Delta(-1)| needs no polynomials.  At t = -1 the
images are integer matrices, and for n odd the second factor is 1, so
|Delta(-1)| = |det(rho(b)(-1) - I)|.  A braid on an even number n of
strands is first stabilized by s_n, which closes to the same link on
n + 1 strands.  So the integer images act on the odd working strand count
n | 1 (`working_identity`), `closure_determinant` stabilizes and takes the
integer Bareiss determinant, and `alexander_determinant` is the two
composed.

This pipeline shares no code with the skein evaluator, which is what makes
the identity  t^K = a^(#L-1) det^2  at a^2 = y = 1, x = 2a a genuine
cross-check between two independent computations.
"""

from __future__ import annotations

from .braids import BraidWord
from .linalg import det_bareiss
from .rings import LaurentPolynomial, RingError

T = ("t",)

Rows = tuple[tuple, ...]


def _tp(text: str) -> LaurentPolynomial:
    return LaurentPolynomial.parse(text, T)


def _identity(size: int, one, zero) -> Rows:
    return tuple(tuple(one if r == c else zero for c in range(size)) for r in range(size))


def burau_step(rows: Rows, letter: int, t, t_inv) -> Rows:
    """The matrix M with these rows times the reduced Burau image of
    s_i^(+-1), i = |letter|, at t.

    The image differs from the identity in column i only: s_i has -t on
    the diagonal, t above and 1 below; s_i^-1 has -t^-1 on the diagonal,
    1 above and t^-1 below.  So column i of the product becomes
    t M[:, i-1] - t M[:, i] + M[:, i+1] for s_i and
    M[:, i-1] - t^-1 M[:, i] + t^-1 M[:, i+1] for s_i^-1, a missing
    neighbour column counting as 0.  `t` and `t_inv` are the polynomials
    t and t^-1, or both -1 for the integer images.
    """
    size = len(rows)
    i = abs(letter)
    if not 1 <= i <= size:
        raise RingError("generator index out of range")
    c = i - 1  # the generator's own column
    out = []
    for row in rows:
        left = row[c - 1] if c else 0
        right = row[i] if i < size else 0
        if letter > 0:
            x = t * (left - row[c]) + right
        else:
            x = left + t_inv * (right - row[c])
        out.append(row[:c] + (x,) + row[i:])
    return tuple(out)


def _det_minus_identity(rows: Rows, one):
    return det_bareiss([[x - one if r == c else x for c, x in enumerate(row)]
                        for r, row in enumerate(rows)])


def alexander_polynomial_normalized(w: BraidWord) -> LaurentPolynomial:
    """Delta(t) up to a unit +-t^k, via det(Burau - I) (1-t)/(1-t^n)."""
    n = w.strands
    one = LaurentPolynomial.one(T)
    if n == 1:
        return one
    t, t_inv = _tp("t"), _tp("t^-1")
    rows = _identity(n - 1, one, LaurentPolynomial.zero(T))
    for letter in w.letters:
        rows = burau_step(rows, letter, t, t_inv)
    numerator = _det_minus_identity(rows, one) * (one - t)
    if numerator.is_zero():
        return numerator
    return numerator.exact_div(one - t ** n)


def working_identity(n: int) -> Rows:
    """The integer image of the empty braid on n >= 2 strands: the identity
    on the odd working strand count n | 1."""
    return _identity((n | 1) - 1, 1, 0)


def closure_determinant(rows: Rows, n: int) -> int:
    """|Delta(-1)| of the closure of a braid on n >= 2 strands, from its
    integer image: `working_identity(n)` stepped by each of its letters at
    t = -1."""
    if n % 2 == 0:
        rows = burau_step(rows, n, -1, -1)
    return abs(_det_minus_identity(rows, 1))


def alexander_determinant(w: BraidWord) -> int:
    """|Delta(-1)|, the determinant of the closure of w."""
    if w.strands == 1:
        return 1
    rows = working_identity(w.strands)
    for letter in w.letters:
        rows = burau_step(rows, letter, -1, -1)
    return closure_determinant(rows, w.strands)


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
