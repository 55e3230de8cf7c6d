"""The Iwahori-Hecke algebra H_n(b,c) on the T_w basis, with the Ocneanu trace.

Elements live over Q[x^+-1, y^+-1] (x = b + c, y = bc), or over the
rationals at one point (x, y) (`HeckeRing.numeric`); the quadratic
relation s^2 = x s - y is baked into the multiplication, so products of
basis elements are always basis combinations, never words.  Inverse braid
letters use s^-1 = (x - s)/y.

The Ocneanu Markov trace is normalized by t_1(1) = 1 and loop value
delta_H = (y + 1)/x, which is the unique choice making both stabilizations
trace-preserving: t(u s_n) = t(u s_n^-1) = t(u).  It is computed by the
coset peeling w = w' (s_{n-1} ... s_k) read off from the last-strand image
(`coset_peel`), with values memoized per (strands, permutation).  Its value
at y = 1, x = 2a in Q[a]/(a^2-1) (`hecke_trace_qa`) is joined from the two
integer traces at (x, y) = (2, 1) and (-2, 1), the values at a = 1 and
a = -1.

Permutations are tuples in one-line notation on 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .braids import BraidWord
from .combination import Combination
from .qa import QA
from .rings import LaurentPolynomial, RingError, _as_fraction

XY = ("x", "y")

Perm = tuple[int, ...]

# The n!-sized engines (this Hecke algebra, and the extended algebra and
# theorem trace of `coxeter`) recurse once per strand, so many strands end
# in a RecursionError or a run of minutes.  The largest real use is 7 (A6
# in `verify`; catalog rows have at most 6), so 32 leaves ample room.
MAX_STRANDS = 32


def check_strands(n: int) -> None:
    if n > MAX_STRANDS:
        raise RingError(f"{n} strands: the Hecke and theorem-trace engines take "
                        f"at most {MAX_STRANDS}")


def _identity(n: int) -> Perm:
    return tuple(range(n))


def _right_gen(w: Perm, i: int) -> Perm:
    """Right multiplication by s_i (transposition of places i, i+1)."""
    lst = list(w)
    lst[i], lst[i + 1] = lst[i + 1], lst[i]
    return tuple(lst)


def _left_gen(w: Perm, i: int) -> Perm:
    """Left multiplication by s_i (transposition of values i, i+1)."""
    j = i + 1
    return tuple(j if x == i else (i if x == j else x) for x in w)


def coset_peel(w: Perm) -> tuple[Perm, range]:
    """The Markov-move peel of a w in S_n that moves the top strand.

    w = w' (s_{n-2} ... s_k) with k = w^-1(n-1) and w' in S_{n-1} (w with
    the entry at place k removed); a Markov trace eats the top generator
    s_{n-2}, leaving w' and the run s_{n-3} ... s_k, returned as the
    0-based generator indices in product order.
    """
    n = len(w)
    k = w.index(n - 1)
    return w[:k] + w[k + 1:], range(n - 3, k - 1, -1)


@dataclass(frozen=True)
class HeckeRing:
    """Coefficient context: the generic ring, or numbers at one point (x, y).

    `delta` is the loop value (y + 1)/x of the Ocneanu trace.
    """

    x: object
    y: object
    y_inv: object
    delta: object
    one: object
    zero: object

    @classmethod
    def generic(cls) -> "HeckeRing":
        x = LaurentPolynomial.var("x", XY)
        y = LaurentPolynomial.var("y", XY)
        one = LaurentPolynomial.one(XY)
        return cls(x, y, y.monomial_inverse(), (y + one) * x.monomial_inverse(),
                   one, LaurentPolynomial.zero(XY))

    @classmethod
    def numeric(cls, x, y) -> "HeckeRing":
        """Rational x, y != 0 (`int` or `Fraction`, else `RingError`);
        integral values stay `int`, so that y = 1, x = +-2 (loop value +-1)
        computes over the integers."""
        x, y = Fraction(_as_fraction(x)), Fraction(_as_fraction(y))
        if x == 0 or y == 0:
            raise RingError("x and y must be invertible")
        x, y, y_inv, delta = (v.numerator if v.denominator == 1 else v
                              for v in (x, y, 1 / y, (y + 1) / x))
        return cls(x, y, y_inv, delta, 1, 0)


class HeckeElement(Combination):
    """A combination of basis elements T_w, keyed by permutations of one S_n."""

    __slots__ = ()


def unit(n: int, ring: HeckeRing) -> HeckeElement:
    return HeckeElement({_identity(n): ring.one})


def multiply_generator(elem: HeckeElement, i: int, sign: int, ring: HeckeRing,
                       side: str = "left") -> HeckeElement:
    """Multiply by T_{s_i} (sign=+1) or by T_{s_i}^-1 (sign=-1) on one side.

    T_s T_w = T_{sw} when l(sw) > l(w), and x T_w - y T_{sw} otherwise
    (the quadratic relation T_s^2 = x T_s - y); on the right, read ws for
    sw.  T_s^-1 = (x - T_s) y^-1 gives the inverse case.  The length goes
    up exactly when s_i does not undo an inversion: on the left when value
    i stands before value i + 1, on the right when w[i] < w[i + 1].
    """
    left = side == "left"
    move = _left_gen if left else _right_gen
    terms = []
    for w, c in elem.coeffs.items():
        sw = move(w, i)
        ascent = w.index(i) < w.index(i + 1) if left else w[i] < w[i + 1]
        if sign > 0:
            if ascent:
                terms.append((sw, c))
            else:
                terms.append((w, c * ring.x))
                terms.append((sw, -1 * (c * ring.y)))
        else:
            # T_s^-1 T_w = y^-1 (x T_w - T_s T_w)
            if ascent:
                terms.append((w, c * ring.x * ring.y_inv))
                terms.append((sw, -1 * (c * ring.y_inv)))
            else:
                # = y^-1 (x T_w - x T_w + y T_{sw}) = T_{sw}
                terms.append((sw, c))
    return HeckeElement.collect(terms)


def hecke_normal_form(w: BraidWord, ring: HeckeRing | None = None) -> HeckeElement:
    """Image of a braid word on the T_w basis."""
    check_strands(w.strands)
    ring = ring or HeckeRing.generic()
    elem = unit(w.strands, ring)
    for letter in reversed(w.letters):
        elem = multiply_generator(elem, abs(letter) - 1, 1 if letter > 0 else -1, ring)
    return elem


class OcneanuTrace:
    """The Markov trace with t_1(1) = 1, memoized per (strands, permutation)."""

    def __init__(self, ring: HeckeRing | None = None):
        self.ring = ring or HeckeRing.generic()
        self._memo: dict[tuple[int, Perm], object] = {}

    def of_element(self, elem: HeckeElement):
        total = self.ring.zero
        for w, c in elem.coeffs.items():
            total = total + c * self._basis_trace(len(w), w)
        return total

    def of_braid(self, w: BraidWord):
        return self.of_element(hecke_normal_form(w, self.ring))

    def _basis_trace(self, n: int, w: Perm):
        key = (n, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        ring = self.ring
        if n == 1:
            value = ring.one
        elif w[n - 1] == n - 1:
            value = ring.delta * self._basis_trace(n - 1, w[: n - 1])
        else:
            value = self._right_fold_trace(*coset_peel(w))
        self._memo[key] = value
        return value

    def _right_fold_trace(self, w: Perm, gens: Sequence[int]):
        """t(T_w T_{s_{g1}} T_{s_{g2}} ...) for the descending run `gens`."""
        ring = self.ring
        elem = HeckeElement({w: ring.one})
        for i in gens:
            elem = multiply_generator(elem, i, 1, ring, side="right")
        return self.of_element(elem)


def parity_tracers() -> tuple[OcneanuTrace, OcneanuTrace]:
    """Numeric Ocneanu traces at (x, y) = (2, 1) and (-2, 1): the point
    y = 1, x = 2a at a = 1 and at a = -1."""
    return OcneanuTrace(HeckeRing.numeric(2, 1)), OcneanuTrace(HeckeRing.numeric(-2, 1))


def hecke_trace_qa(w: BraidWord, tracers: tuple[OcneanuTrace, OcneanuTrace]) -> QA:
    """Trace at the y = 1, x = 2a point as an element of Q[a]/(a^2-1).

    The values of the two `parity_tracers` at a = 1 and a = -1 are joined
    once; that is exact because Q[a]/(a^2-1) = Q x Q.
    """
    plus, minus = tracers
    return QA.from_components(plus.of_braid(w), minus.of_braid(w))
