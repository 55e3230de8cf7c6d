"""The Iwahori-Hecke algebra H_n(b,c) on the T_w basis, with the Ocneanu trace.

Elements live over Q[x^+-1, y^+-1] (x = b + c, y = bc); the quadratic
relation s^2 = x s - y is baked into the multiplication, so products of
basis elements are always basis combinations, never words.  Inverse braid
letters use s^-1 = (x - s)/y.

The Ocneanu Markov trace is normalized by t_1(1) = 1 and loop value
delta_H = (y + 1)/x, which is the unique choice making both stabilizations
trace-preserving: t(u s_n) = t(u s_n^-1) = t(u).  It is computed by the
coset peeling w = w' (s_{n-1} ... s_k) read off from the last-strand image,
with values memoized per (strands, permutation).

Permutations are tuples in one-line notation on 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import BraidWord
from .combination import Combination
from .qa import QA
from .rings import LaurentPolynomial, QuotientSpec, RingError, fold_a

XY = ("x", "y")

Perm = tuple[int, ...]


def _identity(n: int) -> Perm:
    return tuple(range(n))


def _right_gen(w: Perm, i: int) -> Perm:
    """Right multiplication by s_i (transposition of places i, i+1)."""
    lst = list(w)
    lst[i], lst[i + 1] = lst[i + 1], lst[i]
    return tuple(lst)


def _left_gen(w: Perm, i: int) -> Perm:
    """Left multiplication by s_i (transposition of values i, i+1)."""
    return tuple(x if x not in (i, i + 1) else (i + 1 if x == i else i) for x in w)


@dataclass(frozen=True)
class HeckeRing:
    """Coefficient context: the generic ring or a specialization of it."""

    variables: tuple[str, ...]
    x: LaurentPolynomial
    y: LaurentPolynomial
    x_inv: LaurentPolynomial
    y_inv: LaurentPolynomial
    one: LaurentPolynomial
    zero: LaurentPolynomial

    @classmethod
    def generic(cls) -> "HeckeRing":
        x = LaurentPolynomial.var("x", XY)
        y = LaurentPolynomial.var("y", XY)
        return cls(XY, x, y, x.monomial_inverse(), y.monomial_inverse(),
                   LaurentPolynomial.one(XY), LaurentPolynomial.zero(XY))

    @classmethod
    def at_parity_point(cls) -> "HeckeRing":
        """y = 1, x = 2a over Q[a]/(a^2-1); x^-1 = a/2."""
        av = ("a",)
        x = LaurentPolynomial.parse("2*a", av)
        one = LaurentPolynomial.one(av)
        return cls(av, x, one, LaurentPolynomial.parse("1/2*a", av), one,
                   one, LaurentPolynomial.zero(av))

    def delta(self) -> LaurentPolynomial:
        return (self.y + self.one) * self.x_inv

    def reduce(self, p: LaurentPolynomial) -> LaurentPolynomial:
        if self.variables == ("a",):
            return fold_a(p)
        return p


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
    return HeckeElement.collect(terms).map(ring.reduce)


def hecke_normal_form(w: BraidWord, ring: HeckeRing | None = None) -> HeckeElement:
    """Image of a braid word on the T_w basis."""
    ring = ring or HeckeRing.generic()
    elem = unit(w.strands, ring)
    for letter in reversed(w.letters):
        elem = multiply_generator(elem, abs(letter) - 1, 1 if letter > 0 else -1, ring)
    return elem


class OcneanuTrace:
    """The Markov trace with t_1(1) = 1, memoized per (strands, permutation)."""

    def __init__(self, ring: HeckeRing | None = None):
        self.ring = ring or HeckeRing.generic()
        self._memo: dict[tuple[int, Perm], LaurentPolynomial] = {}

    def of_element(self, elem: HeckeElement) -> LaurentPolynomial:
        total = self.ring.zero
        for w, c in elem.coeffs.items():
            total = total + c * self._basis_trace(len(w), w)
        return self.ring.reduce(total)

    def of_braid(self, w: BraidWord) -> LaurentPolynomial:
        return self.of_element(hecke_normal_form(w, self.ring))

    def _basis_trace(self, n: int, w: Perm) -> LaurentPolynomial:
        key = (n, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        ring = self.ring
        if n == 1:
            value = ring.one
        elif w[n - 1] == n - 1:
            value = ring.delta() * self._basis_trace(n - 1, w[: n - 1])
        else:
            # Peel the canonical coset factor: w = w' (s_{n-2} ... s_k) with
            # k = w^-1(n-1) and w' in S_{n-1}; the Markov move eats the top
            # generator, leaving t_{n-1}(T_{w'} T_{s_{n-3}} ... T_{s_k}).
            k = w.index(n - 1)
            w_prime = list(w)
            for j in range(k, n - 1):
                w_prime[j] = w_prime[j + 1]
            w_prime = tuple(w_prime[: n - 1])
            value = self._right_fold_trace(w_prime, list(range(n - 3, k - 1, -1)))
        value = ring.reduce(value)
        self._memo[key] = value
        return value

    def _right_fold_trace(self, w: Perm, gens: list[int]) -> LaurentPolynomial:
        """t(T_w T_{s_{g1}} T_{s_{g2}} ...) for the descending run `gens`."""
        ring = self.ring
        elem = HeckeElement({w: ring.one})
        for i in gens:
            elem = multiply_generator(elem, i, 1, ring, side="right")
        return self.of_element(elem)


def homfly_invariant(w: BraidWord, spec: QuotientSpec | None = None,
                     tracer: OcneanuTrace | None = None):
    """Ocneanu trace of a braid, optionally specialized.

    With spec sending y -> 1, x -> 2a (a^2 = 1) the value is a^(#L - 1).
    A specialization must keep x invertible.
    """
    if tracer is not None:
        return tracer.of_braid(w)
    if spec is None:
        return OcneanuTrace().of_braid(w)
    x_image = spec.reduce(LaurentPolynomial.var("x", spec.source_variables))
    y_image = spec.reduce(LaurentPolynomial.var("y", spec.source_variables))
    if spec.target_variables == ("a",):
        if y_image != LaurentPolynomial.one(("a",)):
            raise RingError("only the y = 1 specializations are supported here")
        x_qa = QA.from_poly(x_image)
        if not x_qa.is_unit():
            raise RingError("specialization kills x")
        ring = HeckeRing(
            ("a",), x_image, y_image, x_qa.inverse().to_poly(), y_image,
            LaurentPolynomial.one(("a",)), LaurentPolynomial.zero(("a",)),
        )
        return QA.from_poly(OcneanuTrace(ring).of_braid(w))
    generic = OcneanuTrace().of_braid(w)
    return spec.reduce(generic)


def hecke_trace_qa(w: BraidWord, tracer: OcneanuTrace) -> QA:
    """Trace at the y=1, x=2a point as an element of Q[a]/(a^2-1)."""
    return QA.from_poly(tracer.of_braid(w))


def spec_hecke_parity_point() -> QuotientSpec:
    """Q[x^-1+-, y^+-1] -> Q[a]/(a^2-1) with x -> 2a, y -> 1."""
    from .rings import PowerReduce, Substitute
    av = ("a",)
    return QuotientSpec(
        "xy->(2a,1)", ("x", "y", "a"),
        (
            Substitute("x", LaurentPolynomial.parse("2*a", av)),
            Substitute("y", LaurentPolynomial.one(av)),
            PowerReduce("a", 2, LaurentPolynomial.one(av)),
        ),
    )
