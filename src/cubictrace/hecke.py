"""The Iwahori-Hecke algebra H_n(b,c) on the T_w basis, and the Markov traces on its tower.

Elements live over Q[x^+-1, y^+-1] (x = b + c, y = bc), or over the
rationals at one point (x, y) (`HeckeRing.numeric`).  The quadratic
relation T_s^2 = x T_s - y is written once, in the module action `_act_at`
on sparse dicts keyed by the element ids of a Coxeter system's step table
(`_StepTable`).  It is also the action of the central extension of
`coxeter`, at (x, y) = (2a, 1) with a C-term that only the extension
switches on.  There is one `SymmetricCoxeter` per strand count per process
(`symmetric`).

`TowerTrace` is the one recursion of a Markov trace on the tower S_1,
S_2, ...: a w in S_n that moves the top strand is w' (s_{n-2} ... s_k);
the Markov move eats s_{n-2} and leaves one word on n-1 strands, a
reduced word of w' and then the run s_{n-3} ... s_k (`coset_peel`), which
acts from the identity; a w that fixes the top strand descends a level by
a rule the trace supplies.  It memoizes per (strands, step-table id, a).
The Ocneanu trace (`OcneanuTrace`) is the tower with t_1(1) = 1 and the
rule t_n(T_w) = delta_H t_{n-1}(T_w), delta_H = (y + 1)/x, the unique
choice making both stabilizations trace-preserving: t(u s_n) =
t(u s_n^-1) = t(u).  The theorem trace of `coxeter` is two towers at
(x, y) = (2a, 1) with the C-term on.  The Ocneanu value at y = 1, x = 2a
in Q[a]/(a^2-1) (`hecke_trace_qa`) is joined from the two integer traces
at (x, y) = (2, 1) and (-2, 1), the values at a = 1 and a = -1.

Permutations are tuples in one-line notation on 0..n-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

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


# -- Coxeter systems and the module action ----------------------------------------


class _StepTable(dict):
    """Element ids and lengths, and per id the row of (id of s w, l(s w) > l(w), l(w) odd) over s.

    Ids and rows are assigned on first use, so acting on a sparse vector
    never enumerates the group.  A row decides each ascent by `cox.ascent`
    and gives s w the length l(w) +- 1, so lengths are computed only for
    the elements handed to `id` from outside the table.
    """

    def __init__(self, cox: "CoxeterSystem"):
        super().__init__()
        self.cox = cox
        self.ids: dict = {}
        self.elements: list = []
        self.lengths: list[int] = []

    def id(self, w, length: int | None = None) -> int:
        i = self.ids.get(w)
        if i is None:
            i = self.ids[w] = len(self.elements)
            self.elements.append(w)
            self.lengths.append(self.cox.length(w) if length is None else length)
        return i

    def __missing__(self, i: int):
        cox = self.cox
        w, ell = self.elements[i], self.lengths[i]
        row = []
        for g in cox.generators():
            up = cox.ascent(g, w)
            row.append((self.id(cox.act(g, w), ell + 1 if up else ell - 1), up, ell % 2 == 1))
        self[i] = row = tuple(row)
        return row


class CoxeterSystem:
    """Type A (symmetric group) or dihedral I2(m), with the step table of the module action."""

    def __init__(self):
        self.steps = _StepTable(self)

    def identity(self):
        raise NotImplementedError

    def generators(self) -> Sequence[int]:
        raise NotImplementedError

    def act(self, gen: int, w):
        """Left multiplication s_gen * w."""
        raise NotImplementedError

    def length(self, w) -> int:
        raise NotImplementedError

    def ascent(self, gen: int, w) -> bool:
        """Whether l(s_gen * w) > l(w)."""
        raise NotImplementedError

    def elements(self) -> Iterable:
        raise NotImplementedError

    def braid_relations(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        raise NotImplementedError


class SymmetricCoxeter(CoxeterSystem):
    """S_n with elements as one-line tuples on 0..n-1; length = inversions."""

    def __init__(self, n: int):
        if n < 1:
            raise RingError("need at least one strand")
        if n > MAX_STRANDS:
            raise RingError(f"{n} strands: the Hecke and theorem-trace engines take "
                            f"at most {MAX_STRANDS}")
        super().__init__()
        self.n = n

    def identity(self):
        return tuple(range(self.n))

    def generators(self):
        return range(self.n - 1)

    def act(self, gen: int, w):
        # s_gen swaps the values gen and gen + 1
        j = gen + 1
        return tuple(j if x == gen else (gen if x == j else x) for x in w)

    def length(self, w) -> int:
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    def ascent(self, gen: int, w) -> bool:
        # an inversion is added when gen stands before gen + 1
        return w.index(gen) < w.index(gen + 1)

    def elements(self):
        return itertools.permutations(range(self.n))

    def braid_relations(self):
        return [((i, j, i), (j, i, j)) if j == i + 1 else ((i, j), (j, i))
                for i in self.generators() for j in self.generators() if i < j]


# strand count -> the S_n whose step-table ids key the trace memos, shared by
# every engine of the process
_SYMMETRIC: dict[int, SymmetricCoxeter] = {}


def symmetric(n: int) -> SymmetricCoxeter:
    cox = _SYMMETRIC.get(n)
    if cox is None:
        cox = _SYMMETRIC[n] = SymmetricCoxeter(n)
    return cox


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word of w, as 1-based letters in product order.

    w = w' (s_{n-2} ... s_k) with k = w^-1(n-1) and w' in S_{n-1} (w with
    the entry at place k removed), and l(w) = l(w') + n-1-k; w' is peeled
    the same way.
    """
    word: tuple[int, ...] = ()
    while len(w) > 1:
        n, k = len(w), w.index(len(w) - 1)
        word = tuple(range(n - 1, k, -1)) + word
        w = w[:k] + w[k + 1:]
    return word


def coset_peel(w: Perm) -> tuple[int, ...]:
    """The Markov-move peel of a w in S_n that moves the top strand.

    A Markov trace eats the top generator s_{n-2} of w = w' (s_{n-2} ...
    s_k) (see `reduced_word`), leaving one word on n-1 strands: a reduced
    word of w', then the run s_{n-3} ... s_k, as 1-based letters.
    """
    n = len(w)
    k = w.index(n - 1)
    return reduced_word(w[:k] + w[k + 1:]) + tuple(range(n - 2, k, -1))


def _act_at(cox: CoxeterSystem, word: Sequence[int], vec: dict, x, y, y_inv,
            a=None, c=None) -> tuple[dict, object]:
    """The action of a braid word on sum_i vec[i] T_w(i) (+ c C), as (vec, c).

    The one place that writes the rule:
        T_s T_w    = T_sw if l(sw) > l(w), else x T_w - y T_sw;
        T_s^-1 T_w = T_sw if l(sw) < l(w), else x y^-1 T_w - y^-1 T_sw.
    Keys are the element ids of `cox.steps`; letters are 1-based, signed
    and act right to left; zero terms are dropped after every letter.  The
    extension of `coxeter` passes (x, y) = (2a, 1), `a` and c: s C = a C,
    and each two-term line adds -2 a^l(w) v C (-x v C, or -a x v C for even
    l(w)); on a descent the C-terms of s^-1 = 2a - 2C - s cancel.  That
    needs only a^2 = 1: `a` is the A of Q[a]/(a^2-1) on `QA` coefficients
    or a = +-1 on int-closed ones.
    """
    steps = cox.steps
    extended = c is not None
    xy_inv = x * y_inv
    for letter in reversed(word):
        positive = letter > 0
        if positive:
            gen, p, q = letter - 1, x, y
        else:
            gen, p, q = -letter - 1, xy_inv, y_inv
        if extended:
            c = a * c
        out: dict = {}
        get = out.get
        for w, v in vec.items():
            sw, ascent, odd = steps[w][gen]
            if ascent == positive:
                out[sw] = get(sw, 0) + v
            else:
                pv = p * v
                out[w] = get(w, 0) + pv
                out[sw] = get(sw, 0) - q * v
                if extended:
                    c = c - (pv if odd else a * pv)
        vec = {w: v for w, v in out.items() if v}
    return vec, c


# -- the Hecke algebra and its Ocneanu trace ----------------------------------------


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


def _image(n: int, word: Sequence[int], ring: HeckeRing, a=None, c=None
           ) -> tuple[_StepTable, dict, object]:
    """The image of a word on n strands, acting from the identity, as
    (steps, vec, c): `vec` is keyed by the step-table ids of `symmetric(n)`,
    and c is the C coefficient when `a` and a start c are given (else None)."""
    cox = symmetric(n)
    start = {cox.steps.id(cox.identity(), 0): ring.one}
    return (cox.steps, *_act_at(cox, word, start, ring.x, ring.y, ring.y_inv, a, c))


def hecke_normal_form(w: BraidWord, ring: HeckeRing | None = None) -> HeckeElement:
    """Image of a braid word on the T_w basis."""
    steps, vec, _ = _image(w.strands, w.letters, ring or HeckeRing.generic())
    return HeckeElement({steps.elements[i]: v for i, v in vec.items()})


class TowerTrace:
    """A Markov trace on the tower of S_n, memoized per (strands, step-table id, a).

    t_n of a word acts with it from the identity (`_act_at` over `ring`, and
    with the C-term of the extension when `a` is set, t_n(C) = a^n) and
    sums the traces of the basis elements T_w:
      * t_1(T_1) = `base`;
      * a w that moves the top strand is peeled by the Markov move into
        one word on n-1 strands (`coset_peel`);
      * a w that fixes it descends a level:
        t_n(T_w) = descend(t_{n-1}(T_w), l(w), n).
    Traces differ only in this data; towers that differ in `a` may share
    one `memo`.
    """

    def __init__(self, ring: HeckeRing, base, descend: Callable, a=None,
                 memo: dict | None = None):
        self.ring, self.base, self.descend, self.a = ring, base, descend, a
        self._c = None if a is None else ring.zero
        self._memo: dict[tuple[int, int, object], object] = {} if memo is None else memo

    def of_braid(self, w: BraidWord):
        return self._word_trace(w.strands, w.letters)

    def _word_trace(self, n: int, word: Sequence[int]):
        """t_n of the image of `word` on n strands."""
        _, vec, c = _image(n, word, self.ring, self.a, self._c)
        total = self.ring.zero if c is None else c * self.a ** n
        for i, v in vec.items():
            total = total + v * self._basis_trace(n, i)
        return total

    def _basis_trace(self, n: int, i: int):
        """t_n(T_w), w having the id i in `symmetric(n).steps`."""
        if n == 1:
            return self.base
        key = (n, i, self.a)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        steps = symmetric(n).steps
        w = steps.elements[i]
        if w[n - 1] == n - 1:
            length = steps.lengths[i]
            lower = symmetric(n - 1).steps.id(w[:-1], length)
            value = self.descend(self._basis_trace(n - 1, lower), length, n)
        else:
            value = self._word_trace(n - 1, coset_peel(w))
        self._memo[key] = value
        return value


class OcneanuTrace(TowerTrace):
    """The Markov trace with t_1(1) = 1 and t_n(T_w) = delta t_{n-1}(T_w)
    for a w that fixes the top strand."""

    def __init__(self, ring: HeckeRing | None = None):
        ring = ring or HeckeRing.generic()
        delta = ring.delta
        super().__init__(ring, ring.one, lambda t, length, n: delta * t)


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
