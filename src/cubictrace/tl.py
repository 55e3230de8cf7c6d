"""The extended Temperley-Lieb algebra: e_1 .. e_{n-1} and a central C.

Over A = Q[a, x, x^-1]/(a^2 - 1), with dt = 2 - ax:

    (1) e_i^2       = dt x^-1 e_i
    (2) e_i C = C e_i = dt x^-1 C
    (3) C^2         = 2 x^-2 dt (a - x) C
    (4) e_i e_j     = e_j e_i            (|i-j| >= 2)
    (5) e_i e_j e_i = e_i + 2a x^-1 C    (|i-j| = 1)

A basis is the usual Temperley-Lieb diagram basis (Jones normal words,
Catalan many) together with C.  A word w of L letters is stacked as a
tangle: `skein.contract` gives its boundary matching, which names a normal
word N, and its number k of closed circles.  With m = (L - k - |N|)/2,

    w = (dt/x)^k N + (2a/x) sum_{j<m} (dt/x)^(L-3-2j) C,

which is what rewriting by (1), (4) and (5) gives in any order.  (4) keeps
the tangle; (1) drops a letter and a circle and multiplies by dt/x; a
use of (5) after j others and i uses of (1) drops two letters at length
l = L - i - 2j and adds (2a/x)(dt/x)^(l-3) C, since by (2) each remaining
letter acts on C by dt/x, and the i earlier factors dt/x make that
(2a/x)(dt/x)^(L-3-2j) C.  Associativity is property-tested, not proved.

The two trace families live at the special points:
  * x = a:  t(word of length k) = a^(k+n) (N(word) - k) with N the number
    of circles in the diagrammatic trace closure (internal circles count;
    `closure_circles` counts them with the contraction `skein.contract`),
    and t(C) = -a^(n+1);
  * x = 2a: t(1) = v_n, t(e_i) = u_n, t(C) = -u_n, t(longer words) = 0,
    with u_n = -a^n, v_n = (n-2) a^(n+1) and v_1 = 0.
Both formulas apply to any word, reduced or not, so
`relator_sandwich_traces` checks them on the terms of u R v for the
defining relators R, which `ExtTL` would reduce to 0.  Letters are
0-indexed (letter i is e_{i+1}); every entry point refuses a letter
outside 0 .. n-2 with `RingError`.

`split_checks` certifies when the central extension splits over the plain
Temperley-Lieb algebra (x != a: `cleared_section`, the section cleared of
its denominator, satisfies the relations in `ExtTL(4)` over Q[a, x]; at
x = 2a the section is e_i + C) and that the braid-style extension never
splits at x = a or x = 2a, because there its obstruction polynomial in
lambda has the unit x^4 as its only nonzero coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .combination import Combination
from .qa import A, QA, specialize
from .rings import AX, LaurentPolynomial, RingError, fold_a
from .skein import contract

Word = tuple[int, ...]
C_WORD = "C"


def apl(text: str) -> LaurentPolynomial:
    return fold_a(LaurentPolynomial.parse(text, AX))


DT = apl("2 - a*x")
DT_OVER_X = apl("(2 - a*x) * x^-1")
C_SQUARED = apl("2 * x^-2 * (2 - a*x) * (a - x)")
TWO_A_OVER_X = apl("2*a*x^-1")


class TLElement(Combination):
    """Formal combination of normal words and C with coefficients in A."""

    __slots__ = ()

    @classmethod
    def word(cls, word: Word, coeff: LaurentPolynomial | int = 1) -> "TLElement":
        if isinstance(coeff, int):
            coeff = LaurentPolynomial.constant(coeff, AX)
        return cls({tuple(word): coeff})

    @classmethod
    def c(cls, coeff: LaurentPolynomial | int = 1) -> "TLElement":
        if isinstance(coeff, int):
            coeff = LaurentPolynomial.constant(coeff, AX)
        return cls({C_WORD: coeff})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k, v in sorted(self.coeffs.items(), key=lambda kv: str(kv[0])):
            name = "C" if k == C_WORD else ("1" if k == () else "e" + "e".join(map(str, k)))
            bits.append(f"({v.render()})*{name}")
        return " + ".join(bits)


class ExtTL:
    """The rank-n extended algebra, multiplied through the stacked tangle."""

    def __init__(self, n: int):
        if not (1 <= n <= 6):
            raise RingError("rank limited to n <= 6")
        self.n = n
        self.normal_words = tuple(jones_normal_words(n))

    def reduce_word(self, word: Word) -> TLElement:
        """Express a generator word on the basis (normal words and C)."""
        return _reduce(tuple(word), self.n)

    def multiply(self, u: TLElement, v: TLElement) -> TLElement:
        """Product in the extended algebra."""
        return TLElement.collect(
            (k, fold_a(cu * cv * c))
            for ku, cu in u.coeffs.items()
            for kv, cv in v.coeffs.items()
            for k, c in self._basis_product(ku, kv).coeffs.items()
        )

    def _basis_product(self, ku, kv) -> TLElement:
        if ku == C_WORD and kv == C_WORD:
            return TLElement.c(C_SQUARED)
        if ku == C_WORD or kv == C_WORD:
            word = kv if ku == C_WORD else ku
            _check_letters(word, self.n)
            return TLElement.c(_dt_over_x_power(len(word)))
        return self.reduce_word(tuple(ku) + tuple(kv))

    def basis(self) -> list:
        return [C_WORD] + [w for w in self.normal_words]


@cache
def _dt_over_x_power(k: int) -> LaurentPolynomial:
    return fold_a(DT_OVER_X ** k)


@cache
def _reduce(word: Word, n: int) -> TLElement:
    """A word on the basis, by the closed form of the module docstring."""
    matching, circles = _tangle(word, n)
    normal = _normal_word_by_matching(n)[matching]
    c = LaurentPolynomial.zero(AX)
    for j in range((len(word) - circles - len(normal)) // 2):
        c = c + _dt_over_x_power(len(word) - 3 - 2 * j)
    return (TLElement.word(normal, _dt_over_x_power(circles))
            + TLElement.c(fold_a(TWO_A_OVER_X * c)))


def jones_normal_words(n: int) -> list[Word]:
    """The Catalan-many normal words: products of descending runs
    (e_{i1} e_{i1-1} ... e_{j1}) ... with i1 < i2 < ... and j1 < j2 < ...
    """
    words: list[Word] = [()]

    def extend(prefix: list[tuple[int, int]], min_i: int, min_j: int):
        for i in range(min_i, n - 1):
            for j in range(min_j, i + 1):
                runs = prefix + [(i, j)]
                word = tuple(k for (ii, jj) in runs for k in range(ii, jj - 1, -1))
                words.append(word)
                extend(runs, i + 1, j + 1)

    extend([], 0, 0)
    return words


# -- the stacked tangle ----------------------------------------------------------


def _check_letters(word: Word, n: int) -> None:
    """Raise unless every letter names one of e_1 .. e_{n-1} (0-indexed)."""
    for i in word:
        if not (isinstance(i, int) and 0 <= i <= n - 2):
            raise RingError(f"letter {i!r} is not one of the rank-{n} letters 0 .. {n - 2}")


def _stack_edges(word: Word, n: int) -> list[tuple[int, int]]:
    """The tangle of a word (0-indexed letters) on n strands, as edges.

    Level k holds the points k n .. k n + n-1; letter k joins level k to
    level k+1 (a cap at k n + i, k n + i+1 and a cup at the next level
    for e_{i+1}, straight strands elsewhere).
    """
    _check_letters(word, n)
    edges: list[tuple[int, int]] = []
    for k, i in enumerate(word):
        low, high = k * n, (k + 1) * n
        edges += [(low + i, low + i + 1), (high + i, high + i + 1)]
        edges += [(low + j, high + j) for j in range(n) if j != i and j != i + 1]
    return edges


def _tangle(word: Word, n: int) -> tuple[tuple, int]:
    """The boundary matching of a word's tangle and its closed circles.

    The levels strictly between the bottom and the top are internal; the
    top points are renumbered n .. 2n-1 so the matching forgets the length.
    """
    top = len(word) * n
    arcs, circles = contract(_stack_edges(word, n), range(n, top))
    ends = lambda p: p if p < n else p - top + n
    return tuple((ends(p), ends(q)) for p, q in arcs), circles


@cache
def _normal_word_by_matching(n: int) -> dict[tuple, Word]:
    return {_tangle(w, n)[0]: w for w in jones_normal_words(n)}


def closure_circles(word: Word, n: int) -> int:
    """Circles of the trace closure of a word (0-indexed letters) on n strands:
    the stacked tangle with the top level joined back to level 0, every
    point internal to `contract`."""
    top = len(word) * n
    edges = _stack_edges(word, n) + [(top + j, j) for j in range(n)]
    return contract(edges, range(top + n))[1]


# -- the two trace families -------------------------------------------------------


def _trace(elem: TLElement | Word, x: QA, cell: Callable[[Word | str], QA]) -> QA:
    """sum specialize(coeff, x) * cell(key) over the terms of elem; a word is
    coerced to its element first."""
    if not isinstance(elem, TLElement):
        elem = TLElement.word(tuple(elem))
    total = QA(0)
    for k, coeff in elem.coeffs.items():
        total = total + specialize(coeff, x) * cell(k)
    return total


def trace_xa(elem: TLElement | Word, n: int) -> QA:
    """The trace family at x = a: a^(k+n)(N - k) on words, -a^(n+1) on C."""
    def cell(k: Word | str) -> QA:
        if k == C_WORD:
            return -QA.a_power(n + 1)
        return QA.a_power(len(k) + n) * QA(closure_circles(k, n) - len(k))

    return _trace(elem, A, cell)


def trace_x2a(elem: TLElement | Word, n: int) -> QA:
    """The trace family at x = 2a: v_n, u_n, -u_n, 0 on 1, e_i, C, longer.

    u_n = -a^n and v_n = (n-2) a^(n+1) (v_1 = 0), the values forced by the
    tower normalization t_n(1) = (n-2) a^(n+1).
    """
    u = -QA.a_power(n)
    v = QA(0) if n == 1 else QA.a_power(n + 1) * QA(n - 2)

    def cell(k: Word | str) -> QA:
        if k == C_WORD:
            return -u
        _check_letters(k, n)
        return v if not k else u if len(k) == 1 else QA(0)

    return _trace(elem, 2 * A, cell)


def relator_sandwich_traces(u: Word, i: int, v: Word, n: int) -> list[list[QA]]:
    """Both trace families on u R v, for the relators R of (1) and (5) at e_i.

    The terms of u R v are traced unreduced, each word by the family's
    formula, with u C v = (dt/x)^(|u|+|v|) C by (2).  Returns one list of
    term traces per relator and family; each sums to zero exactly when the
    family respects that relator there.  Reduced in `ExtTL`, every u R v
    is 0, and its trace would be the trace of 0.
    """
    def between(w: Word, coeff: LaurentPolynomial | int = 1) -> TLElement:
        return TLElement.word(tuple(u) + w + tuple(v), coeff)

    relators = [[between((i, i)), between((i,), -DT_OVER_X)]]
    if i + 1 <= n - 2:
        c = fold_a(TWO_A_OVER_X * _dt_over_x_power(len(u) + len(v)))
        relators.append([between((i, i + 1, i)), between((i,), -1), TLElement.c(-c)])
    return [[trace(term, n) for term in terms]
            for terms in relators for trace in (trace_xa, trace_x2a)]


# -- splitting and retraction certificates ----------------------------------------


@dataclass
class SplitReport:
    generic_section_works: bool
    x2a_section_works: bool
    xa_obstructed: bool
    braid_obstruction_unit_xa: bool
    braid_obstruction_unit_x2a: bool

    @property
    def ok(self) -> bool:
        return (self.generic_section_works and self.x2a_section_works
                and self.xa_obstructed and self.braid_obstruction_unit_xa
                and self.braid_obstruction_unit_x2a)


def cleared_section(i: int) -> TLElement:
    """The section e_i -> e_i + lambda C, lambda = -x/(2(a-x)), times 2(a-x):
    2(a-x) e_i - x C."""
    return TLElement.word((i,), apl("2*(a-x)")) + TLElement.c(apl("-x"))


def x2a_section(i: int) -> TLElement:
    """The section e_i -> e_i + C at x = 2a."""
    return TLElement.word((i,)) + TLElement.c(1)


def _relation_residues(alg: ExtTL, section: Callable[[int], TLElement],
                       k: LaurentPolynomial) -> list[TLElement]:
    """Residues of (1), (4) and (5) for f_i = section(i), a candidate section
    times k: f_0^2 - k (dt/x) f_0, f_0 f_2 - f_2 f_0 and f_0 f_1 f_0 - k^2 f_0."""
    f0, f1, f2 = (section(i) for i in range(3))
    m = alg.multiply
    return [m(f0, f0) - f0.scale(k * DT_OVER_X), m(f0, f2) - m(f2, f0),
            m(m(f0, f1), f0) - f0.scale(k * k)]


def split_checks() -> SplitReport:
    """Splitting analysis of both central extensions.

    (i) With lambda = -x/(2(a-x)), the map e_i -> e_i + lambda C satisfies
    the plain Temperley-Lieb relations, so the TL extension splits away
    from x = a: `cleared_section` clears the denominator, and its
    relations hold in ExtTL(4) over Q[a, x].  At x = 2a the section
    e_i -> e_i + C works directly.  At x = a the residue of (1) for
    e_i + lambda C is a lambda C, so lambda = 0, and then (5) leaves
    2a x^-1 C = 2C.

    (ii) The braid-style extension's splitting obstruction polynomial
    Q(lambda) = x^4 (1 + u dt + u^2 dt), u = 2 lambda a (a-x) x^-2, is the
    unit constant x^4 at both x = a and x = 2a, so it has no roots there:
    its coefficients of lambda^1 and lambda^2 vanish and that of lambda^0
    is a unit.
    """
    alg = ExtTL(4)
    one = apl("1")
    generic_ok = all(r.map(fold_a).is_zero()
                     for r in _relation_residues(alg, cleared_section, apl("2*(a-x)")))
    x2a_ok = all(r.map(lambda p: specialize(p, 2 * A)).is_zero()
                 for r in _relation_residues(alg, x2a_section, one))
    sandwich = _relation_residues(alg, lambda i: TLElement.word((i,)), one)[2]
    xa_obstructed = sandwich.map(lambda p: specialize(p, A)) == TLElement({C_WORD: QA(2)})

    # Q(lambda) by its coefficients of lambda^0, lambda^1, lambda^2 (a^2 = 1)
    q = (apl("x^4"), apl("2*a*(a-x)*x^2") * DT, apl("4*(a-x)^2") * DT)

    def q_is_unit(x: QA) -> bool:
        constant, *rest = (specialize(c, x) for c in q)
        return constant.is_unit() and not any(rest)

    return SplitReport(
        generic_section_works=generic_ok,
        x2a_section_works=x2a_ok,
        xa_obstructed=xa_obstructed,
        braid_obstruction_unit_xa=q_is_unit(A),
        braid_obstruction_unit_x2a=q_is_unit(2 * A),
    )


@dataclass
class RetractionReport:
    cubic: bool
    braid: bool
    e_recovered: bool
    absorption: bool
    sandwich: bool
    c_central: bool

    @property
    def ok(self) -> bool:
        return (self.cubic and self.braid and self.e_recovered and self.absorption
                and self.sandwich and self.c_central)


def retraction_check() -> RetractionReport:
    """At x = -2a the assignment s_i, s_i^-1 -> -e_i - a, C -> C satisfies
    the braid-algebra relations inside the extended Temperley-Lieb algebra
    of rank 4."""
    alg = ExtTL(4)

    def at(p: LaurentPolynomial) -> QA:
        return specialize(p, -2 * A)

    def shat(i: int) -> TLElement:
        return TLElement.word((i,)).scale(-1) + TLElement({(): apl("-a")})

    def mul(*els):
        out = els[0]
        for e in els[1:]:
            out = alg.multiply(out, e)
        return out

    one = TLElement.word(())
    a_el = TLElement({(): apl("a")})
    x_el = TLElement({(): apl("x")})

    s1, s2 = shat(0), shat(1)
    # cubic (s - a)(s^2 - xs + 1) = 0
    cubic = mul(s1 - a_el, mul(s1, s1) - mul(x_el, s1) + one)
    cubic_ok = cubic.map(at).is_zero()
    # braid relation
    braid_ok = (mul(s1, s2, s1) - mul(s2, s1, s2)).map(at).is_zero()
    # e_i = a((s + s^-1)/x - 1): cleared by x: a(s + s^-1 - x)
    e_rec = (s1 + s1).scale(apl("a")) - TLElement({(): apl("a*x")})
    e_target = TLElement.word((0,)).scale(apl("x"))
    e_ok = (e_rec - e_target).map(at).is_zero()
    # absorption s e = a e
    absorb = mul(s1, TLElement.word((0,))) - TLElement.word((0,)).scale(apl("a"))
    absorb_ok = absorb.map(at).is_zero()
    # sandwich e1 s2 e1 = e1 + C and the inverse variant
    e1 = TLElement.word((0,))
    sandwich = mul(e1, s2, e1) - e1 - TLElement.c(1)
    sandwich_ok = sandwich.map(at).is_zero()
    # s C = a C
    c_rel = mul(s1, TLElement.c(1)) - TLElement.c(apl("a"))
    c_ok = c_rel.map(at).is_zero()
    return RetractionReport(cubic_ok, braid_ok, e_ok, absorb_ok, sandwich_ok, c_ok)
