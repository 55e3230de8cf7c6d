"""The extended Temperley-Lieb algebra: e_1 .. e_{n-1} and a central C.

Over A = Q[a, x, x^-1]/(a^2 - 1), with dt = 2 - ax:

    (1) e_i^2       = dt x^-1 e_i
    (2) e_i C = C e_i = dt x^-1 C
    (3) C^2         = 2 x^-2 dt (a - x) C
    (4) e_i e_j     = e_j e_i            (|i-j| >= 2)
    (5) e_i e_j e_i = e_i + 2a x^-1 C    (|i-j| = 1)

A basis is the usual Temperley-Lieb diagram basis (Jones normal words,
Catalan many) together with C.  Multiplication is done by rewriting words
with memoized breadth-first search over commutation moves, which is cheap
at the ranks used here (n <= 6); associativity is property-tested rather
than proved by a confluence argument.

The two trace families live at the special points:
  * x = a:  t(word of length k) = a^(k+n) (N(word) - k) with N the number
    of circles in the diagrammatic trace closure (internal circles count),
    and t(C) = -a^(n+1);
  * x = 2a: t(1) = v_n, t(e_i) = u_n, t(C) = -u_n, t(longer words) = 0,
    with u_n = -a^n, v_n = (n-2) a^(n+1) and v_1 = 0.

`split_checks` certifies when the central extension splits over the plain
Temperley-Lieb algebra (x != a, with the explicit section; at x = 2a the
section is e_i + C) and that the braid-style extension never splits at
x = a or x = 2a because its obstruction polynomial is the unit x^4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combination import Combination
from .qa import A, QA, specialize
from .rings import AX, LaurentPolynomial, RingError, fold_a

Word = tuple[int, ...]
C_WORD = "C"

A_VARS = AX  # ("a", "x")


def apl(text: str) -> LaurentPolynomial:
    return fold_a(LaurentPolynomial.parse(text, A_VARS))


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
            coeff = LaurentPolynomial.constant(coeff, A_VARS)
        return cls({tuple(word): coeff})

    @classmethod
    def c(cls, coeff: LaurentPolynomial | int = 1) -> "TLElement":
        if isinstance(coeff, int):
            coeff = LaurentPolynomial.constant(coeff, A_VARS)
        return cls({C_WORD: coeff})

    @classmethod
    def zero(cls) -> "TLElement":
        return cls({})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k, v in sorted(self.coeffs.items(), key=lambda kv: str(kv[0])):
            name = "C" if k == C_WORD else ("1" if k == () else "e" + "e".join(map(str, k)))
            bits.append(f"({v.render()})*{name}")
        return " + ".join(bits)


class ExtTL:
    """The rank-n extended algebra with rewriting-based multiplication."""

    def __init__(self, n: int):
        if not (1 <= n <= 6):
            raise RingError("rank limited to n <= 6")
        self.n = n
        self._reduce_cache: dict[Word, TLElement] = {}
        self.normal_words = tuple(jones_normal_words(n))

    # -- rewriting ---------------------------------------------------------

    def reduce_word(self, word: Word) -> TLElement:
        """Express a generator word on the basis (normal words and C)."""
        word = tuple(word)
        hit = self._reduce_cache.get(word)
        if hit is not None:
            return hit
        result = self._reduce_uncached(word)
        self._reduce_cache[word] = result
        return result

    def _reduce_uncached(self, word: Word) -> TLElement:
        # breadth-first search through commutation moves for a shortening
        # pattern e_i e_i or e_i e_j e_i (|i-j| = 1)
        seen = {word}
        queue = [word]
        while queue:
            current = queue.pop()
            for pos in range(len(current) - 1):
                i, j = current[pos], current[pos + 1]
                if i == j:
                    rest = current[:pos] + current[pos + 1:]
                    return self.reduce_word(rest).map(lambda c: fold_a(c * DT_OVER_X))
                if pos + 2 < len(current) and current[pos + 2] == i and abs(i - j) == 1:
                    rest = current[:pos] + (i,) + current[pos + 3:]
                    through = self.reduce_word(rest)
                    c_coeff = fold_a(TWO_A_OVER_X * DT_OVER_X ** (len(current) - 3))
                    return through + TLElement.c(c_coeff)
            for pos in range(len(current) - 1):
                i, j = current[pos], current[pos + 1]
                if abs(i - j) >= 2:
                    swapped = current[:pos] + (j, i) + current[pos + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        queue.append(swapped)
        # irreducible: must be a normal word
        normal = normalize_commutation_class(word)
        if normal not in self._normal_set():
            raise RingError(f"irreducible word {word} is not in normal form")
        return TLElement.word(normal)

    _normal_cache: dict[int, frozenset] = {}

    def _normal_set(self) -> frozenset:
        hit = ExtTL._normal_cache.get(self.n)
        if hit is None:
            hit = frozenset(normalize_commutation_class(w) for w in self.normal_words)
            ExtTL._normal_cache[self.n] = hit
        return hit

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
        if ku == C_WORD:
            return TLElement.c(fold_a(DT_OVER_X ** len(kv)))
        if kv == C_WORD:
            return TLElement.c(fold_a(DT_OVER_X ** len(ku)))
        return self.reduce_word(tuple(ku) + tuple(kv))

    def basis(self) -> list:
        return [C_WORD] + [w for w in self.normal_words]


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


def normalize_commutation_class(word: Word) -> Word:
    """Canonical representative under far-commutation, by bubble sort."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for pos in range(len(w) - 1):
            if abs(w[pos] - w[pos + 1]) >= 2 and w[pos] > w[pos + 1]:
                w[pos], w[pos + 1] = w[pos + 1], w[pos]
                changed = True
    return tuple(w)


# -- diagrams and closures -------------------------------------------------------


@dataclass(frozen=True)
class TLDiagram:
    """Planar pairing of n top and n bottom points, plus closed circles.

    Points are labeled 0..n-1 (top) and n..2n-1 (bottom).
    """

    n: int
    pairing: tuple[tuple[int, int], ...]
    circles: int = 0

    def partner(self) -> dict[int, int]:
        out = {}
        for p, q in self.pairing:
            out[p] = q
            out[q] = p
        return out

    @classmethod
    def identity(cls, n: int) -> "TLDiagram":
        return cls(n, tuple((i, n + i) for i in range(n)))

    @classmethod
    def generator(cls, n: int, i: int) -> "TLDiagram":
        """e_{i+1} in 0-indexed form: cup at top (i, i+1), cap at bottom."""
        pairs = [(i, i + 1), (n + i, n + i + 1)]
        for j in range(n):
            if j not in (i, i + 1):
                pairs.append((j, n + j))
        return cls(n, tuple(sorted(tuple(sorted(p)) for p in pairs)))

    def stack(self, lower: "TLDiagram") -> "TLDiagram":
        """self on top of `lower`: bottom points of self glue to lower's top."""
        if self.n != lower.n:
            raise RingError("rank mismatch")
        n = self.n
        # relabel: self top 0..n-1 stay; interface nodes 2n..3n-1;
        # lower bottom n..2n-1 stay.
        up = {}
        for p, q in self.pairing:
            def m_up(t):
                return t if t < n else t + n
            up.setdefault(m_up(p), []).append(m_up(q))
            up.setdefault(m_up(q), []).append(m_up(p))
        for p, q in lower.pairing:
            def m_dn(t):
                return t + 2 * n if t < n else t
            up.setdefault(m_dn(p), []).append(m_dn(q))
            up.setdefault(m_dn(q), []).append(m_dn(p))
        ends = [t for t in up if t < 2 * n]
        seen = set()
        pairs = []
        for start in ends:
            if start in seen:
                continue
            seen.add(start)
            prev, node = start, up[start][0]
            while node >= 2 * n:
                seen.add(node)
                nbrs = up[node]
                node, prev = (nbrs[0] if nbrs[0] != prev else nbrs[1]), node
            seen.add(node)
            pairs.append(tuple(sorted((start, node))))
        circles = self.circles + lower.circles
        for node in up:
            if node >= 2 * n and node not in seen:
                cur, prev = node, None
                while cur not in seen:
                    seen.add(cur)
                    nbrs = up[cur]
                    cur, prev = (nbrs[0] if nbrs[0] != prev else nbrs[1]), cur
                circles += 1
        return TLDiagram(n, tuple(sorted(set(pairs))), circles)


def word_to_diagram(word: Word, n: int) -> TLDiagram:
    """Stacked composition of the generator diagrams (0-indexed letters)."""
    d = TLDiagram.identity(n)
    for i in word:
        d = d.stack(TLDiagram.generator(n, i))
    return d


def closure_components(d: TLDiagram) -> int:
    """Circles of the trace closure (top i joined to bottom i), plus the
    internal circles already recorded on the diagram."""
    n = d.n
    partner = d.partner()
    seen = set()
    circles = d.circles
    for start in range(2 * n):
        if start in seen:
            continue
        circles += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = partner[node]
            if node in seen:
                break
            seen.add(node)
            node = node + n if node < n else node - n  # closure hop
    return circles


# -- the two trace families -------------------------------------------------------


def trace_xa(elem: TLElement | Word, n: int) -> QA:
    """The trace family at x = a: a^(k+n)(N - k) on words, -a^(n+1) on C."""
    if not isinstance(elem, TLElement):
        elem = TLElement.word(tuple(elem))
    total = QA(0)
    for k, coeff in elem.coeffs.items():
        scalar = specialize(coeff, A)
        if k == C_WORD:
            cell = -QA.a_power(n + 1)
        else:
            word = tuple(k)
            ncomp = closure_components(word_to_diagram(word, n))
            cell = QA.a_power(len(word) + n) * QA(ncomp - len(word))
        total = total + scalar * cell
    return total


def trace_x2a(elem: TLElement | Word, n: int) -> QA:
    """The trace family at x = 2a: v_n, u_n, -u_n, 0 on 1, e_i, C, longer.

    u_n = -a^n and v_n = (n-2) a^(n+1) (v_1 = 0), the values forced by the
    tower normalization t_n(1) = (n-2) a^(n+1).
    """
    if not isinstance(elem, TLElement):
        elem = TLElement.word(tuple(elem))
    u = -QA.a_power(n)
    v = QA(0) if n == 1 else QA.a_power(n + 1) * QA(n - 2)
    total = QA(0)
    for k, coeff in elem.coeffs.items():
        scalar = specialize(coeff, 2 * A)
        if k == C_WORD:
            cell = -u
        elif len(k) == 0:
            cell = v
        elif len(k) == 1:
            cell = u
        else:
            cell = QA(0)
        total = total + scalar * cell
    return total


# -- splitting and retraction certificates ----------------------------------------


AXL = ("a", "x", "L")


def _by_l(p: LaurentPolynomial) -> dict[int, LaurentPolynomial]:
    """The coefficients over (a, x) of the powers of L in p over (a, x, L)."""
    by_l: dict[int, LaurentPolynomial] = {}
    for (ea, ex, el), c in p.terms.items():
        mono = LaurentPolynomial(AX, {(ea, ex): c})
        by_l[el] = by_l.get(el, LaurentPolynomial.zero(AX)) + mono
    return by_l


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


def split_checks() -> SplitReport:
    """Splitting analysis of both central extensions.

    (i) With lambda = -x/(2(a-x)) (cleared of the denominator), the map
    e_i -> e_i + lambda C satisfies the plain Temperley-Lieb relations,
    so the TL extension splits away from x = a; at x = 2a the section
    e_i -> e_i + C works directly.  At x = a the obstruction system forces
    lambda_i = 0 and then the sandwich relation leaves a nonzero 2a x^-1 C.

    (ii) The braid-style extension's splitting obstruction polynomial
    Q(lambda) = x^4 (1 + u dt + u^2 dt), u = 2 lambda a (a-x) x^-2, is the
    unit constant x^4 at both x = a and x = 2a, so it has no roots there.
    """
    alg = ExtTL(4)

    def mul(u: Combination, v: Combination) -> Combination:
        # the product of ExtTL.multiply, with coefficients in Q[a, x, L]
        return Combination.collect(
            (k, fold_a(cu * cv * c.extend(AXL)))
            for ku, cu in u.coeffs.items()
            for kv, cv in v.coeffs.items()
            for k, c in alg._basis_product(ku, kv).coeffs.items()
        )

    def relation_residues_with_lambda() -> list[LaurentPolynomial]:
        """Residues of the TL relations for e_i + L C, as polynomials in L.

        Returns the coefficients (in Q[a,x,L]) that must vanish after the
        substitution L = -x/(2(a-x)), cleared of denominators.
        """
        lam = LaurentPolynomial.var("L", AXL)
        e1, e2, e3 = (Combination({(i,): LaurentPolynomial.one(AXL), C_WORD: lam})
                      for i in range(3))
        # relation (1): ě^2 = dt/x ě
        r1 = mul(e1, e1) - e1.scale(DT_OVER_X.extend(AXL))
        # relation (4): commuting generators
        r4 = mul(e1, e3) - mul(e3, e1)
        # relation (5): ě1 ě2 ě1 = ě1
        r5 = mul(mul(e1, e2), e1) - e1
        return [*r1.coeffs.values(), *r4.coeffs.values(), *r5.coeffs.values()]

    residues = relation_residues_with_lambda()
    # substitute L = -x / (2(a-x)) with denominator cleared: for a residue
    # sum r_k L^k, check sum r_k (-x)^k (2(a-x))^(d-k) = 0 where d = max k.
    def cleared_substitution_zero(p: LaurentPolynomial) -> bool:
        by_l = _by_l(p)
        if not by_l:
            return True
        d = max(by_l)
        minus_x = apl("-x")
        two_a_minus_x = apl("2*(a-x)")
        total = LaurentPolynomial.zero(AX)
        for k, coeff in by_l.items():
            total = total + coeff * minus_x ** k * two_a_minus_x ** (d - k)
        return fold_a(total).is_zero()

    generic_ok = all(cleared_substitution_zero(r) for r in residues)

    # x = 2a: the section e_i -> e_i + C
    def at0(p: LaurentPolynomial) -> QA:
        return specialize(p, 2 * A)

    e1c, e2c, e3c = (TLElement.word((i,)) + TLElement.c(1) for i in range(3))
    x2a_ok = (
        alg.multiply(e1c, e1c).map(at0).is_zero()
        and (alg.multiply(alg.multiply(e1c, e2c), e1c) - e1c).map(at0).is_zero()
        and (alg.multiply(e1c, e3c) - alg.multiply(e3c, e1c)).map(at0).is_zero()
    )

    # x = a: lambda is forced to 0 by (1), and then (5) leaves 2a/x C != 0
    def ata(p: LaurentPolynomial) -> QA:
        return specialize(p, A)

    # residue of (1) at x=a as a polynomial in L: (dt/x) L (1 + 2L(a-x)/x) C
    # = a L C, so lambda_i = 0; then (5) residue with lambda = 0:
    e1p = TLElement.word((0,))
    e2p = TLElement.word((1,))
    sandwich = alg.multiply(alg.multiply(e1p, e2p), e1p) - e1p
    xa_obstructed = sandwich.map(ata) == TLElement({C_WORD: QA(2)})  # 2a/x C at x=a is 2C

    # braid-extension obstruction Q(lambda) = x^4(1 + u dt + u^2 dt)
    def q_is_unit(x: QA) -> bool:
        lam = LaurentPolynomial.var("L", AXL)
        u = apl("2*a*(a-x)*x^-2").extend(AXL) * lam
        dt = DT.extend(AXL)
        q = (LaurentPolynomial.one(AXL) + u * dt + u * u * dt) * apl("x^4").extend(AXL)
        reduced = Combination(_by_l(q)).map(lambda v: specialize(v, x))
        return set(reduced.coeffs) == {0} and reduced.coeffs[0].is_unit()

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


def retraction_check(n: int = 4) -> RetractionReport:
    """At x = -2a the assignment s_i, s_i^-1 -> -e_i - a, C -> C satisfies
    the braid-algebra relations inside the extended Temperley-Lieb algebra."""
    alg = ExtTL(n)

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
