"""A central extension of the (-1)-Hecke algebra of a Coxeter system.

For any Coxeter system (W, S) the braid group of (W, S) acts on the free
Q[a]/(a^2-1)-module spanned by basis vectors E_w (w in W) and one extra
vector C:

    s . E_w = E_{sw}                                if l(sw) = l(w) + 1,
            = -2 a^l(w) C + 2a E_w - E_{sw}         otherwise,
    s . C   = a C.

The image of the group algebra is an extension of the Hecke algebra at
q = -1 (relation (s - a)^2 = 0) by the one-dimensional central ideal
spanned by C; the extension does not split, which `nonsplit_certificate`
proves by showing (s + lambda C - a)^2 . E_1 = -2aC for every lambda.

For W = S_n the tower carries a unique-per-normalization family of Markov
traces with t_2(C) = 1; `ThmTraceEngine` computes it by the coset-peeling
recursion.  Combining it with the Ocneanu and Kauffman traces specialized
at y = 1, x = 2a (where those two degenerate to a^(#L-1) and
a^(#L-1) det^2) yields the exotic link invariant `t0_invariant`, pinned by
the 3-strand values t_3(1) = 1, t_3(s_1) = t_3(s_1 s_2) = 0 and provably
independent of the free base value t_1(1) = lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .braids import BraidWord
from .hecke import HeckeRing, OcneanuTrace, hecke_trace_qa
from .combination import Combination
from .linalg import Matrix, eliminate
from .qa import QA
from .rings import LaurentPolynomial, RingError, fold_a, spec_ax_point
from .skein import kauffman_at_point


# -- Coxeter systems -----------------------------------------------------------


class CoxeterSystem:
    """Type A (symmetric group) or dihedral I2(m) with O(1) length bookkeeping."""

    kind: str

    def identity(self):
        raise NotImplementedError

    def generators(self) -> Sequence[int]:
        raise NotImplementedError

    def act(self, gen: int, w):
        """Left multiplication s_gen * w."""
        raise NotImplementedError

    def length(self, w) -> int:
        raise NotImplementedError

    def is_ascent(self, gen: int, w) -> bool:
        return self.length(self.act(gen, w)) > self.length(w)

    def elements(self) -> Iterable:
        raise NotImplementedError

    def braid_relations(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        raise NotImplementedError


class SymmetricCoxeter(CoxeterSystem):
    """S_n with elements as one-line tuples on 0..n-1; length = inversions."""

    kind = "A"

    def __init__(self, n: int):
        if n < 1:
            raise RingError("need at least one strand")
        self.n = n
        self._length_cache: dict[tuple[int, ...], int] = {}

    def identity(self):
        return tuple(range(self.n))

    def generators(self):
        return range(self.n - 1)

    def act(self, gen: int, w):
        # left multiplication by the transposition of *values* gen, gen+1
        a, b = gen, gen + 1
        return tuple(b if x == a else (a if x == b else x) for x in w)

    def length(self, w) -> int:
        hit = self._length_cache.get(w)
        if hit is None:
            hit = sum(
                1
                for i in range(len(w))
                for j in range(i + 1, len(w))
                if w[i] > w[j]
            )
            self._length_cache[w] = hit
        return hit

    def is_ascent(self, gen: int, w) -> bool:
        # l(s w) = l(w) + 1 iff gen appears before gen+1 in one-line order
        return w.index(gen) < w.index(gen + 1)

    def elements(self):
        import itertools

        return itertools.permutations(range(self.n))

    def braid_relations(self):
        rels = []
        for i in self.generators():
            for j in self.generators():
                if i < j:
                    if j - i == 1:
                        rels.append(((i, j, i), (j, i, j)))
                    else:
                        rels.append(((i, j), (j, i)))
        return rels

    def reduced_word(self, w) -> tuple[int, ...]:
        """A reduced word for w in product order (left descents peeled)."""
        word = []
        w = list(w)
        while True:
            for i in range(self.n - 1):
                # left descent: value i appears after value i+1
                if w.index(i) > w.index(i + 1):
                    word.append(i)
                    a, b = w.index(i), w.index(i + 1)
                    w[a], w[b] = w[b], w[a]
                    break
            else:
                break
        return tuple(word)


class DihedralCoxeter(CoxeterSystem):
    """I2(m): elements are (length, first_letter); w0 is (m, None)."""

    kind = "I2"

    def __init__(self, m: int):
        if m < 2:
            raise RingError("dihedral order must be at least 2")
        self.m = m

    def identity(self):
        return (0, None)

    def generators(self):
        return (0, 1)

    def act(self, gen: int, w):
        ell, first = w
        m = self.m
        if ell == 0:
            return (1, gen)
        if ell == m:
            # s * w0 has length m-1 and starts with the other letter
            return (m - 1, 1 - gen)
        if first == gen:
            if ell - 1 == 0:
                return (0, None)
            return (ell - 1, 1 - first)
        new_len = ell + 1
        if new_len == m:
            return (m, None)
        return (new_len, gen)

    def length(self, w) -> int:
        return w[0]

    def elements(self):
        yield (0, None)
        for ell in range(1, self.m):
            yield (ell, 0)
            yield (ell, 1)
        yield (self.m, None)

    def braid_relations(self):
        lhs = tuple((0, 1) * self.m)[: self.m]
        rhs = tuple((1, 0) * self.m)[: self.m]
        return [(lhs, rhs)]


# -- the module ------------------------------------------------------------------


C_KEY = "__C__"


class ExtHeckeVector(Combination):
    """Sparse vector over Q[a]/(a^2-1) in the basis {E_w} + {C}."""

    __slots__ = ()

    @classmethod
    def basis(cls, w) -> "ExtHeckeVector":
        return cls({w: QA(1)})

    @classmethod
    def c_vector(cls) -> "ExtHeckeVector":
        return cls({C_KEY: QA(1)})


def act_generator(index: int, v: ExtHeckeVector, cox: CoxeterSystem) -> ExtHeckeVector:
    """Action of s_gen^(+-1); index is 1-based and signed like a braid letter."""
    gen = abs(index) - 1
    if gen not in tuple(cox.generators()):
        raise RingError(f"generator index {index} out of range")
    positive = index > 0
    terms = []
    for key, coeff in v.coeffs.items():
        if key == C_KEY:
            terms.append((C_KEY, coeff * QA.a_power(1)))
            continue
        w = key
        sw = cox.act(gen, w)
        if cox.is_ascent(gen, w) == positive:
            # s E_w = E_{sw} on an ascent; on a descent the C-terms of
            # s^-1 = 2a - 2C - s cancel against the expansion of s E_w,
            # leaving s^-1 E_w = E_{sw} exactly
            terms.append((sw, coeff))
        else:
            # s E_w on a descent, and s^-1 E_w on an ascent (through
            # s^-1 = 2a - 2C - s): 2a E_w - 2 a^l(w) C - E_{sw}
            terms.append((w, coeff * QA(0, 2)))
            terms.append((C_KEY, coeff * QA.a_power(cox.length(w)) * QA(-2)))
            terms.append((sw, coeff * QA(-1)))
    return ExtHeckeVector.collect(terms)


def act_word(word: Sequence[int], v: ExtHeckeVector, cox: CoxeterSystem) -> ExtHeckeVector:
    """Left action of a braid word (letters applied right to left)."""
    for letter in reversed(tuple(word)):
        v = act_generator(letter, v, cox)
    return v


def braid_to_vector(w: BraidWord, cox: SymmetricCoxeter | None = None) -> ExtHeckeVector:
    cox = cox or SymmetricCoxeter(w.strands)
    if cox.n != w.strands:
        raise RingError("Coxeter rank does not match the braid")
    return act_word(w.letters, ExtHeckeVector.basis(cox.identity()), cox)


def verify_braid_relations(cox: CoxeterSystem) -> bool:
    """Both sides of every braid relation act identically on all E_w and C."""
    basis_vectors = [ExtHeckeVector.basis(w) for w in cox.elements()]
    basis_vectors.append(ExtHeckeVector.c_vector())
    for lhs, rhs in cox.braid_relations():
        lhs_word = tuple(g + 1 for g in lhs)
        rhs_word = tuple(g + 1 for g in rhs)
        for v in basis_vectors:
            if act_word(lhs_word, v, cox) != act_word(rhs_word, v, cox):
                return False
    return True


# -- the Markov trace on the tower ------------------------------------------------


@dataclass(frozen=True)
class ThmTraceConfig:
    """Base value lambda = t_1(1), the normalization t_2(C) = 1, and the
    level-descent variant (see `level_constant`)."""

    base: Fraction = Fraction(0)
    printed_exponent_variant: bool = False


class ThmTraceEngine:
    """The Markov trace family on the tower of extended algebras (type A).

    On basis cells:
      * t_n(C) = a^n for n >= 2 (forced by t_2(C) = 1 and the Markov move);
      * if w uses the top strand, peel w = w' (s_{n-1} ... s_k): the Markov
        move drops s_{n-1} and the trace recurses on the level-(n-1) vector
        of the word w' (s_{n-2} ... s_k);
      * otherwise descend a level: t_n(E_w) = a t_{n-1}(E_w) + a^(l(w)+n-1),
        which is what 1 = (a/2)(s + s^-1) + aC forces.  The variant flag
        switches the constant to a^(l(w)+n), which breaks the negative
        Markov move at a = -1; `trace_property_suite` arbitrates.
      * t_1(E_1) = lambda.
    """

    def __init__(self, cfg: ThmTraceConfig | None = None):
        self.cfg = cfg or ThmTraceConfig()
        self._memo: dict[tuple[int, tuple[int, ...]], QA] = {}
        self._cox: dict[int, SymmetricCoxeter] = {}

    def cox(self, n: int) -> SymmetricCoxeter:
        if n not in self._cox:
            self._cox[n] = SymmetricCoxeter(n)
        return self._cox[n]

    def trace_braid(self, w: BraidWord) -> QA:
        return self.trace_vector(braid_to_vector(w, self.cox(w.strands)), w.strands)

    def trace_vector(self, v: ExtHeckeVector, n: int) -> QA:
        total = QA(0)
        for key, coeff in v.coeffs.items():
            if key == C_KEY:
                cell = self._trace_c(n)
            else:
                cell = self._trace_basis(n, key)
            total = total + coeff * cell
        return total

    def _trace_c(self, n: int) -> QA:
        if n < 2:
            raise RingError("C does not exist on fewer than 2 strands")
        return QA.a_power(n)

    def _trace_basis(self, n: int, w: tuple[int, ...]) -> QA:
        if n == 1:
            return QA(self.cfg.base)
        key = (n, w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        cox = self.cox(n)
        top = n - 1
        if w.index(top) == n - 1:
            # w fixes the top strand: level descent
            lower = w[:-1]
            ell = cox.length(w)
            shift = ell + n - 1
            if self.cfg.printed_exponent_variant:
                shift += 1
            value = QA.a_power(1) * self._trace_basis(n - 1, lower) + QA.a_power(shift)
        else:
            # peel w = w' (s_{n-2} ... s_k) with k = w^-1(top), 0-indexed
            k = w.index(top)
            w_prime = list(w)
            for j in range(k, n - 1):
                w_prime[j] = w_prime[j + 1]
            w_prime = tuple(w_prime[: n - 1])
            lower_cox = self.cox(n - 1)
            word = tuple(g + 1 for g in lower_cox.reduced_word(w_prime))
            word += tuple(g + 1 for g in range(n - 3, k - 1, -1))
            vec = act_word(word, ExtHeckeVector.basis(lower_cox.identity()), lower_cox)
            value = self.trace_vector(vec, n - 1)
        self._memo[key] = value
        return value


# -- the combined invariant at x = 2a ----------------------------------------------


@dataclass(frozen=True)
class CombinedTrace:
    c_thm: QA
    c_hecke: QA
    c_kauffman: QA


@dataclass
class T0Components:
    thm: QA
    hecke: QA
    kauffman: QA
    value: QA


class T0Invariant:
    """The Markov trace with 3-strand values (1, 0, 0) on (1, s_1, s_1 s_2).

    Realized as an explicit combination of the theorem trace, the Ocneanu
    trace and the patched Kauffman trace at a^2 = y = 1, x = 2a; the
    3x3 system pinning the combination has unit determinant, and the
    lambda-dependence cancels.
    """

    def __init__(self, cfg: ThmTraceConfig | None = None):
        self.engine = ThmTraceEngine(cfg)
        self.hecke_tracer = OcneanuTrace(HeckeRing.at_parity_point())
        self.spec = spec_ax_point("2*a")
        self._kauffman_caches = ({}, {})
        self.combination = self._solve_combination()

    def _three_strand_matrix(self) -> list[list[QA]]:
        rows = []
        words = [BraidWord(3, ()), BraidWord(3, (1,)), BraidWord(3, (1, 2))]
        for trace in (self._thm, self._hecke, self._kauffman):
            rows.append([trace(w) for w in words])
        return rows

    def _thm(self, w: BraidWord) -> QA:
        return self.engine.trace_braid(w)

    def _hecke(self, w: BraidWord) -> QA:
        return hecke_trace_qa(w, self.hecke_tracer)

    def _kauffman(self, w: BraidWord) -> QA:
        return kauffman_at_point(w, self.spec, self._kauffman_caches)

    def _solve_combination(self) -> CombinedTrace:
        m = self._three_strand_matrix()
        # c . M = (1, 0, 0); Q[a]/(a^2 - 1) = Q x Q splits it into one
        # system over Q at a = 1 and one at a = -1
        solved = []
        for a in (1, -1):
            transpose = Matrix([[m[i][j].at(a) for i in range(3)] for j in range(3)])
            _, solutions = eliminate(transpose, [(1, 0, 0)])
            if solutions is None:
                raise RingError(
                    "the three traces are dependent at this point; cannot pin the combination"
                )
            solved.append(solutions[0])
        combo = CombinedTrace(*(QA.from_components(p, q) for p, q in zip(*solved)))
        # verify the pin exactly
        words = [BraidWord(3, ()), BraidWord(3, (1,)), BraidWord(3, (1, 2))]
        expected = [QA(1), QA(0), QA(0)]
        for word, want in zip(words, expected):
            got = (combo.c_thm * self._thm(word) + combo.c_hecke * self._hecke(word)
                   + combo.c_kauffman * self._kauffman(word))
            if got != want:
                raise RingError("combination solve failed its own check")
        return combo

    def components(self, w: BraidWord) -> T0Components:
        thm = self._thm(w)
        hec = self._hecke(w)
        kau = self._kauffman(w)
        value = (self.combination.c_thm * thm + self.combination.c_hecke * hec
                 + self.combination.c_kauffman * kau)
        return T0Components(thm, hec, kau, value)

    def value(self, w: BraidWord) -> QA:
        return self.components(w).value


_DEFAULT_T0: dict[Fraction, T0Invariant] = {}


def t0_invariant(w: BraidWord, base: Fraction = Fraction(0)) -> QA:
    inv = _DEFAULT_T0.get(base)
    if inv is None:
        inv = T0Invariant(ThmTraceConfig(base=base))
        _DEFAULT_T0[base] = inv
    return inv.value(w)


# -- non-splitting certificate -----------------------------------------------------


@dataclass
class NonSplitReport:
    lambda_free: bool
    squared_image_is_minus_2aC: bool
    killed_by_next_factor: bool

    @property
    def ok(self) -> bool:
        return self.lambda_free and self.squared_image_is_minus_2aC and self.killed_by_next_factor


AL = ("a", "L")


def nonsplit_certificate() -> NonSplitReport:
    """(s + lambda C - a)^2 . E_1 = -2aC for formal lambda; then (t-a) kills it.

    Coefficients live in Q[a, L]/(a^2 - 1) with L the formal lambda; the
    computation uses only C^2 = 0, sC = aC and the module action, and the
    result is L-free and nonzero, so no candidate splitting s -> s + lambda C
    can satisfy (s-a)^2 = 0.
    """
    cox = SymmetricCoxeter(3)

    def pl(text: str) -> LaurentPolynomial:
        return LaurentPolynomial.parse(text, AL)

    one = cox.identity()
    a = pl("a")
    lam = pl("L")

    def shat_minus_a(vec: Combination) -> Combination:
        # vec: basis keys with coefficients in (a, L)
        terms = []
        for key, coeff in vec.coeffs.items():
            if key == C_KEY:
                terms.append((C_KEY, coeff * a))          # s . C = aC
                terms.append((C_KEY, -1 * (coeff * a)))   # -a . C
                continue
            w = key
            ell = cox.length(w)
            sw = cox.act(0, w)
            if cox.is_ascent(0, w):
                terms.append((sw, coeff))
            else:
                terms.append((C_KEY, coeff * pl("-2") * a ** ell))
                terms.append((w, coeff * pl("2*a")))
                terms.append((sw, -1 * coeff))
            terms.append((C_KEY, coeff * lam * a ** ell))  # lambda C . E_w = lambda a^l C
            terms.append((w, -1 * (coeff * a)))            # -a E_w
        return Combination.collect(terms).map(fold_a)

    v2 = shat_minus_a(shat_minus_a(Combination({one: pl("1")})))
    lambda_free = all(
        all(el == 0 for (_, el) in coeff.terms) for coeff in v2.coeffs.values()
    )
    squared_ok = v2 == Combination({C_KEY: pl("-2*a")})

    # (t - a) with t the other generator kills C, since t . C = aC
    if any(key != C_KEY for key in v2.coeffs):
        raise RingError("certificate expects a pure C vector here")
    killed = (v2.scale(a) - v2.scale(a)).is_zero()
    return NonSplitReport(lambda_free, squared_ok, killed)
