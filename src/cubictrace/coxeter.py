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

Because 2 is invertible, Q[a]/(a^2-1) = Q x Q under u + v a -> (u + v,
u - v), the values at a = 1 and a = -1.  An element is zero exactly when
both values are, so computing at both points is exact, not a sample.  The
action is written once, in `_act_at`, on plain dicts keyed by element ids.
`act_word`, the public action, runs it once at a = A on `QA` coefficients
(which `qa` stores as the two values).  `verify_braid_relations`, the
theorem trace and `nonsplit_certificate` run it at a = 1 and at a = -1
on integer (or Q[L]) coefficients and never leave them.

For W = S_n the tower carries a unique-per-normalization family of Markov
traces with t_2(C) = 1; `ThmTraceEngine` computes it by the coset-peeling
recursion, at a = 1 and at a = -1 over int (Fraction for a fractional
base value), and joins the two values once per braid.  Combining it with
the Ocneanu and Kauffman traces specialized at y = 1, x = 2a (where those
two degenerate to a^(#L-1) and a^(#L-1) det^2), each likewise computed at
the two points and joined once, yields the exotic link invariant
`t0_invariant`, pinned by the 3-strand values t_3(1) = 1,
t_3(s_1) = t_3(s_1 s_2) = 0 and provably independent of the free base
value t_1(1) = lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .braids import BraidWord
from .hecke import _left_gen, coset_peel, hecke_trace_qa, parity_tracers
from .linalg import Matrix, eliminate
from .qa import A, QA
from .rings import LaurentPolynomial, RingError
from .skein import kauffman_at_point

TWO_A = QA(0, 2)


# -- Coxeter systems -----------------------------------------------------------


class _StepTable(dict):
    """Element ids, and per id the row of (id of s w, l(s w) > l(w), l(w) odd) over s.

    Ids and rows are assigned on first use, so acting on a sparse vector
    never enumerates the group.
    """

    def __init__(self, cox: "CoxeterSystem"):
        super().__init__()
        self.cox = cox
        self.ids: dict = {}
        self.elements: list = []

    def id(self, w) -> int:
        if w not in self.ids:
            self.ids[w] = len(self.elements)
            self.elements.append(w)
        return self.ids[w]

    def __missing__(self, i: int):
        cox = self.cox
        w = self.elements[i]
        ell = cox.length(w)
        row = []
        for g in cox.generators():
            sw = cox.act(g, w)
            row.append((self.id(sw), cox.length(sw) > ell, ell % 2 == 1))
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

    def elements(self) -> Iterable:
        raise NotImplementedError

    def braid_relations(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        raise NotImplementedError


class SymmetricCoxeter(CoxeterSystem):
    """S_n with elements as one-line tuples on 0..n-1; length = inversions."""

    def __init__(self, n: int):
        if n < 1:
            raise RingError("need at least one strand")
        super().__init__()
        self.n = n

    def identity(self):
        return tuple(range(self.n))

    def generators(self):
        return range(self.n - 1)

    def act(self, gen: int, w):
        return _left_gen(w, gen)

    def length(self, w) -> int:
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

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

    def __init__(self, m: int):
        if m < 2:
            raise RingError("dihedral order must be at least 2")
        super().__init__()
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


def _act_at(cox: CoxeterSystem, word: Sequence[int], vec: dict, c, a) -> tuple[dict, object]:
    """The action of a braid word on sum_i vec[i] E_w(i) + c C at a fixed a.

    The one place that writes the rule.  Keys are the element ids of
    `cox.steps`; letters are 1-based, signed and act right to left.  The
    rule needs only a*c, 2*a*x, x != 0 and a^l(w) in {a, 1}, so `a` is
    either the element A of Q[a]/(a^2-1) on `QA` coefficients (`act_word`)
    or a fixed a = +-1 on coefficients closed under + and * by an int
    (int, Fraction, a Laurent polynomial).  Zero terms are dropped after
    every letter.
    """
    steps = cox.steps
    for letter in reversed(word):
        gen, positive = abs(letter) - 1, letter > 0
        c = a * c
        out: dict = {}
        get = out.get
        for w, x in vec.items():
            sw, ascent, odd = steps[w][gen]
            if ascent == positive:
                # s E_w = E_{sw} on an ascent; on a descent the C-terms of
                # s^-1 = 2a - 2C - s cancel against the expansion of s E_w,
                # leaving s^-1 E_w = E_{sw} exactly
                out[sw] = get(sw, 0) + x
            else:
                # s E_w on a descent, and s^-1 E_w on an ascent (through
                # s^-1 = 2a - 2C - s): 2a E_w - 2 a^l(w) C - E_{sw}
                out[w] = get(w, 0) + 2 * a * x
                out[sw] = get(sw, 0) - x
                c = c - (2 * a * x if odd else 2 * x)
        vec = {w: x for w, x in out.items() if x != 0}
    return vec, c


def act_word(cox: CoxeterSystem, word: Sequence[int], vec: dict, c: QA) -> tuple[dict, QA]:
    """The action of a braid word on sum_w vec[w] E_w + c C over Q[a]/(a^2-1).

    `vec` maps group elements to `QA` coefficients; letters are 1-based,
    signed and act right to left.  Returns the image as (vec, c).
    """
    gens = cox.generators()
    for letter in word:
        if abs(letter) - 1 not in gens:
            raise RingError(f"generator index {letter} out of range")
    steps = cox.steps
    out, c = _act_at(cox, word, {steps.id(w): x for w, x in vec.items()}, c, A)
    return {steps.elements[i]: x for i, x in out.items()}, c


def act_generator(cox: CoxeterSystem, letter: int, vec: dict, c: QA) -> tuple[dict, QA]:
    """The action of s^(+-1), a one-letter `act_word`.

    Kept as its own function because perfbench counts its calls
    (`coxeter.act_generator.calls`) until that counter moves to `_act_at`.
    """
    return act_word(cox, (letter,), vec, c)


def verify_braid_relations(cox: CoxeterSystem) -> bool:
    """Both sides of every braid relation act identically on all E_w and C.

    Checked with integer coefficients at a = 1 and at a = -1, which is
    exact (see the module docstring).
    """
    starts = [({cox.steps.id(w): 1}, 0) for w in cox.elements()] + [({}, 1)]
    for lhs, rhs in cox.braid_relations():
        lhs_word = tuple(g + 1 for g in lhs)
        rhs_word = tuple(g + 1 for g in rhs)
        for a in (1, -1):
            for vec, c in starts:
                if _act_at(cox, lhs_word, vec, c, a) != _act_at(cox, rhs_word, vec, c, a):
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

    The recursion runs at a fixed a = +-1 on the dicts of `_act_at` and
    is memoized per (n, w, a); `trace_braid` joins the two values.
    """

    def __init__(self, cfg: ThmTraceConfig | None = None):
        self.cfg = cfg or ThmTraceConfig()
        # (n, w, a) -> t_n(E_w) at a = +-1
        self._memo: dict[tuple[int, tuple[int, ...], int], object] = {}
        self._cox: dict[int, SymmetricCoxeter] = {}

    def cox(self, n: int) -> SymmetricCoxeter:
        if n not in self._cox:
            self._cox[n] = SymmetricCoxeter(n)
        return self._cox[n]

    def trace_braid(self, w: BraidWord) -> QA:
        n = w.strands
        cox = self.cox(n)
        start = {cox.steps.id(cox.identity()): 1}
        return QA.from_components(*(self.trace_at(n, *_act_at(cox, w.letters, start, 0, a), a)
                                    for a in (1, -1)))

    def trace_at(self, n: int, vec: dict, c, a: int):
        """t_n(sum_i vec[i] E_w(i) + c C) at a = +-1, keys being element ids of
        `self.cox(n).steps` (the output of `_act_at`)."""
        if c and n < 2:
            raise RingError("C does not exist on fewer than 2 strands")
        elements = self.cox(n).steps.elements
        total = c * a ** n
        for i, x in vec.items():
            total += x * self._trace_basis(n, elements[i], a)
        return total

    def _trace_basis(self, n: int, w: tuple[int, ...], a: int):
        if n == 1:
            base = self.cfg.base
            return base.numerator if base.denominator == 1 else base
        key = (n, w, a)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if w[n - 1] == n - 1:
            # w fixes the top strand: level descent
            shift = self.cox(n).length(w) + n - 1
            if self.cfg.printed_exponent_variant:
                shift += 1
            value = a * self._trace_basis(n - 1, w[:-1], a) + a ** shift
        else:
            w_prime, run = coset_peel(w)
            lower = self.cox(n - 1)
            word = tuple(g + 1 for g in (*lower.reduced_word(w_prime), *run))
            start = {lower.steps.id(lower.identity()): 1}
            value = self.trace_at(n - 1, *_act_at(lower, word, start, 0, a), a)
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
        self.hecke_tracers = parity_tracers()
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
        return hecke_trace_qa(w, self.hecke_tracers)

    def _kauffman(self, w: BraidWord) -> QA:
        return kauffman_at_point(w, TWO_A, self._kauffman_caches)

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


def shifted_minus_a(cox: CoxeterSystem, letter: int, vec: dict, c, a: int, lam=0):
    """(s + lam C - a) on sum_i vec[i] E_w(i) + c C at a fixed a = +-1, as (vec, c).

    s acts through `_act_at`; C E_w = a^l(w) C, and C C = 0.
    """
    out, c_out = _act_at(cox, (letter,), vec, c, a)
    elements = cox.steps.elements
    c_out = c_out - a * c + lam * sum(x * a ** cox.length(elements[i]) for i, x in vec.items())
    for i, x in vec.items():
        out[i] = out.get(i, 0) - a * x
    return {i: x for i, x in out.items() if x != 0}, c_out


def nonsplit_certificate() -> NonSplitReport:
    """(s + lambda C - a)^2 . E_1 = -2aC for formal lambda; then (t-a) kills it.

    Coefficients live in Q[L] with L the formal lambda, at a = 1 and at
    a = -1 (exact, as Q[a, L]/(a^2 - 1) = Q[L] x Q[L]); the computation
    uses only C^2 = 0, sC = aC and the module action, and the result is
    L-free and nonzero, so no candidate splitting s -> s + lambda C can
    satisfy (s-a)^2 = 0.
    """
    cox = SymmetricCoxeter(3)
    lam = LaurentPolynomial.var("L", ("L",))
    lambda_free = squared_ok = killed = True
    for a in (1, -1):
        vec, c = {cox.steps.id(cox.identity()): 1}, 0
        for _ in range(2):
            vec, c = shifted_minus_a(cox, 1, vec, c, a, lam)
        lambda_free &= all(isinstance(x, int) or x.is_constant() for x in (*vec.values(), c))
        squared_ok &= not vec and c == -2 * a
        # (t - a) with t the other generator kills C, since t . C = aC
        killed &= shifted_minus_a(cox, 2, vec, c, a) == ({}, 0)
    return NonSplitReport(lambda_free, squared_ok, killed)
