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
both values are, so computing at both points is exact, not a sample.  Mod
C this is the Hecke algebra at (x, y) = (2a, 1), so both have one action,
`hecke._act_at` on dicts keyed by step-table ids, which the extension
calls with its `a` and C coefficient.  Type A and the step table live in
`hecke`, I2(m) here.  `act_word`, the public action, runs it once at
a = A on `QA` coefficients (which `qa` stores as the two values).
`verify_braid_relations`, the theorem trace and `nonsplit_certificate`
run it at a = 1 and at a = -1 on integer (or Q[L]) coefficients and
never leave them.

A braid relation in the letters s, t only moves E_w inside its orbit
under s and t, the coset W_{s,t} w, and the action reads only the rows of
that orbit: per element and letter, the triple (position of s w in the
orbit, ascent, parity of l(w)).  Two orbits with the same row pattern
compute the same images up to renaming ids, C coefficient included, so
`verify_braid_relations` acts on every E_w of the first orbit of each
pattern and on C, and that proves the relation on every E_w: on A5, 424
calls of the action instead of 28,840.

For W = S_n the tower carries a family of Markov traces with t_2(C) = 1
and a free base value lambda = t_1(1); `ThmTraceEngine` is two
`hecke.TowerTrace`s, the recursion the Ocneanu trace runs too, at a = 1
and at a = -1 over int (Fraction for a fractional base value), with the
C-term on and its own level-descent rule, and joins the two values once
per braid.  The family is affine in lambda: the recursion is linear in the
traces one level down, and the constants it adds (the descent constant
and t_n(C) = a^n) do not involve lambda.  So the lambda-part has base
value 1 and descent rule t -> a t, and its E_w coefficients do not see the
C-term (s . C = a C never feeds an E_w): it is the Ocneanu trace at
(x, y) = (2a, 1), whose loop value (y + 1)/x = 1/a is a.  Hence
thm_lambda = thm_0 + lambda hecke, and the exotic link invariant
`T0Invariant` is the closed form

    T0 = thm_lambda - (1 + lambda) hecke + kauffman,

with hecke and kauffman the Ocneanu and Kauffman traces at y = 1, x = 2a,
each computed at the two points and joined once.  It is the only
combination of the three traces with the 3-strand values t_3(1) = 1,
t_3(s_1) = t_3(s_1 s_2) = 0: at lambda = 0 they take the values (2, a, 0),
(1, a, 1) and (0, 0, 1) on (1, s_1, s_1 s_2), a matrix of determinant a,
a unit.  `verify --suite coxeter` checks the values and the determinant.
At x = 2a the Ocneanu and Kauffman traces equal a^(#L-1) and
a^(#L-1) det^2; that is a checked identity, not an argument, and nothing
here relies on it: the skein suite's det^2 check and the hecke suite's
a^(#L-1) check run it on every catalog row, and so does acceptance
criterion 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .braids import BraidWord
from .hecke import (CoxeterSystem, HeckeRing, SymmetricCoxeter, TowerTrace, _act_at,
                    hecke_trace_qa, parity_tracers)
from .qa import A, QA
from .rings import LaurentPolynomial, RingError
from .skein import kauffman_at_point

TWO_A = QA(0, 2)


# -- the dihedral Coxeter systems (type A and the step table are in `hecke`) ------


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

    def ascent(self, gen: int, w) -> bool:
        return w[0] < self.m and w[1] != gen

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


def act_word(cox: CoxeterSystem, word: Sequence[int], vec: dict, c: QA) -> tuple[dict, QA]:
    """The action of a braid word on sum_w vec[w] E_w + c C over Q[a]/(a^2-1).

    `vec` maps group elements to `QA` coefficients; letters are 1-based,
    signed and act right to left.  Returns the image as (vec, c).  A
    letter out of range or a key that is not a group element raises
    `RingError`.
    """
    gens = cox.generators()
    for letter in word:
        if abs(letter) - 1 not in gens:
            raise RingError(f"generator index {letter} out of range")
    steps = cox.steps
    for w in vec:
        if w not in steps.ids and not _is_element(cox, w):
            raise RingError(f"{w!r} is not an element of the Coxeter group")
    out, c = _act_at(cox, word, {steps.id(w): x for w, x in vec.items()}, TWO_A, 1, 1, A, c)
    return {steps.elements[i]: x for i, x in out.items()}, c


def _is_element(cox: CoxeterSystem, w) -> bool:
    """Whether w is a group element: a one-line permutation of 0..n-1 for S_n."""
    if isinstance(cox, SymmetricCoxeter):
        return isinstance(w, tuple) and len(w) == cox.n and set(w) == set(range(cox.n))
    return w in cox.elements()


def act_generator(cox: CoxeterSystem, letter: int, vec: dict, c: QA) -> tuple[dict, QA]:
    """The action of s^(+-1), a one-letter `act_word`.

    Kept as its own function because perfbench counts its calls
    (`coxeter.act_generator.calls`) until that counter moves to `hecke._act_at`.
    """
    return act_word(cox, (letter,), vec, c)


def _fill_steps(cox: CoxeterSystem) -> int:
    """Fill `cox.steps` breadth-first from the identity; returns the number of ids.

    On a fresh table the ids then come in length order.
    """
    steps = cox.steps
    steps.id(cox.identity(), 0)
    i = 0
    while i < len(steps.elements):
        steps[i]
        i += 1
    return i


def _orbit_starts(steps, size: int, gens: Sequence[int]) -> list[int]:
    """Start ids that prove a relation in the letters `gens` on every E_w.

    Splits the ids 0..size-1 into orbits under `gens`, each in BFS order
    from its least id.  `_act_at` on an orbit element reads only the row
    triples (position of s w, ascent, parity) of its orbit, so orbits with
    equal row patterns give images that correspond under the position map,
    C coefficient included: the starts are every element of the first
    orbit of each pattern, and every element of an orbit with a row into
    an earlier orbit (none in a Coxeter table, where s (s w) = w).  A
    single orbit builds no pattern.
    """
    owner = [-1] * size
    pos = [0] * size
    orbits = []
    for first in range(size):
        if owner[first] >= 0:
            continue
        owner[first] = first
        orbit, closed = [first], True
        for w in orbit:
            row = steps[w]
            for g in gens:
                sw = row[g][0]
                if owner[sw] < 0:
                    owner[sw], pos[sw] = first, len(orbit)
                    orbit.append(sw)
                elif owner[sw] != first:
                    closed = False
        orbits.append((orbit, closed))
    if len(orbits) == 1:
        return orbits[0][0]
    starts, seen = [], set()
    for orbit, closed in orbits:
        if closed:
            pattern = []
            for w in orbit:
                row = steps[w]
                for g in gens:
                    sw, up, odd = row[g]
                    pattern.append((pos[sw], up, odd))
            pattern = tuple(pattern)
            if pattern in seen:
                continue
            seen.add(pattern)
        starts += orbit
    return starts


def verify_braid_relations(cox: CoxeterSystem) -> bool:
    """Both sides of every braid relation act identically on all E_w and C.

    Checked with integer coefficients at a = 1 and at a = -1, which is
    exact (see the module docstring), on C and on the E_w of one orbit per
    row pattern under the relation's letters (`_orbit_starts`): an orbit
    with the same pattern computes the same images up to renaming ids, so
    the relation holds on it too.
    """
    steps = cox.steps
    size = _fill_steps(cox)
    for lhs, rhs in cox.braid_relations():
        lhs_word = tuple(g + 1 for g in lhs)
        rhs_word = tuple(g + 1 for g in rhs)
        starts = [({i: 1}, 0) for i in _orbit_starts(steps, size, sorted({*lhs, *rhs}))]
        starts.append(({}, 1))
        for a in (1, -1):
            x = 2 * a
            for vec, c in starts:
                if (_act_at(cox, lhs_word, vec, x, 1, 1, a, c)
                        != _act_at(cox, rhs_word, vec, x, 1, 1, a, c)):
                    return False
    return True


# -- the Markov trace on the tower ------------------------------------------------


class ThmTraceEngine:
    """The Markov trace family on the tower of extended algebras (type A).

    On basis cells:
      * t_n(C) = a^n for n >= 2 (forced by t_2(C) = 1 and the Markov move);
      * if w uses the top strand, the Markov move peels it (`coset_peel`);
      * otherwise descend a level: t_n(E_w) = a t_{n-1}(E_w) + a^(l(w)+n-1),
        which is what 1 = (a/2)(s + s^-1) + aC forces.  The variant flag
        switches the constant to a^(l(w)+n), which breaks the negative
        Markov move at a = -1, as `verify --suite coxeter` checks.
      * t_1(E_1) = lambda.

    These are two `hecke.TowerTrace`s, at (x, y) = (2a, 1) with the C-term
    for a = 1 and for a = -1, over int (Fraction for a fractional lambda),
    sharing one memo; `trace_braid` joins their two values.
    """

    def __init__(self, base: Fraction = Fraction(0), printed_exponent_variant: bool = False):
        base = base.numerator if base.denominator == 1 else base
        shift = 0 if printed_exponent_variant else -1
        # (n, id of w, a) -> t_n(E_w) at a = +-1
        self._memo: dict[tuple[int, int, int], object] = {}
        self.towers = tuple(
            TowerTrace(HeckeRing.numeric(2 * a, 1), base,
                       lambda t, length, n, a=a: a * t + a ** (length + n + shift), a, self._memo)
            for a in (1, -1))

    def trace_braid(self, w: BraidWord) -> QA:
        return QA.from_components(*(tower.of_braid(w) for tower in self.towers))


# -- the combined invariant at x = 2a ----------------------------------------------


@dataclass
class T0Components:
    thm: QA
    hecke: QA
    kauffman: QA
    value: QA


class T0Invariant:
    """The Markov trace with 3-strand values (1, 0, 0) on (1, s_1, s_1 s_2).

    The closed form thm - (1 + lambda) hecke + kauffman of the theorem trace
    at base value lambda, the Ocneanu trace and the patched Kauffman trace
    at a^2 = y = 1, x = 2a.  As thm_lambda = thm_0 + lambda hecke (see the
    module docstring), the value does not depend on lambda; the weights
    (1, -1, 1) at lambda = 0 are the only ones with those 3-strand values,
    which `verify --suite coxeter` checks.  Construction computes no trace.
    """

    def __init__(self, base: Fraction = Fraction(0)):
        self.base = base
        self.engine = ThmTraceEngine(base)
        self.hecke_tracers = parity_tracers()
        self._kauffman_caches = ({}, {})

    def components(self, w: BraidWord) -> T0Components:
        thm = self.engine.trace_braid(w)
        hec = hecke_trace_qa(w, self.hecke_tracers)
        kau = kauffman_at_point(w, TWO_A, self._kauffman_caches)
        return T0Components(thm, hec, kau, thm - (1 + self.base) * hec + kau)

    def value(self, w: BraidWord) -> QA:
        return self.components(w).value


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
    out, c_out = _act_at(cox, (letter,), vec, 2 * a, 1, 1, a, c)
    c_out = c_out - a * c + lam * sum(x * a ** cox.steps.lengths[i] for i, x in vec.items())
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
