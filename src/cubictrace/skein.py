"""Regular-isotopy Kauffman and Dubrovnik polynomials on braid closures.

Diagrams are abstract 4-valent graphs with a rotation system, stored as
flat arrays: crossing i owns the ports 4i..4i+3 in counterclockwise order,
`nbr[p]` is the port joined to p by an arc, one flag per crossing says which
pair of opposite ports is the over-strand, and crossing-free circles are a
separate counter.  A port's crossing and position are p >> 2 and p & 3, the
strand through an entry port q leaves at q ^ 2, and the port ccw after p is
(p & ~3) | ((p + 1) & 3), so the strand walk, the canonical code and the
Reidemeister-style reductions below are index arithmetic.  Removing
crossings follows only the arcs that touch them and renumbers the others
in their old order.

The evaluator works with a twist-normalized value V(D) = alpha^{#crossings}
K(D), where K is the regular-isotopy polynomial with the conventions pinned
by the trace normalization t(s_1 ... s_{n-1}) = 1.  The point of V is that
every rule has coefficients in a and x alone (a = alpha^-2, x = alpha^-1 z):

* disjoint circle:       V -> delta V,  delta+ = (a+1)/x - 1,
                                        delta- = (1-a)/x + 1;
* kink removal:          V -> V (positive) or a^-1 V (negative);
* parallel-pair removal: V -> a^-1 V;
* skein (Dubrovnik, -):  V(X) = V(switch X) +- x (V(A) - V(B));
* skein (Kauffman, +):   V(X) = -V(switch X) + x (V(A) + V(B));
* layered descending diagram: V = a^-(#crossings - self-writhe)/2
  delta^(#components - 1).

The recursion switches the first crossing met on its under-strand during a
deterministic walk, so the switch branch strictly approaches a descending
diagram and both smoothing branches lose a crossing.  None of that depends
on the ring or the variant, so evaluation has two phases.  The resolution
reduces a diagram to its a^-1 exponent from kinks and parallel pairs, its
circle count and its connected pieces, and resolves each piece into a
descending node or a skein node whose three children are resolved
diagrams; it is memoized once per process, for both variants and every
ring.  Each evaluator then walks the resolution with its ring's
coefficients and memoizes piece values in its own `_cache`.  Both memos
are keyed on a canonical relabeling of the piece: the minimum code over
all starts of the walk.  Only the starts that enter their first crossing
on its under-strand can give it, and a start is dropped as soon as its
crossing-flag prefix exceeds the best one so far, or its arc codes the
best ones when the flags tie.  `use_cache=False` bypasses both memos.

There is one trace function, `markov_trace_pm_fast`: t(beta) =
a^(#negative letters) V(closure), computed in the evaluator's own ring (a
Laurent polynomial in a and x for the generic ring, a rational number for a
numeric one).  `kauffman_at_point` is that function on the two numeric
rings a = +1 and a = -1, at the values there of an image of x in
Q[a]/(a^2-1) (such as 2a): it resolves the closure once, walks that
resolution in both rings and joins the two values once.  `rewrite_alpha_z`
carries a polynomial written in (alpha, z) into (a, x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Mapping

from .braids import BraidWord, component_count
from .burau import alexander_determinant
from .qa import QA
from .rings import AX, LaurentPolynomial, RingError, _as_fraction

Port = int
Wires = tuple[tuple[int, int], tuple[int, int]]  # two position pairs of one crossing
_STRANDS: Wires = ((0, 2), (1, 3))
_SMOOTHING_A: Wires = ((0, 1), (2, 3))
_SMOOTHING_B: Wires = ((0, 3), (1, 2))
_TURNS = tuple(tuple((k + pos) & 3 for pos in range(4)) for k in range(4))


@dataclass(frozen=True, slots=True)
class PlanarDiagram:
    """Immutable unoriented diagram: crossing i owns the ports 4i..4i+3 in
    counterclockwise order, `nbr[p]` is the port joined to p by an arc,
    `over[i]` says that positions 0 and 2 of crossing i are its over-strand,
    and `loops` counts crossing-free circles."""

    nbr: tuple[Port, ...]
    over: tuple[bool, ...]
    loops: int = 0

    def validate(self) -> None:
        nbr = self.nbr
        if len(nbr) != 4 * len(self.over):
            raise RingError("a diagram has four ports per crossing")
        for p, q in enumerate(nbr):
            if not 0 <= q < len(nbr) or q == p or nbr[q] != p:
                raise RingError("every port must be joined to exactly one other port")


def diagram_from_closure(w: BraidWord) -> PlanarDiagram:
    """Trace closure of a braid; one crossing per letter.

    Positive letters put the strand arriving from the lower-left on top.
    Crossing k's ports 4k..4k+3 run counterclockwise from the lower-left.
    """
    return _braid_diagram(w, plat=False)


def diagram_from_plat(w: BraidWord) -> PlanarDiagram:
    """Plat closure of a braid on an even number of strands: caps join the
    positions 2j and 2j+1 below and above the braid."""
    if w.strands % 2:
        raise RingError("a plat closure needs an even number of strands")
    return _braid_diagram(w, plat=True)


def _braid_diagram(w: BraidWord, plat: bool) -> PlanarDiagram:
    n = w.strands
    # dangling[i] = port currently ending strand position i (or a fresh
    # virtual bottom node, negative numbers).
    dangling = [-(i + 1) for i in range(n)]
    bottoms = list(dangling)
    joints: list[tuple[int, int]] = []
    for k, letter in enumerate(w.letters):
        i = abs(letter) - 1
        sw, se, ne, nw = range(4 * k, 4 * k + 4)
        joints.append((dangling[i], sw))
        joints.append((dangling[i + 1], se))
        dangling[i] = nw
        dangling[i + 1] = ne
    if plat:
        joints.extend((bottoms[i], bottoms[i + 1]) for i in range(0, n, 2))
        joints.extend((dangling[i], dangling[i + 1]) for i in range(0, n, 2))
    else:
        joints.extend((dangling[i], bottoms[i]) for i in range(n))
    arcs, loops = contract(joints, range(-n, 0))
    nbr = [0] * (4 * len(w.letters))
    for p, q in arcs:
        nbr[p], nbr[q] = q, p
    d = PlanarDiagram(tuple(nbr), tuple(letter > 0 for letter in w.letters), loops)
    d.validate()
    return d


def contract(edges: list[tuple[int, int]], internal: Container[int]):
    """Join `edges` through the `internal` nodes, each on exactly two edges.

    Returns the arcs between the remaining ports, each walked from its
    smaller end, and the number of closed circles made of internal nodes.
    Braid closures and plats are built with it, and so are the products of
    `tl` (inner levels internal) and its trace closures (every node internal).
    """
    adj: dict[int, list[int]] = {}
    for p, q in edges:
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    arcs: list[tuple[Port, Port]] = []
    loops = 0
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen or start in internal:
            continue
        seen.add(start)
        prev, node = start, adj[start][0]
        while node in internal:
            seen.add(node)
            a, b = adj[node]
            prev, node = node, (a if b == prev else b)
        seen.add(node)
        arcs.append((start, node))
    for start in adj:
        if start in seen:
            continue
        node, prev = start, None
        while node not in seen:
            seen.add(node)
            a, b = adj[node]
            node, prev = (a if a != prev else b), node
        loops += 1
    return tuple(arcs), loops


# -- local moves ---------------------------------------------------------------


def _on_over(d: PlanarDiagram, p: Port) -> bool:
    """Whether port p lies on the over-strand of its crossing."""
    return d.over[p >> 2] != (p & 1)


def _remove_crossings(d: PlanarDiagram, wires: Mapping[int, Wires]) -> PlanarDiagram:
    """Delete the crossings in `wires`, reconnecting through the given pairs.

    `wires[i]` gives two pairs of positions of crossing i that become direct
    connections (its strands for kink/parallel removal, the chosen pairing
    for a smoothing).  The surviving crossings keep their order and are
    renumbered from 0.  Each arc that ends at a removed port is followed
    through the wires to the surviving port at its other end, and the
    closed circles left among the wires are added to the loop count.
    """
    nbr = d.nbr
    through: dict[Port, Port] = {}  # removed port -> its wire partner
    for i, pairs in wires.items():
        for a, b in pairs:
            through[4 * i + a], through[4 * i + b] = 4 * i + b, 4 * i + a
    keep = [i for i in range(len(d.over)) if i not in wires]
    shift = [0] * len(d.over)  # shift[i]: ports removed before a kept crossing i
    for j, i in enumerate(keep):
        shift[i] = 4 * (i - j)
    # the entries of ports joined to a removed port are rewritten below
    out = [q - shift[q >> 2] for i in keep for q in nbr[4 * i:4 * i + 4]]
    seen: set[Port] = set()
    for r in through:
        if nbr[r] not in through:  # follow the arc from a kept port through the wires
            q = r
            while q in through:
                seen.update((q, through[q]))
                q = nbr[through[q]]
            p = nbr[r]
            out[p - shift[p >> 2]] = q - shift[q >> 2]
    loops = d.loops
    for r in through:
        if r not in seen:  # a closed circle made of wires and arcs
            loops += 1
            while r not in seen:
                seen.update((r, through[r]))
                r = nbr[through[r]]
    return PlanarDiagram(tuple(out), tuple(d.over[i] for i in keep), loops)


def _switch(d: PlanarDiagram, i: int) -> PlanarDiagram:
    over = d.over
    return PlanarDiagram(d.nbr, over[:i] + (not over[i],) + over[i + 1:], d.loops)


def find_kink(d: PlanarDiagram) -> tuple[int, bool] | None:
    """A crossing with an arc joining two cyclically adjacent ports.

    Returns (crossing index, positive) where positive means removal leaves
    the value unchanged (the other sign contributes a^-1).
    """
    for p, q in enumerate(d.nbr):
        if q == (p & ~3) | ((p + 1) & 3):
            return p >> 2, not _on_over(d, p)
    return None


def find_parallel_pair(d: PlanarDiagram) -> tuple[int, int] | None:
    """Two crossings joined by two parallel arcs with one strand over both."""
    nbr = d.nbr
    for p, q in enumerate(nbr):
        # the arcs from p and from the port ccw after it end on one other
        # crossing, at q and the port ccw before q: they bound a disk
        if (p >> 2 != q >> 2 and nbr[(p & ~3) | ((p + 1) & 3)] == (q & ~3) | ((q - 1) & 3)
                and _on_over(d, p) == _on_over(d, q)):
            return p >> 2, q >> 2
    return None


def split_pieces(d: PlanarDiagram) -> list[PlanarDiagram]:
    """Connected components of the crossing graph (loops are dropped), each
    with its crossings renumbered in their old order."""
    nbr, over = d.nbr, d.over
    piece = [-1] * len(over)
    groups: list[list[int]] = []
    for s in range(len(over)):
        if piece[s] >= 0:
            continue
        piece[s] = len(groups)
        members, stack = [], [s]
        while stack:
            i = stack.pop()
            members.append(i)
            for q in nbr[4 * i:4 * i + 4]:
                if piece[q >> 2] < 0:
                    piece[q >> 2] = piece[s]
                    stack.append(q >> 2)
        groups.append(sorted(members))
    if len(groups) == 1:
        return [PlanarDiagram(nbr, over)]
    pieces = []
    for members in groups:
        base = {i: 4 * k for k, i in enumerate(members)}
        pieces.append(PlanarDiagram(
            tuple(base[q >> 2] | (q & 3) for i in members for q in nbr[4 * i:4 * i + 4]),
            tuple(over[i] for i in members)))
    return pieces


def _strand_walk(d: PlanarDiagram, first: Port = 0):
    """Deterministic walk along all strands.

    Yields (entry port, component index) in walk order.  The first
    component starts at `first` and each later one where `_next_start`
    says.  Each crossing is entered exactly twice, once per strand through
    it.
    """
    nbr, n = d.nbr, len(d.over)
    if not n:
        return
    met: dict[int, int] = {}  # crossing -> position first entered, in walk order
    twice: set[int] = set()
    start, comp = first, 0
    while True:
        p = start
        while True:
            q = nbr[p]
            i = q >> 2
            if i not in met:
                met[i] = q & 3
            elif i in twice:  # pragma: no cover - malformed diagram guard
                raise RingError("strand walk met a crossing three times")
            else:
                twice.add(i)
            yield q, comp
            p = q ^ 2
            if p == start:
                break
        if len(twice) == n:
            return
        comp += 1
        start = _next_start(d, met, twice)


def _next_start(d: PlanarDiagram, met: dict[int, int], twice: set[int]) -> Port:
    """Where the walk's next component starts, once a strand has closed.

    `met` maps each crossing met so far to the position it was first
    entered by, in walk order, and `twice` holds those passed twice.  The
    start is the port ccw after the entry of the earliest-met crossing
    passed only once; only a split diagram, where no such crossing is left,
    falls back to port 0 of the first crossing not met.  So on a connected
    diagram the walk from a given start does not depend on the crossing
    order or on where each crossing's ports begin.
    """
    for i, k in met.items():
        if i not in twice:
            # a crossing passed once still has its positions k + 1 and k + 3 free
            return 4 * i + ((k + 1) & 3)
    return 4 * next(i for i in range(len(d.over)) if i not in met)


def canonical_code(d: PlanarDiagram):
    """Minimal relabeling over all starts: a complete key of the diagram that
    does not depend on crossing order or port rotation when the diagram is
    connected, as the evaluator's pieces are.

    The code is (flags, sorted arc codes, loops), one flag per crossing in
    walk order (True when the walk first enters it on its over-strand), so
    every start's flags have the same length and decide first.  Half of
    the 4n starts enter their first crossing on the under-strand and so
    begin with False; any of them beats every start that begins with True,
    so only those 2n starts are walked.  A start is dropped as soon as its
    flag prefix exceeds the best one so far.  Where the flags tie, its arc
    codes come out sorted (each end belongs to exactly one arc) and are
    compared with the best ones as one list.  The result is still the
    minimum over all starts of `_strand_walk`, whose component rule each
    walk follows through `_next_start`.
    """
    over = d.over
    n = len(over)
    if not n:
        return ("empty", d.loops)
    nbr, m = d.nbr, 4 * n
    entry_flag = [over[q >> 2] != (q & 1) for q in range(m)]  # entry on the over-strand
    code = [0] * m
    best_flags: list[bool] = []
    best_arcs: list[int] = []
    for first, q in enumerate(nbr):
        if entry_flag[q]:
            continue
        met: dict[int, int] = {}  # crossing -> entry position, in walk order
        twice: set[int] = set()
        flags: list[bool] = []
        label = 0
        tied = bool(best_flags)  # flag prefix equal to the best one so far
        start = p = first
        while True:
            q = nbr[p]
            i = q >> 2
            if i in met:
                twice.add(i)
            else:
                flag = entry_flag[q]
                if tied and flag != best_flags[label]:
                    if flag:  # True > False: this start cannot win
                        break
                    tied = False
                met[i] = q & 3
                flags.append(flag)
                label += 1
                if label == n:
                    break
            p = q ^ 2
            if p == start:
                start = p = _next_start(d, met, twice)
        if label < n:
            continue
        # port code: 4 * label + position relative to the entry, the label
        # being the crossing's place in walk order
        ports = [4 * i + r for i, k in met.items() for r in _TURNS[k]]  # code -> port
        for c, p in enumerate(ports):
            code[p] = c
        # arc from its smaller end u to v: u * 4n + v, listed from each end
        # in code order where it is the smaller one, so sorted without a sort
        arcs = [c * m + v for c, p in enumerate(ports) if c < (v := code[nbr[p]])]
        if not tied or arcs < best_arcs:
            best_flags, best_arcs = flags, arcs
    pairs = [divmod(c, m) for c in best_arcs]
    return (tuple(best_flags), tuple([((u >> 2, u & 3), (v >> 2, v & 3)) for u, v in pairs]),
            d.loops)


def first_bad_crossing(d: PlanarDiagram) -> int | None:
    """First crossing met on its under-strand during the canonical walk."""
    visited: set[int] = set()
    for q, _ in _strand_walk(d):
        i = q >> 2
        if i not in visited:
            if not _on_over(d, q):
                return i
            visited.add(i)
    return None


def _descending_node(d: PlanarDiagram):
    """Resolution of a layered descending diagram: ("desc", e, m), worth
    V = a^-e delta^(m-1) with e = (T - w)/2, T the crossing count, w the sum
    of the self-crossing signs and m the number of strand components.
    """
    first: dict[int, tuple[Port, int]] = {}  # crossing -> first entry port, component
    w_self = m = 0
    for q, comp in _strand_walk(d):
        i, m = q >> 2, comp + 1
        if i not in first:
            first[i] = (q, comp)
        elif first[i][1] == comp:  # a self-crossing: its sign from the two entries
            over, under = (first[i][0], q) if _on_over(d, first[i][0]) else (q, first[i][0])
            w_self += 1 if (over + 1) & 3 == under & 3 else -1
    total = len(d.over)
    if (total - w_self) % 2:
        raise RingError("crossing parity broken; diagram bookkeeping error")
    return ("desc", (total - w_self) // 2, m)


# -- resolution: the ring-free half of the evaluator ------------------------------

# canonical code of a connected piece -> its resolved node, shared by every
# evaluator of the process
_RESOLVED: dict = {}


def _reduce(d: PlanarDiagram, memo: dict | None):
    """Resolve a diagram into (e, circles, ((code, node), ...)), worth
    a^-e delta^(circles - 1) times the values of its pieces (1 with no circle).

    Kinks and parallel pairs are removed first; each remaining connected piece
    is resolved through `memo`, or afresh with code None when `memo` is None.
    """
    exp = 0
    while True:
        kink = find_kink(d)
        if kink is not None:
            i, positive = kink
            if not positive:
                exp += 1
            d = _remove_crossings(d, {i: _STRANDS})
            continue
        pair = find_parallel_pair(d)
        if pair is None:
            break
        i, j = pair
        exp += 1
        d = _remove_crossings(d, {i: _STRANDS, j: _STRANDS})
    pieces = split_pieces(d)
    return exp, d.loops + len(pieces), tuple(_resolve_piece(p, memo) for p in pieces)


def _resolve_piece(d: PlanarDiagram, memo: dict | None):
    if memo is None:
        return None, _piece_node(d, None)
    code = canonical_code(d)
    node = memo.get(code)
    if node is None:
        # Switching may meet a piece isomorphic to one still being resolved
        # further up; it is resolved afresh from its own diagram, so a node
        # never reaches itself, and the first node stored for a code stays.
        node = memo.setdefault(code, _piece_node(d, memo))
    return code, node


def _piece_node(d: PlanarDiagram, memo: dict | None):
    """("desc", e, m), or ("skein", eps, switch, smoothing A, smoothing B) on
    the first bad crossing, whose children are resolved diagrams."""
    bad = first_bad_crossing(d)
    if bad is None:
        return _descending_node(d)
    return ("skein", 1 if d.over[bad] else -1, _reduce(_switch(d, bad), memo),
            _reduce(_remove_crossings(d, {bad: _SMOOTHING_A}), memo),
            _reduce(_remove_crossings(d, {bad: _SMOOTHING_B}), memo))


# -- the evaluator --------------------------------------------------------------


class SkeinRing:
    """Coefficient context: generic (Laurent in a, x) or numeric.

    `skein_mult` is the coefficient a^-1 x multiplying the smoothing terms
    in the twist-normalized skein relation.
    """

    def __init__(self, one, a_inv, skein_mult, delta):
        self.one = one
        self.a_inv = a_inv
        self.skein_mult = skein_mult
        self.delta = delta

    @classmethod
    def generic(cls, variant: str) -> "SkeinRing":
        one = LaurentPolynomial.one(AX)
        a = LaurentPolynomial.var("a", AX)
        a_inv = LaurentPolynomial.var("a", AX, -1)
        x = LaurentPolynomial.var("x", AX)
        x_inv = LaurentPolynomial.var("x", AX, -1)
        if variant == "+":
            delta = (a + one) * x_inv - one
        elif variant == "-":
            delta = (one - a) * x_inv + one
        else:
            raise RingError("variant must be '+' or '-'")
        return cls(one, a_inv, a_inv * x, delta)

    @classmethod
    def numeric(cls, variant: str, a: Fraction, x: Fraction) -> "SkeinRing":
        """Rational a, x != 0 (`int` or `Fraction`, else `RingError`)."""
        a, x = Fraction(_as_fraction(a)), Fraction(_as_fraction(x))
        if a == 0 or x == 0:
            raise RingError("a and x must be invertible")
        if variant == "+":
            delta = (a + 1) / x - 1
        elif variant == "-":
            delta = (1 - a) / x + 1
        else:
            raise RingError("variant must be '+' or '-'")
        return cls(Fraction(1), 1 / a, x / a, delta)


class KauffmanEvaluator:
    """Walks the shared resolution for one variant in one coefficient ring,
    memoizing piece values by canonical code."""

    def __init__(self, variant: str, ring: SkeinRing | None = None, use_cache: bool = True):
        if variant not in ("+", "-"):
            raise RingError("variant must be '+' or '-'")
        self.variant = variant
        self.ring = ring or SkeinRing.generic(variant)
        self.use_cache = use_cache
        self._cache: dict = {}

    def value(self, d: PlanarDiagram):
        """The normalized invariant V(D)."""
        return self._reduced_value(_reduce(d, _RESOLVED if self.use_cache else None))

    def _reduced_value(self, reduced):
        exp, circles, pieces = reduced
        ring = self.ring
        value = ring.a_inv ** exp if exp else ring.one  # the empty diagram is 1
        if circles > 1:
            value = value * ring.delta ** (circles - 1)
        for code, node in pieces:
            value = value * self._piece_value(code, node)
        return value

    def _piece_value(self, code, node):
        if code is not None:
            hit = self._cache.get(code)
            if hit is not None:
                return hit
        ring = self.ring
        if node[0] == "desc":
            _, exp, m = node
            out = ring.a_inv ** exp * ring.delta ** (m - 1)
        else:
            _, eps, switched, smooth_a, smooth_b = node
            v_switch = self._reduced_value(switched)
            v_a = self._reduced_value(smooth_a)
            v_b = self._reduced_value(smooth_b)
            if self.variant == "-":
                out = v_switch + (ring.skein_mult * (v_a - v_b)) * eps
            else:
                out = (ring.skein_mult * (v_a + v_b)) - v_switch
        if code is not None:
            self._cache[code] = out
        return out


# -- public trace interfaces -----------------------------------------------------


ALPHA_Z = ("alpha", "z")


def rewrite_alpha_z(p: LaurentPolynomial) -> LaurentPolynomial:
    """Rewrite a polynomial in (alpha, z) into (a, x) via a = alpha^-2, x = alpha^-1 z.

    Fails loudly when a residual half-power of alpha would remain.
    """
    if p.variables != ALPHA_Z:
        raise RingError("expected a polynomial in (alpha, z)")
    terms: dict[tuple[int, int], Fraction] = {}
    for (u, v), coeff in p.terms.items():
        if (u + v) % 2:
            raise RingError(
                "odd alpha/z degree: value does not descend to the (a, x) ring"
            )
        a_exp = -(u + v) // 2
        mono = (a_exp, v)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return LaurentPolynomial(AX, terms)


def markov_trace_pm_fast(w: BraidWord, variant: str,
                         evaluator: KauffmanEvaluator | None = None):
    """The Markov trace a^(#negative letters) V(closure) = alpha^writhe K(closure).

    Computed in the evaluator's ring: in Q[a, a^-1, x, x^-1] for the generic
    ring (the default), a rational number for a numeric one.
    """
    ev = evaluator or KauffmanEvaluator(variant)
    return ev.value(diagram_from_closure(w)) * _negative_letters_factor(w, ev.ring)


def _negative_letters_factor(w: BraidWord, ring: SkeinRing):
    """a^(#negative letters of w) in `ring`."""
    return ring.a_inv ** -sum(1 for ltr in w.letters if ltr < 0)


def kauffman_at_point(w: BraidWord, x: QA, caches: tuple[dict, dict] | None = None) -> QA:
    """The patched Kauffman trace at a point of the locus a^2 = y = 1.

    `x` is the image of x in Q[a]/(a^2-1), a unit such as 2a.  The closure
    is resolved once; the + variant walks that resolution on the a = +1
    component and the - variant on a = -1, each in a numeric ring, and the
    two rational values are joined once.
    """
    if not x.is_unit():
        raise RingError(f"x -> {x} is outside the invertible locus")
    reduced = _reduce(diagram_from_closure(w), _RESOLVED)
    values = []
    for variant, a, cache in zip("+-", (1, -1), caches or ({}, {})):
        ev = KauffmanEvaluator(variant, SkeinRing.numeric(variant, Fraction(a), x.at(a)))
        ev._cache = cache
        values.append(ev._reduced_value(reduced) * _negative_letters_factor(w, ev.ring))
    return QA.from_components(*values)


def alexander_det(w: BraidWord) -> int:
    """|Delta(-1)| via the reduced Burau pipeline (independent of the skein)."""
    return alexander_determinant(w)


def variant_sign_relation(w: BraidWord, evaluators: tuple[KauffmanEvaluator, KauffmanEvaluator] | None = None) -> bool:
    """tau^-(a -> -a, x -> -x) = (-1)^(#L - 1) tau^+ on the closure of w."""
    if evaluators is None:
        evaluators = (KauffmanEvaluator("+"), KauffmanEvaluator("-"))
    ev_plus, ev_minus = evaluators
    t_plus = markov_trace_pm_fast(w, "+", ev_plus)
    t_minus = markov_trace_pm_fast(w, "-", ev_minus)
    flipped = LaurentPolynomial(
        AX,
        {mono: (-coeff if (mono[0] + mono[1]) % 2 else coeff)
         for mono, coeff in t_minus.terms.items()},
    )
    sign = (-1) ** (component_count(w) - 1)
    return flipped == t_plus * sign
