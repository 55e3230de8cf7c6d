"""Regular-isotopy Kauffman and Dubrovnik polynomials on braid closures.

Diagrams are abstract 4-valent graphs with a rotation system: each crossing
carries its four ports in counterclockwise order plus a flag saying which
pair of opposite ports is the over-strand; arcs pair up ports; crossing-free
circles are a separate counter.  Each diagram builds one port index (its arc
map and each port's crossing and position) the first time it is asked; the
strand walk, the canonical code and the Reidemeister-style reductions below
are local rules on that index.  Removing crossings contracts only the arcs
that touch them.

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
crossing-flag prefix exceeds the best one so far.  `use_cache=False`
bypasses both memos.

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
from functools import cached_property
from typing import Container, Mapping

from .braids import BraidWord, component_count
from .burau import alexander_determinant
from .qa import QA
from .rings import AX, LaurentPolynomial, RingError, _as_fraction

Port = int
Crossing = tuple[tuple[Port, Port, Port, Port], bool]  # ccw ports, over02


@dataclass(frozen=True)
class PlanarDiagram:
    """Immutable unoriented diagram: crossings, arcs (port pairing), circles."""

    crossings: tuple[Crossing, ...]
    arcs: tuple[tuple[Port, Port], ...]
    loops: int = 0

    @cached_property
    def arc_map(self) -> dict[Port, Port]:
        out: dict[Port, Port] = {}
        for p, q in self.arcs:
            out[p] = q
            out[q] = p
        return out

    @cached_property
    def slot(self) -> dict[Port, tuple[int, int]]:
        """Each port's (crossing index, position in its ccw tuple)."""
        return {p: (idx, k) for idx, (ports, _) in enumerate(self.crossings)
                for k, p in enumerate(ports)}

    def validate(self) -> None:
        if len(self.slot) != 4 * len(self.crossings):
            raise RingError("duplicate ports")
        if self.arc_map.keys() != self.slot.keys():
            raise RingError("every port must appear in exactly one arc")


def diagram_from_closure(w: BraidWord) -> PlanarDiagram:
    """Trace closure of a braid; one crossing per letter.

    Positive letters put the strand arriving from the lower-left on top.
    Ports are numbered 4k..4k+3 counterclockwise from the lower-left.
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
    crossings: list[Crossing] = []
    for k, letter in enumerate(w.letters):
        i = abs(letter) - 1
        base = 4 * k
        sw, se, ne, nw = base, base + 1, base + 2, base + 3
        joints.append((dangling[i], sw))
        joints.append((dangling[i + 1], se))
        crossings.append(((sw, se, ne, nw), letter > 0))
        dangling[i] = nw
        dangling[i + 1] = ne
    if plat:
        joints.extend((bottoms[i], bottoms[i + 1]) for i in range(0, n, 2))
        joints.extend((dangling[i], dangling[i + 1]) for i in range(0, n, 2))
    else:
        joints.extend((dangling[i], bottoms[i]) for i in range(n))
    arcs, loops = _contract(joints, range(-n, 0))
    d = PlanarDiagram(tuple(crossings), arcs, loops)
    d.validate()
    return d


def _contract(edges: list[tuple[int, int]], internal: Container[int]):
    """Join `edges` through the `internal` nodes, each on exactly two edges.

    Returns the arcs between the remaining ports, each walked from its
    smaller end, and the number of closed circles made of internal nodes.
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


def _on_over(crossing: Crossing, k: int) -> bool:
    """Whether position k of the crossing lies on its over-strand."""
    return (k % 2 == 0) == crossing[1]


def _remove_crossings(d: PlanarDiagram, wires: Mapping[int, list[tuple[Port, Port]]]) -> PlanarDiagram:
    """Delete the crossings in `wires`, reconnecting through the given pairs.

    `wires[idx]` lists two port pairs of crossing `idx` that become direct
    connections (its strands for kink/parallel removal, the chosen pairing
    for a smoothing).  The move is local: only the arcs that touch a removed
    port are contracted with the wires, the others are kept as they are,
    and closed circles produced by the contraction are added to the loop
    count.  The arcs are returned sorted, so that on a diagram whose arcs
    run from their smaller end (every diagram built here) the result equals
    the contraction of all arcs and wires at once.
    """
    amap = d.arc_map
    removed: set[Port] = set()
    edges: list[tuple[Port, Port]] = []
    for idx, pairs in wires.items():
        removed.update(d.crossings[idx][0])
        edges.extend(pairs)
    for p in removed:
        q = amap[p]
        if p < q or q not in removed:  # an arc between two removed ports once
            edges.append((p, q))
    joined, loops = _contract(edges, removed)
    arcs = [arc for arc in d.arcs if arc[0] not in removed and arc[1] not in removed]
    arcs.extend(joined)
    remaining = tuple(c for i, c in enumerate(d.crossings) if i not in wires)
    return PlanarDiagram(remaining, tuple(sorted(arcs)), d.loops + loops)


def _strand_wires(crossing: Crossing) -> list[tuple[Port, Port]]:
    ports, _ = crossing
    return [(ports[0], ports[2]), (ports[1], ports[3])]


def _smoothing_wires(crossing: Crossing, kind: str) -> list[tuple[Port, Port]]:
    ports, _ = crossing
    if kind == "A":
        return [(ports[0], ports[1]), (ports[2], ports[3])]
    return [(ports[0], ports[3]), (ports[1], ports[2])]


def _switch(d: PlanarDiagram, idx: int) -> PlanarDiagram:
    crossings = list(d.crossings)
    ports, over02 = crossings[idx]
    crossings[idx] = (ports, not over02)
    return PlanarDiagram(tuple(crossings), d.arcs, d.loops)


def find_kink(d: PlanarDiagram) -> tuple[int, bool] | None:
    """A crossing with an arc joining two cyclically adjacent ports.

    Returns (crossing index, positive) where positive means removal leaves
    the value unchanged (the other sign contributes a^-1).
    """
    amap = d.arc_map
    for idx, crossing in enumerate(d.crossings):
        ports, _ = crossing
        for i in range(4):
            if amap[ports[i]] == ports[(i + 1) % 4]:
                return idx, not _on_over(crossing, i)
    return None


def find_parallel_pair(d: PlanarDiagram) -> tuple[int, int] | None:
    """Two crossings joined by two parallel arcs with one strand over both."""
    amap, slot = d.arc_map, d.slot
    for i, ci in enumerate(d.crossings):
        ports_i, _ = ci
        for k in range(4):
            j, kq = slot[amap[ports_i[k]]]
            j2, kq2 = slot[amap[ports_i[(k + 1) % 4]]]
            # both arcs end on one other crossing, bounding a disk on this side
            if j == i or j2 != j or kq2 != (kq - 1) % 4:
                continue
            if _on_over(ci, k) == _on_over(d.crossings[j], kq):
                return i, j
    return None


def split_pieces(d: PlanarDiagram) -> list[PlanarDiagram]:
    """Connected components of the crossing graph (loops are dropped)."""
    slot = d.slot
    parent = list(range(len(d.crossings)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, q in d.arcs:
        a, b = find(slot[p][0]), find(slot[q][0])
        if a != b:
            parent[a] = b
    groups: dict[int, tuple[list[Crossing], list[tuple[Port, Port]]]] = {}
    for idx, crossing in enumerate(d.crossings):
        groups.setdefault(find(idx), ([], []))[0].append(crossing)
    for arc in d.arcs:
        groups[find(slot[arc[0]][0])][1].append(arc)
    return [PlanarDiagram(tuple(cs), tuple(arcs)) for cs, arcs in groups.values()]


def _strand_walk(d: PlanarDiagram, first: Port | None = None):
    """Deterministic walk along all strands.

    Yields (entry port, crossing index, entry position, component index) in
    walk order.  The first component starts at `first` (default: the
    smallest port) and each later one where `_next_start` says.  Each
    crossing is reported exactly twice, once per strand through it.
    """
    amap, slot, crossings = d.arc_map, d.slot, d.crossings
    if not crossings:
        return
    met: dict[int, int] = {}  # crossing -> position first entered, in walk order
    twice: set[int] = set()
    start = min(slot) if first is None else first
    comp = 0
    while True:
        p = start
        while True:
            q = amap[p]
            idx, k = slot[q]
            if idx not in met:
                met[idx] = k
            elif idx in twice:  # pragma: no cover - malformed diagram guard
                raise RingError("strand walk met a crossing three times")
            else:
                twice.add(idx)
            yield q, idx, k, comp
            p = crossings[idx][0][(k + 2) % 4]
            if p == start:
                break
        if len(twice) == len(crossings):
            return
        comp += 1
        start = _next_start(d, met, twice)


def _next_start(d: PlanarDiagram, met: dict[int, int], twice: set[int]) -> Port:
    """Where the walk's next component starts, once a strand has closed.

    `met` maps each crossing met so far to the position it was first
    entered by, in walk order, and `twice` holds those passed twice.  The
    start is the port ccw after the entry of the earliest-met crossing
    passed only once; only a split diagram, where no such crossing is left,
    falls back to the smallest port of a crossing not met.  So on a
    connected diagram the walk from a given start does not depend on port
    labels or on where each crossing's port tuple begins.
    """
    crossings = d.crossings
    for idx, k in met.items():
        if idx not in twice:
            # a crossing passed once still has its positions k + 1 and k + 3 free
            return crossings[idx][0][(k + 1) % 4]
    return min(p for p, (idx, _) in d.slot.items() if idx not in met)


def canonical_code(d: PlanarDiagram):
    """Minimal relabeling over all starts: a complete key of the diagram that
    does not depend on port labels when the diagram is connected, as the
    evaluator's pieces are.

    The code is (flags, sorted arc codes, loops), one flag per crossing in
    walk order (True when the walk first enters it on its over-strand), so
    every start's flags have the same length and decide first.  Half of
    the 4n starts enter their first crossing on the under-strand and so
    begin with False; any of them beats every start that begins with True,
    so only those 2n starts are walked.  A start is dropped as soon as its
    flag prefix exceeds the best one so far; arc codes are built only for
    starts whose flags tie or win.  The result is still the minimum over
    all starts of `_strand_walk`, whose component rule each walk follows
    through `_next_start`.
    """
    crossings = d.crossings
    if not crossings:
        return ("empty", d.loops)
    n = len(crossings)
    amap, slot = d.arc_map, d.slot
    # port -> the walk's step from it: (crossing, entry position, exit port, flag)
    steps = {}
    for p, q in amap.items():
        idx, k = slot[q]
        ports, over02 = crossings[idx]
        steps[p] = (idx, k, ports[(k + 2) % 4], over02 != (k % 2 == 1))
    arc_slots = [(slot[p], slot[q]) for p, q in d.arcs]
    best_flags: list[bool] = []
    best_arcs: list = []
    for first, (_, _, _, over) in steps.items():
        if over:
            continue
        met: dict[int, int] = {}  # crossing -> entry position, in walk order
        twice: set[int] = set()
        flags: list[bool] = []
        label = 0
        tied = bool(best_flags)  # flag prefix equal to the best one so far
        start = p = first
        while True:
            idx, k, p, flag = steps[p]
            if idx in met:
                twice.add(idx)
            else:
                if tied and flag != best_flags[label]:
                    if flag:  # True > False: this start cannot win
                        break
                    tied = False
                met[idx] = k
                flags.append(flag)
                label += 1
                if label == n:
                    break
            if p == start:
                start = p = _next_start(d, met, twice)
        if label < n:
            continue
        # crossing -> (label, rotation): walk order and entry position
        relabel = {idx: (lab, k) for lab, (idx, k) in enumerate(met.items())}
        arc_codes = []
        for (ip, kp), (iq, kq) in arc_slots:
            lp, rp = relabel[ip]
            lq, rq = relabel[iq]
            cp = (lp, (kp - rp) % 4)
            cq = (lq, (kq - rq) % 4)
            arc_codes.append((cp, cq) if cp < cq else (cq, cp))
        arc_codes.sort()
        if not tied or arc_codes < best_arcs:
            best_flags, best_arcs = flags, arc_codes
    return (tuple(best_flags), tuple(best_arcs), d.loops)


def _walk_components(d: PlanarDiagram):
    """Per-crossing visit list [(entry position, component)] and component count."""
    visits: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(d.crossings))}
    ncomp = 0
    for _, idx, k, comp in _strand_walk(d):
        visits[idx].append((k, comp))
        ncomp = max(ncomp, comp + 1)
    for idx, vs in visits.items():
        if len(vs) != 2:
            raise RingError("crossing not traversed exactly twice")
    return visits, ncomp


def first_bad_crossing(d: PlanarDiagram) -> int | None:
    """First crossing met on its under-strand during the canonical walk."""
    visited: set[int] = set()
    for _, idx, k, _ in _strand_walk(d):
        if idx in visited:
            continue
        visited.add(idx)
        if not _on_over(d.crossings[idx], k):
            return idx
    return None


def _descending_node(d: PlanarDiagram):
    """Resolution of a layered descending diagram: ("desc", e, m), worth
    V = a^-e delta^(m-1) with e = (T - w)/2, T the crossing count, w the sum
    of the self-crossing signs and m the number of strand components.
    """
    visits, m = _walk_components(d)
    w_self = 0
    for idx, crossing in enumerate(d.crossings):
        (k_first, comp_first), (k_second, comp_second) = visits[idx]
        if comp_first != comp_second:
            continue
        over, under = (k_first, k_second) if _on_over(crossing, k_first) else (k_second, k_first)
        w_self += 1 if (over + 1) % 4 == under else -1
    total = len(d.crossings)
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
            idx, positive = kink
            if not positive:
                exp += 1
            d = _remove_crossings(d, {idx: _strand_wires(d.crossings[idx])})
            continue
        pair = find_parallel_pair(d)
        if pair is None:
            break
        i, j = pair
        exp += 1
        d = _remove_crossings(d, {i: _strand_wires(d.crossings[i]),
                                  j: _strand_wires(d.crossings[j])})
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
    crossing = d.crossings[bad]
    return ("skein", 1 if crossing[1] else -1, _reduce(_switch(d, bad), memo),
            _reduce(_remove_crossings(d, {bad: _smoothing_wires(crossing, "A")}), memo),
            _reduce(_remove_crossings(d, {bad: _smoothing_wires(crossing, "B")}), memo))


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
        else:
            delta = (1 - a) / x + 1
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
