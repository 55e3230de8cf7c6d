"""Regular-isotopy Kauffman and Dubrovnik polynomials on braid closures.

Diagrams are abstract 4-valent graphs with a rotation system: each crossing
carries its four ports in counterclockwise order plus a flag saying which
pair of opposite ports is the over-strand; arcs pair up ports; crossing-free
circles are a separate counter.  All Reidemeister-style reductions below are
local rules on this structure.

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
diagram and both smoothing branches lose a crossing.  Values are memoized
on a canonical relabeling of the diagram.

The Markov traces are then t(beta) = a^(#negative letters) V(closure), a
Laurent polynomial in a and x; `kauffman_eval` converts V back to the
(alpha, z) form when the raw polynomial is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .braids import BraidWord, component_count
from .burau import alexander_determinant
from .qa import QA
from .rings import AX, LaurentPolynomial, QuotientSpec, RingError

Port = int
Crossing = tuple[tuple[Port, Port, Port, Port], bool]  # ccw ports, over02


@dataclass(frozen=True)
class PlanarDiagram:
    """Immutable unoriented diagram: crossings, arcs (port pairing), circles."""

    crossings: tuple[Crossing, ...]
    arcs: tuple[tuple[Port, Port], ...]
    loops: int = 0

    def arc_map(self) -> dict[Port, Port]:
        out: dict[Port, Port] = {}
        for p, q in self.arcs:
            out[p] = q
            out[q] = p
        return out

    def ports(self) -> list[Port]:
        out = []
        for (ports, _) in self.crossings:
            out.extend(ports)
        return out

    def validate(self) -> None:
        ports = self.ports()
        if len(set(ports)) != len(ports):
            raise RingError("duplicate ports")
        amap = self.arc_map()
        if sorted(amap) != sorted(ports):
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
    # contract virtual nodes (each occurs exactly twice in `joints`)
    adj: dict[int, list[int]] = {}
    for p, q in joints:
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    arcs: list[tuple[Port, Port]] = []
    loops = 0
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen or start < 0:
            continue
        # walk from a real port through virtual nodes to the far end
        seen.add(start)
        prev, node = start, adj[start][0]
        while node < 0:
            seen.add(node)
            nxt = adj[node][0] if adj[node][1] == prev else adj[node][1]
            prev, node = node, nxt
        seen.add(node)
        arcs.append((start, node))
    for start in sorted(adj):
        if start in seen or start >= 0:
            continue
        # pure virtual cycle: a free strand, i.e. an unknotted circle
        node, prev = start, None
        while node not in seen:
            seen.add(node)
            a, b = adj[node]
            node, prev = (a if a != prev else b), node
        loops += 1
    d = PlanarDiagram(tuple(crossings), tuple(arcs), loops)
    d.validate()
    return d


# -- local moves ---------------------------------------------------------------


def _over_ports(crossing: Crossing) -> tuple[Port, Port]:
    ports, over02 = crossing
    return (ports[0], ports[2]) if over02 else (ports[1], ports[3])


def _opposite(crossing: Crossing, p: Port) -> Port:
    ports, _ = crossing
    return ports[(ports.index(p) + 2) % 4]


def _remove_crossings(d: PlanarDiagram, wires: Mapping[int, list[tuple[Port, Port]]]) -> PlanarDiagram:
    """Delete the crossings in `wires`, reconnecting through the given pairs.

    `wires[idx]` lists two port pairs of crossing `idx` that become direct
    connections (its strands for kink/parallel removal, the chosen pairing
    for a smoothing).  Arcs are contracted; closed circles produced by the
    contraction are added to the loop count.
    """
    removed_ports: set[Port] = set()
    edge_sets: list[tuple[Port, Port]] = list(d.arcs)
    for idx, pairs in wires.items():
        ports, _ = d.crossings[idx]
        removed_ports.update(ports)
        edge_sets.extend(pairs)
    adj: dict[Port, list[Port]] = {}
    for p, q in edge_sets:
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    new_arcs: list[tuple[Port, Port]] = []
    loops = d.loops
    seen: set[Port] = set()
    for start in sorted(adj):
        if start in seen or start in removed_ports:
            continue
        seen.add(start)
        prev, node = start, adj[start][0]
        while node in removed_ports:
            seen.add(node)
            nbrs = adj[node]
            nxt = nbrs[0] if nbrs[1] == prev else nbrs[1]
            prev, node = node, nxt
        seen.add(node)
        new_arcs.append((start, node))
    for start in sorted(adj):
        if start in seen or start not in removed_ports:
            continue
        node, prev = start, None
        while node not in seen:
            seen.add(node)
            nbrs = adj[node]
            node, prev = (nbrs[0] if nbrs[0] != prev else nbrs[1]), node
        loops += 1
    remaining = tuple(c for i, c in enumerate(d.crossings) if i not in wires)
    return PlanarDiagram(remaining, tuple(new_arcs), loops)


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
    amap = d.arc_map()
    for idx, crossing in enumerate(d.crossings):
        ports, over02 = crossing
        for i in range(4):
            p, q = ports[i], ports[(i + 1) % 4]
            if amap.get(p) == q:
                first_is_over = (i % 2 == 0) == over02
                return idx, not first_is_over
    return None


def find_parallel_pair(d: PlanarDiagram) -> tuple[int, int] | None:
    """Two crossings joined by two parallel arcs with one strand over both."""
    amap = d.arc_map()
    for i, ci in enumerate(d.crossings):
        ports_i, _ = ci
        for k in range(4):
            p, p2 = ports_i[k], ports_i[(k + 1) % 4]
            q, q2 = amap[p], amap[p2]
            if q in ports_i or q2 in ports_i:
                continue
            for j in range(len(d.crossings)):
                if j == i:
                    continue
                ports_j, _ = d.crossings[j]
                if q in ports_j and q2 in ports_j:
                    kq = ports_j.index(q)
                    if ports_j[(kq - 1) % 4] != q2:
                        continue  # arcs not bounding a disk on this side
                    over_i = p in _over_ports(ci)
                    over_j = q in _over_ports(d.crossings[j])
                    if over_i == over_j:
                        return i, j
    return None


def split_pieces(d: PlanarDiagram) -> list[PlanarDiagram]:
    """Connected components of the crossing graph (loops are dropped)."""
    if not d.crossings:
        return []
    port_owner = {}
    for idx, (ports, _) in enumerate(d.crossings):
        for p in ports:
            port_owner[p] = idx
    amap = d.arc_map()
    n = len(d.crossings)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, q in d.arcs:
        a, b = find(port_owner[p]), find(port_owner[q])
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for idx in range(n):
        groups.setdefault(find(idx), []).append(idx)
    pieces = []
    for members in groups.values():
        members_set = set(members)
        crossings = tuple(d.crossings[i] for i in members)
        ports = {p for i in members for p in d.crossings[i][0]}
        arcs = tuple((p, q) for p, q in d.arcs if p in ports)
        pieces.append(PlanarDiagram(crossings, arcs, 0))
    return pieces


def _strand_walk(d: PlanarDiagram):
    """Deterministic walk along all strands.

    Yields (entry_port, crossing_index, component_index) in walk order;
    components start at the smallest unvisited port.  Each crossing is
    reported exactly twice, once per strand through it.
    """
    amap = d.arc_map()
    crossing_of = {}
    for idx, (ports, _) in enumerate(d.crossings):
        for p in ports:
            crossing_of[p] = idx
    seen: set[Port] = set()
    comp = -1
    for start in sorted(amap):
        if start in seen:
            continue
        comp += 1
        p = start
        while True:
            seen.add(p)
            q = amap[p]
            seen.add(q)
            idx = crossing_of[q]
            yield q, idx, comp
            p = _opposite(d.crossings[idx], q)
            if p == start:
                break
            if p in seen:  # pragma: no cover - malformed diagram guard
                raise RingError("strand walk revisited a port")


def canonical_code(d: PlanarDiagram):
    """Representation-independent key: minimal relabeling over all starts."""
    if not d.crossings:
        return ("empty", d.loops)
    amap = d.arc_map()
    crossing_of = {}
    for idx, (ports, _) in enumerate(d.crossings):
        for k, p in enumerate(ports):
            crossing_of[p] = (idx, k)
    all_ports = sorted(amap)
    best = None
    for first in all_ports:
        label: dict[int, int] = {}
        rotation: dict[int, int] = {}
        order: list[int] = []
        seen: set[Port] = set()
        start_order = [first] + [p for p in all_ports if p != first]
        for start in start_order:
            if start in seen:
                continue
            p = start
            while True:
                seen.add(p)
                q = amap[p]
                seen.add(q)
                idx, k = crossing_of[q]
                if idx not in label:
                    label[idx] = len(order)
                    rotation[idx] = k
                    order.append(idx)
                p = _opposite(d.crossings[idx], q)
                if p == start:
                    break
        flags = []
        for idx in order:
            _, over02 = d.crossings[idx]
            flags.append(over02 if rotation[idx] % 2 == 0 else not over02)
        arc_codes = []
        for p, q in d.arcs:
            ip, kp = crossing_of[p]
            iq, kq = crossing_of[q]
            cp = (label[ip], (kp - rotation[ip]) % 4)
            cq = (label[iq], (kq - rotation[iq]) % 4)
            arc_codes.append((min(cp, cq), max(cp, cq)))
        code = (tuple(flags), tuple(sorted(arc_codes)), d.loops)
        if best is None or code < best:
            best = code
    return best


def _walk_components(d: PlanarDiagram):
    """Per-crossing visit list [(entry port, component)] and component count."""
    visits: dict[int, list[tuple[Port, int]]] = {i: [] for i in range(len(d.crossings))}
    ncomp = 0
    for q, idx, comp in _strand_walk(d):
        visits[idx].append((q, comp))
        ncomp = max(ncomp, comp + 1)
    for idx, vs in visits.items():
        if len(vs) != 2:
            raise RingError("crossing not traversed exactly twice")
    return visits, ncomp


def first_bad_crossing(d: PlanarDiagram) -> int | None:
    """First crossing met on its under-strand during the canonical walk."""
    visited: set[int] = set()
    for q, idx, _ in _strand_walk(d):
        if idx in visited:
            continue
        visited.add(idx)
        if q not in _over_ports(d.crossings[idx]):
            return idx
    return None


def _descending_value(d: PlanarDiagram, ring: "SkeinRing"):
    """Value of a layered descending diagram.

    V = a^-(T - w)/2 * delta^(m-1) with T the crossing count, w the sum of
    the self-crossing signs and m the number of strand components.
    """
    visits, m = _walk_components(d)
    w_self = 0
    for idx, crossing in enumerate(d.crossings):
        (p_first, comp_first), (p_second, comp_second) = visits[idx]
        if comp_first != comp_second:
            continue
        over = p_first if p_first in _over_ports(crossing) else p_second
        under = p_second if over == p_first else p_first
        ports, _ = crossing
        sign = 1 if ports[(ports.index(over) + 1) % 4] == under else -1
        w_self += sign
    total = len(d.crossings)
    if (total - w_self) % 2:
        raise RingError("crossing parity broken; diagram bookkeeping error")
    value = ring.a_inv_power((total - w_self) // 2)
    return value * ring.delta_power(m - 1)


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

    def a_inv_power(self, k: int):
        out = self.one
        for _ in range(k):
            out = out * self.a_inv
        return out

    def delta_power(self, k: int):
        out = self.one
        for _ in range(k):
            out = out * self.delta
        return out

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
        a, x = Fraction(a), Fraction(x)
        if a == 0 or x == 0:
            raise RingError("a and x must be invertible")
        if variant == "+":
            delta = (a + 1) / x - 1
        else:
            delta = (1 - a) / x + 1
        return cls(Fraction(1), 1 / a, x / a, delta)


class KauffmanEvaluator:
    """Memoized skein evaluator for one variant over one coefficient ring."""

    def __init__(self, variant: str, ring: SkeinRing | None = None, use_cache: bool = True):
        if variant not in ("+", "-"):
            raise RingError("variant must be '+' or '-'")
        self.variant = variant
        self.ring = ring or SkeinRing.generic(variant)
        self.use_cache = use_cache
        self._cache: dict = {}

    def value(self, d: PlanarDiagram):
        """The normalized invariant V(D)."""
        ring = self.ring
        factor = ring.one
        d, extra = self._simplify(d)
        factor = factor * extra
        pieces = split_pieces(d)
        total_circles = d.loops + len(pieces)
        if total_circles == 0:
            return factor  # empty diagram: normalized to 1
        value = ring.delta_power(total_circles - 1)
        for piece in pieces:
            value = value * self._piece_value(piece)
        return factor * value

    def _piece_value(self, d: PlanarDiagram):
        key = canonical_code(d) if self.use_cache else None
        if key is not None:
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        ring = self.ring
        bad = first_bad_crossing(d)
        if bad is None:
            out = _descending_value(d, ring)
        else:
            crossing = d.crossings[bad]
            switched = _switch(d, bad)
            smooth_a = _remove_crossings(d, {bad: _smoothing_wires(crossing, "A")})
            smooth_b = _remove_crossings(d, {bad: _smoothing_wires(crossing, "B")})
            v_switch = self.value(switched)
            v_a = self.value(smooth_a)
            v_b = self.value(smooth_b)
            if self.variant == "-":
                eps = 1 if crossing[1] else -1
                out = v_switch + (ring.skein_mult * (v_a - v_b)) * eps
            else:
                out = (ring.skein_mult * (v_a + v_b)) - v_switch
        if key is not None:
            self._cache[key] = out
        return out

    def _simplify(self, d: PlanarDiagram):
        ring = self.ring
        factor = ring.one
        changed = True
        while changed:
            changed = False
            kink = find_kink(d)
            if kink is not None:
                idx, positive = kink
                if not positive:
                    factor = factor * ring.a_inv
                d = _remove_crossings(d, {idx: _strand_wires(d.crossings[idx])})
                changed = True
                continue
            pair = find_parallel_pair(d)
            if pair is not None:
                i, j = pair
                factor = factor * ring.a_inv
                d = _remove_crossings(d, {
                    i: _strand_wires(d.crossings[i]),
                    j: _strand_wires(d.crossings[j]),
                })
                changed = True
        return d, factor


# -- public trace interfaces -----------------------------------------------------


ALPHA_Z = ("alpha", "z")


def kauffman_eval(d: PlanarDiagram, variant: str, use_cache: bool = True,
                  evaluator: KauffmanEvaluator | None = None) -> LaurentPolynomial:
    """The regular-isotopy polynomial K(D) in the variables (alpha, z)."""
    ev = evaluator or KauffmanEvaluator(variant, use_cache=use_cache)
    v = ev.value(d)
    alpha_inv_sq = LaurentPolynomial.var("alpha", ALPHA_Z, -2)
    alpha_inv_z = (LaurentPolynomial.var("alpha", ALPHA_Z, -1)
                   * LaurentPolynomial.var("z", ALPHA_Z))
    az = v.substitute({"a": alpha_inv_sq, "x": alpha_inv_z}, ALPHA_Z)
    return az * LaurentPolynomial.var("alpha", ALPHA_Z, -len(d.crossings))


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


def markov_trace_pm(w: BraidWord, variant: str, use_cache: bool = True,
                    evaluator: KauffmanEvaluator | None = None) -> LaurentPolynomial:
    """alpha^writhe K(closure), rewritten exactly into Q[a,a^-1,x,x^-1]."""
    d = diagram_from_closure(w)
    k = kauffman_eval(d, variant, use_cache=use_cache, evaluator=evaluator)
    alpha_w = LaurentPolynomial.var("alpha", ALPHA_Z, w.writhe())
    return rewrite_alpha_z(k * alpha_w)


def markov_trace_pm_fast(w: BraidWord, variant: str,
                         evaluator: KauffmanEvaluator | None = None) -> LaurentPolynomial:
    """Same value as `markov_trace_pm`, staying in (a, x) throughout."""
    ev = evaluator or KauffmanEvaluator(variant)
    v = ev.value(diagram_from_closure(w))
    neg = sum(1 for ltr in w.letters if ltr < 0)
    return v * LaurentPolynomial.var("a", AX, neg)


def kauffman_point_value(w: BraidWord, variant: str, a: Fraction, x: Fraction,
                         cache: dict | None = None) -> Fraction:
    ring = SkeinRing.numeric(variant, a, x)
    ev = KauffmanEvaluator(variant, ring=ring)
    if cache is not None:
        ev._cache = cache
    v = ev.value(diagram_from_closure(w))
    neg = sum(1 for ltr in w.letters if ltr < 0)
    return v * a ** neg


def kauffman_at_point(w: BraidWord, spec: QuotientSpec,
                      caches: tuple[dict, dict] | None = None) -> QA:
    """The patched Kauffman trace at a point of the locus a^2 = y = 1.

    The + variant is evaluated on the a = +1 component and the - variant on
    a = -1; the two rational values are glued into Q[a]/(a^2-1).  `spec`
    must reduce Q[a, x^+-1] by x -> (rational multiple of a or 1) together
    with a^2 -> 1, e.g. `spec_ax_point("2*a")`.
    """
    x_image = spec.reduce(LaurentPolynomial.var("x", AX))
    x_qa = QA.from_poly(x_image)
    x_plus, x_minus = x_qa.at(1), x_qa.at(-1)
    if x_plus == 0 or x_minus == 0:
        raise RingError("spec sends x outside the invertible locus")
    cache_p, cache_m = caches if caches is not None else ({}, {})
    v_plus = kauffman_point_value(w, "+", Fraction(1), x_plus, cache_p)
    v_minus = kauffman_point_value(w, "-", Fraction(-1), x_minus, cache_m)
    return QA.from_components(v_plus, v_minus)


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
