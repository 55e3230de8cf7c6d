"""Kauffman/Dubrovnik evaluator: anchors, invariance, and cross-checks."""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cubictrace import skein
from cubictrace.braids import BraidWord, component_count, conjugate, parse_braid, \
    stabilize_neg, stabilize_pos
from cubictrace.burau import alexander_determinant, alexander_polynomial_normalized, \
    reduced_burau_generator
from cubictrace.knotdata import load_records
from cubictrace.linalg import Matrix
from cubictrace.qa import A, QA
from cubictrace.rings import AX, LaurentPolynomial, RingError
from cubictrace.skein import (
    KauffmanEvaluator,
    PlanarDiagram,
    SkeinRing,
    _strand_walk,
    _switch,
    alexander_det,
    canonical_code,
    diagram_from_closure,
    diagram_from_plat,
    kauffman_at_point,
    markov_trace_pm_fast,
    rewrite_alpha_z,
    split_pieces,
    variant_sign_relation,
)

ONE = LaurentPolynomial.one(AX)
GOLDEN_RESOLUTION = Path(__file__).resolve().parent / "golden" / "skein_resolution.sha256"


def t(word, n, variant, ev=None):
    return markov_trace_pm_fast(parse_braid(word, n), variant, ev)


def random_braid(rng, strands, max_letters, min_letters=0):
    gens = [i for i in range(1, strands)] + [-i for i in range(1, strands)]
    return BraidWord(strands, tuple(rng.choice(gens)
                                    for _ in range(rng.randint(min_letters, max_letters))))


def pure_braid(rng, strands, blocks):
    """A product of `blocks` random pure generators s_i^(+-2), some conjugated by
    a neighbouring letter; its closure has one component per strand."""
    letters = []
    for _ in range(blocks):
        i = rng.randint(1, strands - 1)
        block = [rng.choice((i, -i))] * 2
        if strands > 2 and rng.random() < 0.5:
            j = rng.choice([g for g in (i - 1, i + 1) if 0 < g < strands]) * rng.choice((1, -1))
            block = [j] + block + [-j]
        letters += block
    return BraidWord(strands, tuple(letters))


def walk_components(d):
    """The number of strand components of the walk."""
    return 1 + max(comp for _, comp in _strand_walk(d))


def arcs(d):
    """The port pairs joined by arcs, each from its smaller end, in order."""
    return tuple((p, q) for p, q in enumerate(d.nbr) if p < q)


def relabeled(d, rng):
    """The same diagram under a random permutation of its crossings and a
    random rotation of each crossing's ports (an odd rotation swaps which
    opposite pair is the over-strand)."""
    n = len(d.over)
    order = rng.sample(range(n), n)  # old crossing -> new index
    turn = [rng.randrange(4) for _ in range(n)]  # old position k -> new (k - turn) % 4

    def moved(p):
        return 4 * order[p // 4] + (p % 4 - turn[p // 4]) % 4

    nbr, over = [0] * (4 * n), [False] * n
    for p, q in enumerate(d.nbr):
        nbr[moved(p)] = moved(q)
    for i, o in enumerate(d.over):
        over[order[i]] = o != (turn[i] % 2 == 1)
    return PlanarDiagram(tuple(nbr), tuple(over), d.loops)


def start_codes(d):
    """The full code from every start, built without pruning."""
    codes = []
    for first in range(len(d.nbr)):
        relabel = {}
        for q, _ in _strand_walk(d, first):
            idx, k = divmod(q, 4)
            if idx not in relabel:
                relabel[idx] = (len(relabel), k)
        flags = tuple(d.over[idx] != (k % 2 == 1) for idx, (_, k) in relabel.items())
        arc_codes = []
        for p, q in arcs(d):
            (ip, kp), (iq, kq) = divmod(p, 4), divmod(q, 4)
            cp = (relabel[ip][0], (kp - relabel[ip][1]) % 4)
            cq = (relabel[iq][0], (kq - relabel[iq][1]) % 4)
            arc_codes.append((cp, cq) if cp < cq else (cq, cp))
        codes.append((flags, tuple(sorted(arc_codes)), d.loops))
    return codes


def keyed_pieces(monkeypatch, diagrams):
    """Each distinct piece the evaluator keys while evaluating `diagrams` in the
    generic rings, resolved from an empty memo so that earlier evaluations hide
    none."""
    pieces = []
    real = canonical_code

    def recorder(d):
        pieces.append(d)
        return real(d)

    with monkeypatch.context() as m:
        m.setattr(skein, "canonical_code", recorder)
        m.setattr(skein, "_RESOLVED", {})
        for v in "+-":
            ev = KauffmanEvaluator(v)
            for d in diagrams:
                ev.value(d)
    return list(dict.fromkeys(pieces))


def contracted_at_once(d, wires):
    """`_remove_crossings` by one contraction of every arc and wire, then a
    renumbering of the surviving crossings in their old order."""
    removed = {4 * idx + k for idx in wires for k in range(4)}
    edges = list(arcs(d)) + [(4 * idx + a, 4 * idx + b)
                             for idx, pairs in wires.items() for a, b in pairs]
    joined, loops = skein.contract(edges, removed)
    kept = [i for i in range(len(d.over)) if i not in wires]
    new = {4 * i + k: 4 * j + k for j, i in enumerate(kept) for k in range(4)}
    nbr = [None] * (4 * len(kept))
    for p, q in joined:
        nbr[new[p]], nbr[new[q]] = new[q], new[p]
    return tuple(nbr), d.loops + loops


def resolution_lines(memo):
    """One line per memo entry (code, node), sorted, with each child piece
    given by its code: expanding the children would repeat shared subtrees."""
    def entry(code, node):
        if node[0] == "skein":
            node = node[:2] + tuple((e, c, tuple(k for k, _ in pieces))
                                    for e, c, pieces in node[2:])
        return repr((code, node))

    return sorted(entry(code, node) for code, node in memo.items())


class TestDiagrams:
    def test_identity_braid_gives_free_loops(self):
        d = diagram_from_closure(BraidWord(1, ()))
        assert not d.over and not d.nbr and d.loops == 1

    def test_single_crossing(self):
        d = diagram_from_closure(BraidWord(2, (1,)))
        assert len(d.over) == 1 and len(d.nbr) == 4
        d.validate()

    def test_trefoil_diagram(self):
        d = diagram_from_closure(parse_braid("1 1 1", 2))
        assert len(d.over) == 3
        d.validate()

    def test_validate_rejects_malformed_pairings(self):
        PlanarDiagram((1, 0, 3, 2), (True,)).validate()  # two kinks on one crossing
        for nbr, over in (((0, 2, 1, 3), (True,)),  # ports 0 and 3 joined to themselves
                          ((1, 2, 3, 0), (True,)),  # 0 -> 1 but 1 -> 2
                          ((1, 0, 3, 7), (True,)),  # a port outside the diagram
                          ((1, 0, 3, 2), (True, False)),  # eight ports needed
                          ((1, 0, 3, 2, 5, 4), (True,))):  # four ports needed
            with pytest.raises(RingError):
                PlanarDiagram(nbr, over).validate()

    def test_component_structure_matches_braid(self):
        rng = random.Random(1)
        for _ in range(40):
            w = random_braid(rng, rng.randint(2, 5), 9, min_letters=1)
            d = diagram_from_closure(w)
            if d.over:
                assert walk_components(d) + d.loops == component_count(w)

    def test_local_contraction_is_the_contraction_at_once(self, monkeypatch):
        rng = random.Random(23)
        diagrams = [diagram_from_closure(parse_braid("1", 2))]  # every removal closes a circle
        diagrams += [diagram_from_closure(random_braid(rng, rng.randint(2, 5), 9)) for _ in range(25)]
        diagrams += [diagram_from_plat(random_braid(rng, rng.choice((2, 4, 6)), 9)) for _ in range(15)]
        diagrams += keyed_pieces(monkeypatch, diagrams[:12])
        closed = kinks = parallel = 0
        for d in diagrams:
            n = len(d.over)
            cases = [{i: skein._STRANDS} for i in range(n)]
            cases += [{i: wires} for i in range(n)
                      for wires in (skein._SMOOTHING_A, skein._SMOOTHING_B)]
            cases += [{i: skein._STRANDS, j: skein._STRANDS}
                      for i in range(n) for j in range(i + 1, n)]
            kinks += skein.find_kink(d) is not None
            parallel += skein.find_parallel_pair(d) is not None
            for wires in cases:
                got = skein._remove_crossings(d, wires)
                nbr, loops = contracted_at_once(d, wires)
                assert (got.nbr, got.loops) == (nbr, loops)
                assert got.over == tuple(o for i, o in enumerate(d.over) if i not in wires)
                got.validate()
                closed += loops > d.loops
        assert closed and kinks and parallel

    def test_canonical_code_is_relabeling_invariant(self):
        w = parse_braid("1 -2 1 -2", 3)
        d1 = diagram_from_closure(w)
        # same closure built after a cyclic rotation of the word
        d2 = diagram_from_closure(parse_braid("-2 1 -2 1", 3))
        assert canonical_code(d1) == canonical_code(d2)
        # the evaluator keys each connected piece, so compare piece codes
        rng = random.Random(11)
        for _ in range(30):
            d = diagram_from_closure(random_braid(rng, rng.randint(2, 5), 10, min_letters=1))
            moved = relabeled(d, rng)
            moved.validate()
            assert (sorted(map(canonical_code, split_pieces(moved)))
                    == sorted(map(canonical_code, split_pieces(d))))
            if len(split_pieces(d)) == 1:
                assert canonical_code(moved) == canonical_code(d)
        # a chiral pair: the trefoil and its mirror
        assert (canonical_code(diagram_from_closure(parse_braid("1 1 1", 2)))
                != canonical_code(diagram_from_closure(parse_braid("-1 -1 -1", 2))))

    def test_pruned_code_is_the_exhaustive_minimum(self, monkeypatch):
        rng = random.Random(17)
        words = [random_braid(rng, rng.randint(2, 5), 10, min_letters=6) for _ in range(30)]
        plats = [random_braid(rng, rng.choice((4, 6)), 12, min_letters=8) for _ in range(12)]
        # links of 3 to 5 components: the walk of a piece may restart several times
        links = [pure_braid(rng, rng.randint(3, 5), rng.randint(3, 5)) for _ in range(8)]
        assert all(component_count(w) >= 3 for w in links)
        diagrams = ([diagram_from_closure(w) for w in words + links]
                    + [diagram_from_plat(w) for w in plats])
        pieces = keyed_pieces(monkeypatch, diagrams)
        assert len(pieces) > 200
        assert sum(walk_components(d) >= 3 for d in pieces) > 50
        for d in pieces:
            for moved in [d] + [relabeled(d, rng) for _ in range(3)]:
                assert canonical_code(moved) == min(start_codes(moved))

    @pytest.mark.parametrize("word,n", [
        ("1 2 1 2 1 2 1 2", 3),
        ("1 1 1 1 1 1", 2),
        ("1 -2 1 -2 1 -2", 3),
        ("1 2 3 1 2 3 1 2 3 1 2 3", 4),  # the full twist
    ])
    def test_symmetric_diagrams_where_flags_tie(self, word, n, monkeypatch):
        w = parse_braid(word, n)
        d = diagram_from_closure(w)
        # many starts tie on the flags, so the arc codes decide
        codes = start_codes(d)
        best = min(codes)
        assert sum(code[0] == best[0] for code in codes) > 1
        assert canonical_code(d) == best
        for piece in keyed_pieces(monkeypatch, [d]):
            assert canonical_code(piece) == min(start_codes(piece))
        for v in "+-":
            assert (markov_trace_pm_fast(w, v, KauffmanEvaluator(v))
                    == markov_trace_pm_fast(w, v, KauffmanEvaluator(v, use_cache=False)))


class TestSplitDiagrams:
    # the closure of s1 s4 s1 s6 s2^-1 s4 on 7 strands has three pieces,
    # read off the strands each letter joins: crossings 0, 2, 4 (strands
    # 1-3), 1, 5 (strands 4-5) and 3 (strands 6-7); the search from
    # crossing 0 meets crossing 4 before crossing 2
    WORD = BraidWord(7, (1, 4, 1, 6, -2, 4))
    PIECES = ((0, 2, 4), (1, 5), (3,))

    def test_pieces_keep_the_old_crossing_order(self):
        d = diagram_from_closure(self.WORD)
        pieces = split_pieces(d)
        assert len(pieces) == len(self.PIECES)
        for piece, members in zip(pieces, self.PIECES):
            new = {old: k for k, old in enumerate(members)}
            assert piece.nbr == tuple(4 * new[q >> 2] + (q & 3)
                                      for i in members for q in d.nbr[4 * i:4 * i + 4])
            assert piece.over == tuple(d.over[i] for i in members)
            assert piece.loops == 0
            piece.validate()

    def test_walk_takes_the_pieces_in_turn_from_their_first_crossings(self):
        # a strand that closes with no crossing passed only once falls back to
        # port 0 of the first crossing not met, so the pieces come in the
        # order of their lowest crossings
        walk = list(_strand_walk(diagram_from_closure(self.WORD)))
        assert walk == [(11, 0), (2, 0), (3, 1), (19, 1), (18, 1), (10, 1),
                        (23, 2), (6, 2), (7, 3), (22, 3), (15, 4), (14, 4)]
        piece_of = {i: k for k, members in enumerate(self.PIECES) for i in members}
        order = [piece_of[q >> 2] for q, _ in walk]
        assert order == sorted(order)


class TestGoldenResolution:
    def test_catalog_resolution_matches_the_recorded_digest(self, monkeypatch):
        """Every catalog closure, resolved from an empty memo, gives the codes
        and nodes recorded with the dict-indexed diagram that preceded the
        flat port arrays."""
        memo = {}
        monkeypatch.setattr(skein, "_RESOLVED", memo)
        for record in load_records():
            skein._reduce(diagram_from_closure(record.braid()), memo)
        digest = hashlib.sha256("\n".join(resolution_lines(memo)).encode()).hexdigest()
        assert digest == GOLDEN_RESOLUTION.read_text().strip()


def reaches_itself(reduced) -> bool:
    """Whether some node of a resolved diagram lies below itself."""
    on_path, done = set(), set()

    def visit(reduced):
        for _, node in reduced[2]:
            if id(node) in on_path:
                return True
            if id(node) in done:
                continue
            on_path.add(id(node))
            if node[0] == "skein" and any(visit(child) for child in node[2:]):
                return True
            on_path.discard(id(node))
            done.add(id(node))
        return False

    return visit(reduced)


def uncached_point_value(w, x):
    """kauffman_at_point without either memo."""
    return QA.from_components(*(
        markov_trace_pm_fast(w, v, KauffmanEvaluator(
            v, SkeinRing.numeric(v, Fraction(a), x.at(a)), use_cache=False))
        for v, a in (("+", 1), ("-", -1))))


class TestSharedResolution:
    """Each piece is resolved once per process and evaluated in every ring."""

    def test_later_rings_key_only_the_top_level_pieces(self, monkeypatch):
        w = parse_braid("1 -2 3 1 -2 -3 2 1 3 -2", 4)
        calls = []
        real = canonical_code

        def counter(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(skein, "_RESOLVED", {})
        monkeypatch.setattr(skein, "canonical_code", counter)
        plus = markov_trace_pm_fast(w, "+", KauffmanEvaluator("+"))
        resolved = len(calls)
        calls.clear()
        top = len(skein._reduce(diagram_from_closure(w), skein._RESOLVED)[2])
        assert top == len(calls) >= 1 and resolved > 10 * top
        calls.clear()
        minus = markov_trace_pm_fast(w, "-", KauffmanEvaluator("-"))
        assert len(calls) == top
        calls.clear()
        point = kauffman_at_point(w, 2 * A)  # one resolution walked in both rings
        assert len(calls) == top
        for v, value in (("+", plus), ("-", minus)):
            assert value == markov_trace_pm_fast(w, v, KauffmanEvaluator(v, use_cache=False))
        assert point == uncached_point_value(w, 2 * A)

    def test_uncached_evaluation_leaves_the_shared_memo_untouched(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(skein, "_RESOLVED", memo)
        markov_trace_pm_fast(parse_braid("1 1 1", 2), "+")
        before = dict(memo)
        assert before
        uncached_point_value(parse_braid("1 -2 1 -2 1 2", 3), A)
        for v in "+-":
            t("1 2 -1 2 -3 2 3", 4, v, KauffmanEvaluator(v, use_cache=False))
        assert memo == before and all(memo[code] is before[code] for code in memo)

    @pytest.mark.parametrize("word,n", [
        ("1 2 3 1 2 3 1 2 3 1 2 3", 4),  # the full twist
        ("1 2 1 2 1 2 1 2", 3),
    ])
    def test_fresh_resolution_has_no_self_reaching_node(self, word, n, monkeypatch):
        w = parse_braid(word, n)
        memo, resolved = {}, []
        real = skein._piece_node

        def counter(d, memo):
            resolved.append(d)
            return real(d, memo)

        monkeypatch.setattr(skein, "_piece_node", counter)
        reduced = skein._reduce(diagram_from_closure(w), memo)
        assert not reaches_itself(reduced)
        if n == 4:  # switching met a piece isomorphic to one still being resolved
            assert len(resolved) > len(memo)
        for v in "+-":  # positive words: the trace is V(closure)
            assert (KauffmanEvaluator(v)._reduced_value(reduced)
                    == markov_trace_pm_fast(w, v, KauffmanEvaluator(v, use_cache=False)))


class TestAnchors:
    def test_unknot_chain_normalization(self):
        for n in (2, 3, 4, 5):
            w = BraidWord(n, tuple(range(1, n)))
            for v in "+-":
                assert markov_trace_pm_fast(w, v) == ONE

    def test_two_strand_loop_values(self):
        assert t("", 2, "+") == LaurentPolynomial.parse("(a - x + 1)/x", AX)
        assert t("", 2, "-") == LaurentPolynomial.parse("(-a + x + 1)/x", AX)

    def test_single_curls(self):
        assert t("1", 2, "+") == ONE
        assert t("-1", 2, "+") == ONE
        assert t("1", 2, "-") == ONE

    def test_figure_eight_derived_values(self):
        # frozen from an independent reduction inside the rank-15 algebra
        plus = LaurentPolynomial.parse(
            "x^3*(a^-2+a^-1) + x^2*(a^-2+2*a^-1+1) - x*(1+a^-1) - (1+a+a^-1)", AX)
        minus = LaurentPolynomial.parse(
            "x^3*(a^-1-a^-2) + x^2*(1-2*a^-1+a^-2) + x*(1-a^-1) + (a-1+a^-1)", AX)
        assert t("1 -2 1 -2", 3, "+") == plus
        assert t("1 -2 1 -2", 3, "-") == minus

    def test_figure_eight_values_are_mirror_symmetric(self):
        # the amphichirality constraint t(a, x) = t(a^-1, a^-1 x) (+ variant)
        val = t("1 -2 1 -2", 3, "+")
        mirrored = LaurentPolynomial(
            AX, {(-ea - ex, ex): c for (ea, ex), c in val.terms.items()})
        assert mirrored == val

    def test_often_quoted_display_is_alpha_flip_of_true_value(self):
        val = t("1 -2 1 -2", 3, "+")
        flipped = LaurentPolynomial(AX, {(-ea, ex): c for (ea, ex), c in val.terms.items()})
        printed = LaurentPolynomial.parse(
            "x^3*(a^2+a) + x^2*(a^2+2*a+1) - x*(1+a) - (1+a+a^-1)", AX)
        assert flipped == printed

    def test_rewrite_rejects_odd_degrees(self):
        alpha = LaurentPolynomial.var("alpha", ("alpha", "z"))
        with pytest.raises(RingError):
            rewrite_alpha_z(alpha)


class TestInvariance:
    def test_markov_moves_exact(self):
        rng = random.Random(3)
        evs = {v: KauffmanEvaluator(v) for v in "+-"}
        for _ in range(100):
            w = random_braid(rng, rng.randint(2, 4), 10)
            g = BraidWord(w.strands, (rng.choice([i for i in range(1, w.strands)]),))
            for v in "+-":
                base = markov_trace_pm_fast(w, v, evs[v])
                assert markov_trace_pm_fast(conjugate(w, g), v, evs[v]) == base
                assert markov_trace_pm_fast(stabilize_pos(w), v, evs[v]) == base
                assert markov_trace_pm_fast(stabilize_neg(w), v, evs[v]) == base

    def test_memoization_transparency(self):
        # a canonical code that merged distinct diagrams would show here
        rng = random.Random(5)
        words = [parse_braid("1 -2 1 -2 1 -2", 3)]
        words += [random_braid(rng, rng.randint(3, 4), 8) for _ in range(15)]
        for v in "+-":
            cached = KauffmanEvaluator(v, use_cache=True)
            for w in words:
                without = markov_trace_pm_fast(w, v, KauffmanEvaluator(v, use_cache=False))
                assert markov_trace_pm_fast(w, v, cached) == without, (w, v)
        # a sharper probe: switching one crossing may keep the key only when
        # the value is kept too (a code that dropped one flag fails here)
        plain = KauffmanEvaluator("+", use_cache=False)
        for w in words:
            d = diagram_from_closure(w)
            for i in range(len(d.over)):
                switched = _switch(d, i)
                if canonical_code(switched) == canonical_code(d):
                    assert plain.value(switched) == plain.value(d), (w, i)

    def test_variant_sign_relation(self):
        for word, n in (("1 1 1", 2), ("1 1", 2), ("1 -2 1 -2", 3), ("", 3),
                        ("1 1 1 2 2 2", 3), ("2 -1 2 -1 2 -1", 3)):
            assert variant_sign_relation(parse_braid(word, n))


class TestPointEvaluation:
    def test_trefoil_is_nine(self):
        assert kauffman_at_point(parse_braid("1 1 1", 2), 2 * A) == QA(9)

    def test_unknot_is_one(self):
        assert kauffman_at_point(BraidWord(1, ()), 2 * A) == QA(1)

    def test_two_unlink_vanishes(self):
        assert kauffman_at_point(BraidWord(2, ()), 2 * A) == QA(0)

    def test_agrees_with_determinant_squared(self):
        for word, n in (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 2 -1 2", 3),
                        ("1 1", 2), ("1 1 1 1 1", 2)):
            w = parse_braid(word, n)
            expected = QA.a_power(component_count(w) - 1) * QA(alexander_det(w) ** 2)
            assert kauffman_at_point(w, 2 * A) == expected

    def test_x_outside_invertible_locus_rejected(self):
        # x = 0, and x = 1 + a, which vanishes at a = -1
        for x in (QA(0), QA(1, 1)):
            with pytest.raises(RingError):
                kauffman_at_point(parse_braid("1 1 1", 2), x)

    def test_numeric_ring_rejects_inexact_values(self):
        for a, x in ((0.1, 2), (1, "2"), (Fraction(1), 2.0)):
            with pytest.raises(RingError):
                SkeinRing.numeric("+", a, x)
        assert SkeinRing.numeric("+", 1, Fraction(4, 2)).skein_mult == 2

    @pytest.mark.parametrize("variant", ["x", "+-", "plus"])
    def test_numeric_ring_refuses_an_unknown_variant(self, variant):
        # as the generic ring does; "x" used to build the - ring
        for make in (lambda: SkeinRing.numeric(variant, 1, 2), lambda: SkeinRing.generic(variant)):
            with pytest.raises(RingError, match="variant"):
                make()


class TestAlexander:
    def test_small_table(self):
        assert alexander_det(BraidWord(1, ())) == 1
        assert alexander_det(parse_braid("1 1 1", 2)) == 3
        assert alexander_det(parse_braid("1 -2 1 -2", 3)) == 5
        assert alexander_det(parse_braid("1 1 1 1 1", 2)) == 5
        assert alexander_det(parse_braid("1 1 1 2 -1 2", 3)) == 7

    def test_split_links_vanish(self):
        assert alexander_det(BraidWord(2, ())) == 0
        assert alexander_det(BraidWord(3, ())) == 0

    def test_invariance_under_markov_moves(self):
        rng = random.Random(8)
        for _ in range(30):
            w = random_braid(rng, rng.randint(2, 4), 8)
            d = alexander_det(w)
            assert alexander_det(stabilize_pos(w)) == d
            assert alexander_det(stabilize_neg(w)) == d

    def test_integer_determinant_matches_the_polynomial(self):
        """The integer path (stabilized to an odd strand count) against
        |Delta(-1)| of the symbolic Burau pipeline."""
        rng = random.Random(31)
        braids = [BraidWord(1, ()), BraidWord(4, (1, 1, 1, 3, 3, 3)), BraidWord(6, (1, -2, 4))]
        braids += [random_braid(rng, n, 12) for n in range(2, 8) for _ in range(25)]
        seen = set()
        for w in braids:
            reference = alexander_polynomial_normalized(w).evaluate({"t": Fraction(-1)})
            det = alexander_determinant(w)
            assert det == abs(reference), w
            ncomp = component_count(w)
            seen.add(("knot" if ncomp == 1 else "link", w.strands % 2, det > 0))
        # even- and odd-strand knots, links with nonzero det, split links (det 0)
        assert {("knot", 0, True), ("knot", 1, True), ("link", 0, True), ("link", 1, True),
                ("link", 0, False), ("link", 1, False)} <= seen

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_form_generator_inverse(self, n):
        t = ("t",)
        ident = Matrix.identity(n - 1, LaurentPolynomial.one(t), LaurentPolynomial.zero(t))
        for i in range(1, n):
            assert reduced_burau_generator(i, n) * reduced_burau_generator(-i, n) == ident
