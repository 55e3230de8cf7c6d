"""Braid words, Markov moves, and the component-counting invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictrace.braids import (
    BraidError,
    BraidWord,
    component_count,
    component_trace,
    conjugate,
    markov_move,
    parity_invariant,
    parse_braid,
    stabilize_neg,
    stabilize_pos,
)
from cubictrace.qa import QA


@st.composite
def braids(draw, max_strands=5, max_len=12):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    length = draw(st.integers(min_value=0, max_value=max_len))
    letters = []
    for _ in range(length):
        i = draw(st.integers(min_value=1, max_value=n - 1))
        sign = draw(st.booleans())
        letters.append(i if sign else -i)
    return BraidWord(n, tuple(letters))


class TestParsing:
    def test_trefoil(self):
        w = parse_braid("1 1 1", 2)
        assert w.letters == (1, 1, 1)

    def test_figure_eight(self):
        w = parse_braid("1 -2 1 -2", 3)
        assert w.strands == 3 and w.writhe() == 0

    def test_zero_letter_rejected(self):
        with pytest.raises(BraidError):
            parse_braid("1 -2 0", 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(BraidError):
            parse_braid("1 3", 3)

    def test_non_integer_rejected(self):
        with pytest.raises(BraidError):
            parse_braid("1 x", 3)

    def test_round_trip(self):
        w = parse_braid("1 -2 1 -2", 3)
        assert parse_braid(w.render(), 3) == w


class TestComponents:
    def test_identity(self):
        assert component_count(BraidWord(3, ())) == 3

    def test_trefoil(self):
        assert component_count(parse_braid("1 1 1", 2)) == 1

    def test_hopf(self):
        assert component_count(parse_braid("1 1", 2)) == 2

    @given(braids())
    @settings(max_examples=100, deadline=None)
    def test_parity_lemma(self, w):
        assert (w.strands + w.writhe()) % 2 == component_count(w) % 2

    @given(braids())
    @settings(max_examples=60, deadline=None)
    def test_mirror_preserves_components(self, w):
        assert component_count(w.mirror()) == component_count(w)


class TestMarkovMoves:
    def test_stabilize_pos(self):
        w = markov_move(parse_braid("1 1 1", 2), "stabilize_pos")
        assert w.strands == 3 and w.letters == (1, 1, 1, 2)

    def test_stabilize_neg_from_trivial(self):
        w = markov_move(BraidWord(1, ()), "stabilize_neg")
        assert w.strands == 2 and w.letters == (-1,)

    def test_conjugation(self):
        w = markov_move(parse_braid("1", 2), "conjugate", parse_braid("1", 2))
        assert w.letters == (-1, 1, 1)

    def test_moves_preserve_closure_data(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 5)
            w = BraidWord(n, tuple(rng.choice([i for i in range(1, n)]
                                              + [-i for i in range(1, n)])
                                   for _ in range(rng.randint(0, 10))))
            ncomp = component_count(w)
            assert component_count(stabilize_pos(w)) == ncomp
            assert component_count(stabilize_neg(w)) == ncomp
            g = BraidWord(n, (rng.choice([i for i in range(1, n)]),))
            assert component_count(conjugate(w, g)) == ncomp


class TestInvariantFamilies:
    def test_parity_trefoil(self):
        assert parity_invariant(parse_braid("1 1 1", 2)) == QA(0, 1)

    def test_parity_hopf(self):
        assert parity_invariant(parse_braid("1 1", 2)) == QA(1)

    def test_parity_three_unlink(self):
        assert parity_invariant(BraidWord(3, ())) == QA(0, 1)

    def test_component_trace_values(self):
        assert component_trace(parse_braid("1 1 1", 2), lambda k: k) == 1
        assert component_trace(parse_braid("1 1", 2), lambda k: k * k) == 4
        assert component_trace(BraidWord(3, ()), lambda k: k) == 3

    def test_component_trace_domain_error(self):
        with pytest.raises(BraidError):
            component_trace(parse_braid("1 1", 2), {1: Fraction(1)})

    def test_invariance_under_markov_moves(self):
        rng = random.Random(9)
        seq = {k: Fraction(3 * k + 1, 2) for k in range(1, 12)}
        for _ in range(100):
            n = rng.randint(2, 5)
            w = BraidWord(n, tuple(rng.choice([i for i in range(1, n)]
                                              + [-i for i in range(1, n)])
                                   for _ in range(rng.randint(0, 10))))
            base_parity = parity_invariant(w)
            base_seq = component_trace(w, seq)
            moved = w
            for _ in range(3):
                choice = rng.choice(["conjugate", "stabilize_pos", "stabilize_neg"])
                g = BraidWord(moved.strands,
                              (rng.choice([i for i in range(1, moved.strands)]),)) \
                    if choice == "conjugate" else None
                moved = markov_move(moved, choice, g)
            assert parity_invariant(moved) == base_parity
            assert component_trace(moved, seq) == base_seq
