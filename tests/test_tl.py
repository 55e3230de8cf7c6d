"""Extended Temperley-Lieb: multiplication, diagrams, traces, splittings."""

import math
import random

import pytest

from cubictrace.qa import QA
from cubictrace.tl import (
    C_WORD,
    DT_OVER_X,
    TWO_A_OVER_X,
    ExtTL,
    TLDiagram,
    TLElement,
    apl,
    closure_components,
    jones_normal_words,
    retraction_check,
    split_checks,
    trace_x2a,
    trace_xa,
    word_to_diagram,
)


class TestBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_catalan_count(self, n):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(jones_normal_words(n)) == catalan

    def test_rank_cap(self):
        with pytest.raises(Exception):
            ExtTL(7)


class TestMultiplication:
    def test_idempotent_scaled(self):
        alg = ExtTL(3)
        e1 = TLElement.word((0,))
        assert alg.multiply(e1, e1) == e1.scale(DT_OVER_X)

    def test_c_absorption(self):
        alg = ExtTL(3)
        assert alg.multiply(TLElement.word((0,)), TLElement.c(1)) == TLElement.c(DT_OVER_X)

    def test_c_squared(self):
        alg = ExtTL(3)
        expected = TLElement.c(apl("2*x^-2*(2-a*x)*(a-x)"))
        assert alg.multiply(TLElement.c(1), TLElement.c(1)) == expected

    def test_sandwich_relation(self):
        alg = ExtTL(3)
        e1, e2 = TLElement.word((0,)), TLElement.word((1,))
        product = alg.multiply(alg.multiply(e1, e2), e1)
        assert product == e1 + TLElement.c(TWO_A_OVER_X)

    def test_far_commutation(self):
        alg = ExtTL(4)
        e1, e3 = TLElement.word((0,)), TLElement.word((2,))
        assert alg.multiply(e1, e3) == alg.multiply(e3, e1)

    def test_associativity_on_random_triples(self):
        rng = random.Random(21)
        alg = ExtTL(4)
        for _ in range(200):
            mk = lambda: TLElement.word(tuple(rng.randint(0, 2)
                                              for _ in range(rng.randint(0, 4))))
            u, v, w = mk(), mk(), mk()
            assert alg.multiply(alg.multiply(u, v), w) == alg.multiply(u, alg.multiply(v, w))


class TestDiagrams:
    def test_generator_diagram(self):
        d = word_to_diagram((0,), 3)
        assert ((0, 1) in d.pairing) and ((3, 4) in d.pairing)
        assert d.circles == 0

    def test_idempotent_makes_circle(self):
        d = word_to_diagram((0, 0), 3)
        assert d.circles == 1

    def test_sandwich_same_pairing_no_circle(self):
        assert word_to_diagram((0, 1, 0), 3).pairing == word_to_diagram((0,), 3).pairing
        assert word_to_diagram((0, 1, 0), 3).circles == 0

    def test_closure_counts(self):
        assert closure_components(TLDiagram.identity(3)) == 3
        assert closure_components(word_to_diagram((0,), 3)) == 2
        assert closure_components(word_to_diagram((0, 0), 3)) == 3
        assert closure_components(word_to_diagram((0, 1, 0), 3)) == 2

    def test_closure_rotation_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(3, 5)
            word = tuple(rng.randint(0, n - 2) for _ in range(rng.randint(1, 6)))
            base = closure_components(word_to_diagram(word, n))
            k = rng.randrange(len(word))
            assert closure_components(word_to_diagram(word[k:] + word[:k], n)) == base


class TestTraces:
    def test_xa_values(self):
        assert trace_xa((0,), 3) == QA(1)
        assert trace_xa(TLElement.c(1), 3) == QA(-1)
        assert trace_xa((0, 1, 0), 3) == QA(-1)

    def test_xa_consistency_with_sandwich_relation(self):
        # t(e1 e2 e1) must equal t(e1) + 2 t(C) at x = a
        assert trace_xa((0, 1, 0), 3) == trace_xa((0,), 3) + QA(2) * trace_xa(TLElement.c(1), 3)

    def test_x2a_values(self):
        assert trace_x2a((), 3) == QA(1)
        assert trace_x2a((0,), 3) == QA(0, -1)
        assert trace_x2a((0, 1), 3) == QA(0)
        assert trace_x2a(TLElement.c(1), 3) == QA(0, 1)

    def test_cyclicity(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(3, 5)
            alg = ExtTL(n)
            mk = lambda: TLElement.word(tuple(rng.randint(0, n - 2)
                                              for _ in range(rng.randint(0, 4))))
            u, v = mk(), mk()
            uv, vu = alg.multiply(u, v), alg.multiply(v, u)
            assert trace_xa(uv, n) == trace_xa(vu, n)
            assert trace_x2a(uv, n) == trace_x2a(vu, n)

    def test_traces_kill_defining_relators(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(3, 5)
            alg = ExtTL(n)
            i = rng.randint(0, n - 2)
            relators = [alg.multiply(TLElement.word((i,)), TLElement.word((i,)))
                        - TLElement.word((i,)).scale(DT_OVER_X)]
            if i + 1 <= n - 2:
                sandwich = alg.multiply(alg.multiply(TLElement.word((i,)),
                                                     TLElement.word((i + 1,))),
                                        TLElement.word((i,)))
                relators.append(sandwich - TLElement.word((i,)) - TLElement.c(TWO_A_OVER_X))
            mk = lambda: TLElement.word(tuple(rng.randint(0, n - 2)
                                              for _ in range(rng.randint(0, 3))))
            left, right = mk(), mk()
            for relator in relators:
                sandwiched = alg.multiply(alg.multiply(left, relator), right)
                assert trace_xa(sandwiched, n) == QA(0)
                assert trace_x2a(sandwiched, n) == QA(0)

    def test_nonsymmetry_witness(self):
        alg = ExtTL(3)
        diff = TLElement.word((0,)) - TLElement.word((1,))
        for b in alg.basis():
            elem = TLElement.c(1) if b == C_WORD else TLElement.word(b)
            assert trace_x2a(alg.multiply(diff, elem), 3) == QA(0)
        # and the witness is not vacuous: the two-sided pairing detects e1
        assert trace_x2a(alg.multiply(TLElement.word((0,)), TLElement.word(())), 3) != QA(0)


class TestCertificates:
    def test_split_checks(self):
        rep = split_checks()
        assert rep.generic_section_works
        assert rep.x2a_section_works
        assert rep.xa_obstructed
        assert rep.braid_obstruction_unit_xa
        assert rep.braid_obstruction_unit_x2a

    def test_retraction(self):
        rep = retraction_check()
        assert rep.ok, rep
