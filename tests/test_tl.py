"""Extended Temperley-Lieb: multiplication, closures, traces, splittings."""

import hashlib
import math
import random
from pathlib import Path

import pytest

from cubictrace import tl
from cubictrace.qa import QA
from cubictrace.rings import RingError
from cubictrace.tl import (
    C_WORD,
    DT_OVER_X,
    TWO_A_OVER_X,
    ExtTL,
    TLElement,
    apl,
    closure_circles,
    jones_normal_words,
    relator_sandwich_traces,
    retraction_check,
    split_checks,
    trace_x2a,
    trace_xa,
)

GOLDEN_PRODUCTS = Path(__file__).resolve().parent / "golden" / "tl_products.sha256"


class TestBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_catalan_count(self, n):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(jones_normal_words(n)) == catalan

    def test_rank_cap(self):
        with pytest.raises(Exception):
            ExtTL(7)

    @pytest.mark.parametrize("entry", [
        lambda: trace_x2a((7,), 3),
        lambda: trace_x2a(TLElement.word((0, 2)), 3),
        lambda: trace_xa((5,), 3),
        lambda: closure_circles((2,), 3),
        lambda: closure_circles((0, -1), 4),
        lambda: ExtTL(3).reduce_word((5,)),
        lambda: ExtTL(4).multiply(TLElement.word((0,)), TLElement.word((3,))),
        lambda: ExtTL(4).multiply(TLElement.c(1), TLElement.word((5,))),
        lambda: ExtTL(4).multiply(TLElement.word((5,)), TLElement.c(1)),
    ], ids=["trace_x2a", "trace_x2a-element", "trace_xa", "closure_circles",
            "closure_circles-negative", "reduce_word", "multiply", "multiply-C-word",
            "multiply-word-C"])
    def test_letters_outside_the_rank_are_refused(self, entry):
        with pytest.raises(RingError, match="letter"):
            entry()


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

    def test_normal_word_products_match_the_recorded_digest(self):
        """Every product of two normal words for n = 1..5 (1,990 products),
        rendered as recorded with the commutation-search rewriting that
        preceded the tangle contraction."""
        lines = []
        for n in range(1, 6):
            alg = ExtTL(n)
            for u in alg.normal_words:
                for v in alg.normal_words:
                    lines.append(f"{n} {u} {v} {alg.reduce_word(u + v)!r}")
        assert len(lines) == 1990
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == GOLDEN_PRODUCTS.read_text().strip()

    def test_associativity_on_random_triples(self):
        rng = random.Random(21)
        alg = ExtTL(4)
        for _ in range(200):
            mk = lambda: TLElement.word(tuple(rng.randint(0, 2)
                                              for _ in range(rng.randint(0, 4))))
            u, v, w = mk(), mk(), mk()
            assert alg.multiply(alg.multiply(u, v), w) == alg.multiply(u, alg.multiply(v, w))


def random_word(rng, n, longest):
    return tuple(rng.randint(0, n - 2) for _ in range(rng.randint(0, longest)))


class TestDiagrams:
    def test_closure_counts(self):
        assert closure_circles((), 3) == 3
        assert closure_circles((0,), 3) == 2
        assert closure_circles((0, 0), 3) == 3
        assert closure_circles((0, 1, 0), 3) == 2
        assert closure_circles((), 1) == 1

    def test_closure_rotation_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(3, 5)
            word = tuple(rng.randint(0, n - 2) for _ in range(rng.randint(1, 6)))
            base = closure_circles(word, n)
            k = rng.randrange(len(word))
            assert closure_circles(word[k:] + word[:k], n) == base

    def test_squaring_a_letter_adds_one_circle(self):
        # e_i e_i = (dt/x) e_i: the square closes one more circle than e_i
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(2, 6)
            u, v = random_word(rng, n, 5), random_word(rng, n, 5)
            i = rng.randint(0, n - 2)
            assert closure_circles(u + (i, i) + v, n) == closure_circles(u + (i,) + v, n) + 1

    def test_a_sandwich_closes_like_its_outer_letter(self):
        # e_i e_j e_i with |i - j| = 1 is e_i as a diagram, with no circle
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(3, 6)
            u, v = random_word(rng, n, 5), random_word(rng, n, 5)
            i = rng.randint(0, n - 2)
            j = rng.choice([k for k in (i - 1, i + 1) if 0 <= k <= n - 2])
            assert closure_circles(u + (i, j, i) + v, n) == closure_circles(u + (i,) + v, n)


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
        # traced unreduced, by each family's formula: reduced, every sandwich is 0
        rng = random.Random(43)
        nonzero = 0
        for _ in range(100):
            n = rng.randint(3, 5)
            i = rng.randint(0, n - 2)
            left, right = random_word(rng, n, 3), random_word(rng, n, 3)
            for terms in relator_sandwich_traces(left, i, right, n):
                assert sum(terms) == QA(0), (n, i, left, right, terms)
                nonzero += any(terms)
        assert nonzero

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

    def test_a_wrong_section_fails_the_generic_certificate(self, monkeypatch):
        # the C coefficient of the cleared section with the wrong sign
        monkeypatch.setattr(tl, "cleared_section",
                            lambda i: TLElement.word((i,), apl("2*(a-x)")) + TLElement.c(apl("x")))
        rep = split_checks()
        assert not rep.generic_section_works
        assert rep.x2a_section_works and not rep.ok

    def test_retraction(self):
        rep = retraction_check()
        assert rep.ok, rep
