"""The extended (-1)-Hecke module, its trace tower, and the x = 2a invariant."""

import random
from fractions import Fraction

import pytest

from cubictrace.braids import BraidWord, conjugate, parse_braid, stabilize_neg, stabilize_pos
from cubictrace.coxeter import (
    C_KEY,
    DihedralCoxeter,
    ExtHeckeVector,
    SymmetricCoxeter,
    T0Invariant,
    ThmTraceConfig,
    ThmTraceEngine,
    act_generator,
    act_word,
    braid_to_vector,
    nonsplit_certificate,
    shifted_minus_a,
    t0_invariant,
    verify_braid_relations,
)
from cubictrace.qa import QA
from cubictrace.rings import RingError


class TestModuleAction:
    def test_ascent(self):
        cox = SymmetricCoxeter(2)
        v = act_generator(1, ExtHeckeVector.basis(cox.identity()), cox)
        assert dict(v.coeffs) == {(1, 0): QA(1)}

    def test_descent_formula(self):
        cox = SymmetricCoxeter(2)
        s = (1, 0)
        v = act_generator(1, ExtHeckeVector.basis(s), cox)
        assert dict(v.coeffs) == {C_KEY: QA(0, -2), s: QA(0, 2), (0, 1): QA(-1)}

    def test_inverse_round_trip(self):
        cox = SymmetricCoxeter(3)
        for word in ((1,), (2,), (1, 2), (2, 1, 1)):
            v = ExtHeckeVector.basis(cox.identity())
            forward = act_word(word, v, cox)
            inverse = tuple(-x for x in reversed(word))
            assert act_word(inverse, forward, cox) == v

    def test_cube_of_generator(self):
        v = braid_to_vector(parse_braid("1 1 1", 2))
        assert dict(v.coeffs) == {C_KEY: QA(-6), (1, 0): QA(3), (0, 1): QA(0, -2)}

    def test_square_of_generator(self):
        v = braid_to_vector(parse_braid("1 1", 2))
        assert dict(v.coeffs) == {C_KEY: QA(0, -2), (1, 0): QA(0, 2), (0, 1): QA(-1)}

    def test_c_is_scaled_by_a(self):
        cox = SymmetricCoxeter(3)
        v = act_generator(2, ExtHeckeVector.c_vector(), cox)
        assert dict(v.coeffs) == {C_KEY: QA(0, 1)}

    def test_out_of_range_letter(self):
        cox = SymmetricCoxeter(3)
        for letter in (0, 3, -3):
            with pytest.raises(RingError):
                act_generator(letter, ExtHeckeVector.c_vector(), cox)

    @pytest.mark.parametrize("cox", [SymmetricCoxeter(4), DihedralCoxeter(5)],
                             ids=["S4", "I2(5)"])
    def test_round_trip_with_non_integer_coefficients(self, cox):
        # coefficients whose values at a = 1 and a = -1 differ and are not
        # integers, so a lost or swapped half or a truncation shows
        rng = random.Random(29)
        elements = list(cox.elements())
        letters = [g + 1 for g in cox.generators()]
        letters += [-x for x in letters]
        start = {w: QA(Fraction(k, 3), Fraction(2, 5 + k)) for k, w in enumerate(elements[:4])}
        start[C_KEY] = QA(Fraction(1, 3), Fraction(2, 5))
        v = ExtHeckeVector(start)
        for _ in range(100):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))
            inverse = tuple(-x for x in reversed(word))
            assert act_word(inverse, act_word(word, v, cox), cox) == v


class TestBraidRelations:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_type_a(self, n):
        assert verify_braid_relations(SymmetricCoxeter(n))

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_dihedral(self, m):
        assert verify_braid_relations(DihedralCoxeter(m))

    @pytest.mark.parametrize("system, size, relation", [
        (SymmetricCoxeter, 3, ((0, 1), (1, 0))),
        (SymmetricCoxeter, 4, ((0, 2, 0), (2, 0, 2))),
        (DihedralCoxeter, 5, ((0, 1, 0, 1), (1, 0, 1, 0))),
    ], ids=["A2 s1s2=s2s1", "A3 s1s3s1=s3s1s3", "I2(5) length m-1"])
    def test_false_relation_is_rejected(self, system, size, relation):
        class Wrong(system):
            def braid_relations(self):
                return [relation]

        assert not verify_braid_relations(Wrong(size))

    def test_injectivity_smoke(self):
        rng = random.Random(11)
        cox = SymmetricCoxeter(5)
        elements = list(cox.elements())
        for _ in range(100):
            w1, w2 = rng.sample(elements, 2)
            b1 = BraidWord(5, tuple(g + 1 for g in cox.reduced_word(w1)))
            b2 = BraidWord(5, tuple(g + 1 for g in cox.reduced_word(w2)))
            assert braid_to_vector(b1, cox) != braid_to_vector(b2, cox)


class TestThmTrace:
    def test_c_tower(self):
        # t_n(C) = a^n at a = +-1, and C has no trace on one strand
        eng = ThmTraceEngine()
        for n in (2, 3, 4):
            assert QA.from_components(*(eng.trace_at(n, {}, 1, a) for a in (1, -1))) == QA.a_power(n)
        with pytest.raises(RingError):
            eng.trace_at(1, {}, 1, 1)

    def test_markov_peeling_example(self):
        # on three strands the element s1 s2 peels down to the base value
        eng = ThmTraceEngine(ThmTraceConfig(base=Fraction(5)))
        assert eng.trace_braid(parse_braid("1 2", 3)) == QA(5)

    def test_trace_property(self):
        rng = random.Random(17)
        eng = ThmTraceEngine()
        for _ in range(200):
            n = rng.randint(2, 4)
            mk = lambda: BraidWord(n, tuple(
                rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                for _ in range(rng.randint(0, 6))))
            u, v = mk(), mk()
            assert eng.trace_braid(u * v) == eng.trace_braid(v * u)

    def test_printed_exponent_variant_breaks_negative_markov(self):
        good = ThmTraceEngine(ThmTraceConfig())
        bad = ThmTraceEngine(ThmTraceConfig(printed_exponent_variant=True))
        w = BraidWord(2, (1,))
        assert good.trace_braid(stabilize_neg(w)) == good.trace_braid(w)
        assert bad.trace_braid(stabilize_neg(w)) != bad.trace_braid(w)


class TestNonSplit:
    def test_certificate(self):
        rep = nonsplit_certificate()
        assert rep.lambda_free
        assert rep.squared_image_is_minus_2aC
        assert rep.killed_by_next_factor

    def test_next_factor_check_can_fail(self):
        # (t - a) kills C but not E_1, so the certificate's last check is not vacuous
        cox = SymmetricCoxeter(3)
        one = {cox.steps.id(cox.identity()): 1}
        for a in (1, -1):
            assert shifted_minus_a(cox, 2, {}, -2 * a, a) == ({}, 0)
            assert shifted_minus_a(cox, 2, one, 0, a) != ({}, 0)


class TestT0Invariant:
    def test_combination_is_pinned(self):
        inv = T0Invariant()
        assert inv.value(BraidWord(3, ())) == QA(1)
        assert inv.value(BraidWord(3, (1,))) == QA(0)
        assert inv.value(BraidWord(3, (1, 2))) == QA(0)

    def test_table_anchors(self):
        assert t0_invariant(parse_braid("1 1 1", 2)) == QA(0)
        assert t0_invariant(parse_braid("1 -2 1 -2", 3)) == QA(16)
        assert t0_invariant(parse_braid("1 1 1 2 2 2", 3)) == QA(64)

    def test_unlink_series(self):
        inv = T0Invariant()
        for n in range(2, 9):
            assert inv.value(BraidWord(n, ())) == QA.a_power(n + 1) * QA(n - 2)

    def test_lambda_independence(self):
        rng = random.Random(19)
        invariants = [T0Invariant(ThmTraceConfig(base=Fraction(b))) for b in (0, 1, -1, 5)]
        for _ in range(20):
            n = rng.randint(2, 4)
            w = BraidWord(n, tuple(
                rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                for _ in range(rng.randint(0, 8))))
            values = {inv.value(w) for inv in invariants}
            assert len(values) == 1

    def test_markov_mirror_reversal_invariance(self):
        rng = random.Random(23)
        inv = T0Invariant()
        for _ in range(60):
            n = rng.randint(2, 5)
            w = BraidWord(n, tuple(
                rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                for _ in range(rng.randint(0, 10))))
            base = inv.value(w)
            assert inv.value(stabilize_pos(w)) == base
            assert inv.value(stabilize_neg(w)) == base
            g = BraidWord(n, (rng.choice([i for i in range(1, n)]),))
            assert inv.value(conjugate(w, g)) == base
            assert inv.value(w.mirror()) == base
            assert inv.value(w.reverse()) == base

    def test_hopf_link_value(self):
        assert t0_invariant(parse_braid("-1 -1", 2)) == QA(0)

    def test_components_exposed_for_diagnostics(self):
        inv = T0Invariant()
        comp = inv.components(parse_braid("1 -2 1 -2", 3))
        assert comp.value == QA(16)
        assert comp.kauffman == QA(25)
        assert comp.hecke == QA(1)
