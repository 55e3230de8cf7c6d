"""The extended (-1)-Hecke module, its trace tower, and the x = 2a invariant."""

import random
from fractions import Fraction

import pytest

from cubictrace.braids import BraidWord, conjugate, parse_braid, stabilize_neg, stabilize_pos
from cubictrace.coxeter import (
    DihedralCoxeter,
    SymmetricCoxeter,
    T0Invariant,
    ThmTraceConfig,
    ThmTraceEngine,
    _act_at,
    act_generator,
    act_word,
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
        assert act_generator(cox, 1, {cox.identity(): QA(1)}, QA(0)) == ({(1, 0): QA(1)}, 0)

    def test_descent_formula(self):
        cox = SymmetricCoxeter(2)
        s = (1, 0)
        assert act_generator(cox, 1, {s: QA(1)}, QA(0)) == ({s: QA(0, 2), (0, 1): QA(-1)}, QA(0, -2))

    def test_inverse_round_trip(self):
        cox = SymmetricCoxeter(3)
        for word in ((1,), (2,), (1, 2), (2, 1, 1)):
            v = ({cox.identity(): QA(1)}, QA(0))
            forward = act_word(cox, word, *v)
            inverse = tuple(-x for x in reversed(word))
            assert act_word(cox, inverse, *forward) == v

    def test_cube_of_generator(self):
        cox = SymmetricCoxeter(2)
        v = act_word(cox, parse_braid("1 1 1", 2).letters, {cox.identity(): QA(1)}, QA(0))
        assert v == ({(1, 0): QA(3), (0, 1): QA(0, -2)}, QA(-6))

    def test_square_of_generator(self):
        cox = SymmetricCoxeter(2)
        v = act_word(cox, parse_braid("1 1", 2).letters, {cox.identity(): QA(1)}, QA(0))
        assert v == ({(1, 0): QA(0, 2), (0, 1): QA(-1)}, QA(0, -2))

    def test_c_is_scaled_by_a(self):
        cox = SymmetricCoxeter(3)
        assert act_generator(cox, 2, {}, QA(1)) == ({}, QA(0, 1))

    def test_out_of_range_letter(self):
        cox = SymmetricCoxeter(3)
        for letter in (0, 3, -3):
            with pytest.raises(RingError):
                act_generator(cox, letter, {}, QA(1))

    @staticmethod
    def _start(cox):
        # coefficients whose values at a = 1 and a = -1 differ and are not
        # integers, so a lost or swapped half or a truncation shows
        elements = list(cox.elements())
        vec = {w: QA(Fraction(k, 3), Fraction(2, 5 + k)) for k, w in enumerate(elements[:4])}
        return vec, QA(Fraction(1, 3), Fraction(2, 5))

    @staticmethod
    def _random_words(cox, seed):
        rng = random.Random(seed)
        letters = [g + 1 for g in cox.generators()]
        letters += [-x for x in letters]
        for _ in range(100):
            yield tuple(rng.choice(letters) for _ in range(rng.randint(1, 8)))

    @pytest.mark.parametrize("cox", [SymmetricCoxeter(4), DihedralCoxeter(5)],
                             ids=["S4", "I2(5)"])
    def test_round_trip_with_non_integer_coefficients(self, cox):
        vec, c = self._start(cox)
        for word in self._random_words(cox, 29):
            inverse = tuple(-x for x in reversed(word))
            assert act_word(cox, inverse, *act_word(cox, word, vec, c)) == (vec, c)

    @pytest.mark.parametrize("cox", [SymmetricCoxeter(4), DihedralCoxeter(5)],
                             ids=["S4", "I2(5)"])
    def test_action_at_a_equals_the_split_at_plus_minus_one(self, cox):
        # the one action over Q[a]/(a^2-1) against the split that
        # verify_braid_relations and the theorem trace rely on: _act_at at
        # a = 1 and at a = -1 on the values, joined by QA.from_components
        vec, c = self._start(cox)
        steps = cox.steps
        for word in self._random_words(cox, 31):
            got_vec, got_c = act_word(cox, word, vec, c)
            (plus, c_plus), (minus, c_minus) = (
                _act_at(cox, word, {steps.id(w): x.at(a) for w, x in vec.items()}, c.at(a), a)
                for a in (1, -1))
            joined = {steps.elements[i]: QA.from_components(plus.get(i, 0), minus.get(i, 0))
                      for i in plus.keys() | minus.keys()}
            assert got_vec == joined
            assert got_c == QA.from_components(c_plus, c_minus)


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
            v1, v2 = (act_word(cox, tuple(g + 1 for g in cox.reduced_word(w)),
                               {cox.identity(): QA(1)}, QA(0))
                      for w in (w1, w2))
            assert v1 != v2


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
