"""The extended (-1)-Hecke module, its trace tower, and the x = 2a invariant."""

import random
from fractions import Fraction

import pytest

from cubictrace import coxeter
from cubictrace.braids import BraidWord, conjugate, parse_braid, stabilize_neg, stabilize_pos
from cubictrace.coxeter import (
    DihedralCoxeter,
    SymmetricCoxeter,
    T0Invariant,
    ThmTraceEngine,
    _act_at,
    act_generator,
    act_word,
    nonsplit_certificate,
    shifted_minus_a,
    verify_braid_relations,
)
from cubictrace.hecke import _SYMMETRIC, MAX_STRANDS, hecke_trace_qa, parity_tracers, reduced_word
from cubictrace.knotdata import load_records
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

    @pytest.mark.parametrize("cox, key", [(DihedralCoxeter(3), (5, 0)),
                                          (SymmetricCoxeter(3), (0, 0, 1))],
                             ids=["I2(3) length 5", "S3 repeated entry"])
    def test_key_outside_the_group(self, cox, key):
        with pytest.raises(RingError):
            act_word(cox, (1,), {key: QA(1)}, QA(0))

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
                _act_at(cox, word, {steps.id(w): x.at(a) for w, x in vec.items()}, 2 * a, 1, 1, a,
                        c.at(a))
                for a in (1, -1))
            joined = {steps.elements[i]: QA.from_components(plus.get(i, 0), minus.get(i, 0))
                      for i in plus.keys() | minus.keys()}
            assert got_vec == joined
            assert got_c == QA.from_components(c_plus, c_minus)


class TestBraidRelations:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_type_a(self, n):
        assert verify_braid_relations(SymmetricCoxeter(n))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
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

        cox = Wrong(size)
        assert (verify_braid_relations(cox), _per_vector_check(cox)) == (False, False)

    def test_act_at_calls_on_a5(self, monkeypatch):
        # one orbit per row pattern: 424 calls, against 28,840 for every basis vector
        calls = []

        def counted(*args):
            calls.append(args)
            return _act_at(*args)

        monkeypatch.setattr(coxeter, "_act_at", counted)
        assert verify_braid_relations(SymmetricCoxeter(6))
        assert len(calls) <= 1000

    def test_injectivity_smoke(self):
        rng = random.Random(11)
        cox = SymmetricCoxeter(5)
        elements = list(cox.elements())
        for _ in range(100):
            w1, w2 = rng.sample(elements, 2)
            v1, v2 = (act_word(cox, reduced_word(w), {cox.identity(): QA(1)}, QA(0))
                      for w in (w1, w2))
            assert v1 != v2


def _per_vector_check(cox):
    """The braid relations on every E_w and C, one `_act_at` per start: the oracle."""
    starts = [({cox.steps.id(w): 1}, 0) for w in cox.elements()] + [({}, 1)]
    for lhs, rhs in cox.braid_relations():
        lhs_word = tuple(g + 1 for g in lhs)
        rhs_word = tuple(g + 1 for g in rhs)
        for a in (1, -1):
            x = 2 * a
            for vec, c in starts:
                if (_act_at(cox, lhs_word, vec, x, 1, 1, a, c)
                        != _act_at(cox, rhs_word, vec, x, 1, 1, a, c)):
                    return False
    return True


def _first_orbit_only(steps, size, gens):
    # the check without patterns: only the orbit of id 0 under the letters
    orbit = [0]
    for w in orbit:
        orbit += [sw for sw, _, _ in (steps[w][g] for g in gens) if sw not in orbit]
    return orbit


class TestOrbitClasses:
    """`verify_braid_relations` on one orbit per row pattern against `_per_vector_check`."""

    @pytest.mark.parametrize("cox", [SymmetricCoxeter(n) for n in (3, 4, 5)]
                             + [DihedralCoxeter(m) for m in range(2, 9)],
                             ids=[f"S{n}" for n in (3, 4, 5)] + [f"I2({m})" for m in range(2, 9)])
    def test_agrees_with_the_oracle(self, cox):
        assert (verify_braid_relations(cox), _per_vector_check(cox)) == (True, True)

    @staticmethod
    def _mutated(n, i, g, flag):
        # a filled S_n table with the ascent (flag 1) or parity (flag 2)
        # flag of the row of id i for letter g flipped
        cox = SymmetricCoxeter(n)
        coxeter._fill_steps(cox)
        row = list(cox.steps[i])
        triple = list(row[g])
        triple[flag] = not triple[flag]
        row[g] = tuple(triple)
        cox.steps[i] = tuple(row)
        return cox

    @pytest.mark.parametrize("n, seed", [(4, 41), (5, 43)], ids=["S4", "S5"])
    def test_single_flag_mutations(self, n, seed, monkeypatch):
        rng = random.Random(seed)
        clean = SymmetricCoxeter(n)
        size = coxeter._fill_steps(clean)
        relation_letters = [sorted({*lhs, *rhs}) for lhs, rhs in clean.braid_relations()]
        checked = [set(coxeter._orbit_starts(clean.steps, size, gens))
                   for gens in relation_letters]
        mutations = [(rng.randrange(size), rng.randrange(n - 1), rng.choice((1, 2)))
                     for _ in range(24)]
        hidden_failures = 0
        for i, g, flag in mutations:
            verdict = verify_braid_relations(self._mutated(n, i, g, flag))
            assert verdict == _per_vector_check(self._mutated(n, i, g, flag))
            # an orbit that is not its class's representative on the clean table
            hidden = any(g in gens and i not in starts
                         for gens, starts in zip(relation_letters, checked))
            hidden_failures += hidden and not verdict
        assert hidden_failures > 0
        # the check without pattern comparison passes a mutation the oracle rejects
        monkeypatch.setattr(coxeter, "_orbit_starts", _first_orbit_only)
        assert any(verify_braid_relations(self._mutated(n, i, g, flag))
                   and not _per_vector_check(self._mutated(n, i, g, flag))
                   for i, g, flag in mutations)

    def test_rewired_rows(self):
        # one row of a filled S4 table sent to another id, flags kept: the
        # self-loops s w = w keep every flag of the orbit, so only the
        # positions in the pattern tell them apart
        size = coxeter._fill_steps(SymmetricCoxeter(4))
        rng = random.Random(47)
        rewirings = [(size - 1, g, size - 1) for g in range(3)]
        rewirings += [(rng.randrange(size), rng.randrange(3), rng.randrange(size))
                      for _ in range(12)]
        for i, g, j in rewirings:
            verdicts = []
            for check in (verify_braid_relations, _per_vector_check):
                cox = SymmetricCoxeter(4)
                coxeter._fill_steps(cox)
                row = list(cox.steps[i])
                row[g] = (j,) + row[g][1:]
                cox.steps[i] = tuple(row)
                verdicts.append(check(cox))
            assert verdicts[0] == verdicts[1]

    def test_row_into_an_earlier_orbit(self):
        # send s_3 of the last id of S4 to the element at the same position
        # of an earlier orbit under {s_1, s_3} with the same row pattern:
        # the pattern still matches, so only checking that orbit start by
        # start finds the broken relation s_1 s_3 = s_3 s_1
        class Commuting(SymmetricCoxeter):
            def braid_relations(self):
                return [((0, 2), (2, 0))]

        cox = Commuting(4)
        steps = cox.steps
        size = coxeter._fill_steps(cox)
        gens = (0, 2)
        orbits = []
        for first in range(size):
            if all(first not in orbit for orbit in orbits):
                orbit = [first]
                for w in orbit:
                    orbit += [steps[w][g][0] for g in gens if steps[w][g][0] not in orbit]
                orbits.append(orbit)

        def pattern(orbit):
            return [(orbit.index(steps[w][g][0]),) + steps[w][g][1:] for w in orbit for g in gens]

        last = size - 1
        home = next(orbit for orbit in orbits if last in orbit)
        twin = next(orbit for orbit in orbits if pattern(orbit) == pattern(home))
        assert twin != home
        row = list(steps[last])
        row[2] = (twin[home.index(row[2][0])],) + row[2][1:]
        steps[last] = tuple(row)
        assert (verify_braid_relations(cox), _per_vector_check(cox)) == (False, False)


class TestStepTable:
    @pytest.mark.parametrize("cox", [SymmetricCoxeter(5), DihedralCoxeter(5), DihedralCoxeter(2)],
                             ids=["S5", "I2(5)", "I2(2)"])
    def test_rows_and_carried_lengths(self, cox):
        # fill every row reachable from the identity: the lengths carried
        # along the rows and the ascents decided by position are the true ones
        steps = cox.steps
        steps.id(cox.identity())
        i = 0
        while i < len(steps.elements):
            w = steps.elements[i]
            for g, (j, up, odd) in zip(cox.generators(), steps[i]):
                assert steps.elements[j] == cox.act(g, w)
                assert up == (cox.length(cox.act(g, w)) > cox.length(w))
                assert odd == (cox.length(w) % 2 == 1)
            i += 1
        assert sorted(steps.elements, key=str) == sorted(cox.elements(), key=str)
        assert steps.lengths == [cox.length(w) for w in steps.elements]


class TestThmTrace:
    def test_strand_cap_fires_before_any_work(self):
        eng = ThmTraceEngine()
        with pytest.raises(RingError):
            eng.trace_braid(BraidWord(MAX_STRANDS + 1, (1,)))
        with pytest.raises(RingError):
            SymmetricCoxeter(MAX_STRANDS + 1)
        assert MAX_STRANDS + 1 not in _SYMMETRIC and not eng._memo
        below = BraidWord(MAX_STRANDS - 1, (1,))  # the Markov move up to the cap
        assert eng.trace_braid(stabilize_pos(below)) == eng.trace_braid(below)

    def test_c_tower(self):
        # t_n(C) = a^n, read through C = a - (s_1 + s_1^-1)/2, for any base value
        half = QA(Fraction(1, 2))
        for base in (Fraction(0), Fraction(5), Fraction(-2, 3)):
            eng = ThmTraceEngine(base)
            for n in (2, 3, 4, 5):
                one, up, down = (eng.trace_braid(BraidWord(n, w)) for w in ((), (1,), (-1,)))
                assert QA(0, 1) * one - (up + down) * half == QA.a_power(n)

    def test_markov_peeling_example(self):
        # on three strands the element s1 s2 peels down to the base value
        eng = ThmTraceEngine(Fraction(5))
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
        good = ThmTraceEngine()
        bad = ThmTraceEngine(printed_exponent_variant=True)
        w = BraidWord(2, (1,))
        assert good.trace_braid(stabilize_neg(w)) == good.trace_braid(w)
        assert bad.trace_braid(stabilize_neg(w)) != bad.trace_braid(w)


class TestAffineInBase:
    """thm_lambda = thm_0 + lambda hecke: the lemma that fixes T0's weights."""

    def test_lemma_on_the_catalog_and_random_braids(self):
        rng = random.Random(99)
        words = [record.braid() for record in load_records()]
        for _ in range(400):
            n = rng.randint(1, 6)
            letters = [i for i in range(1, n)] + [-i for i in range(1, n)]
            length = rng.randint(0, 12) if letters else 0
            words.append(BraidWord(n, tuple(rng.choice(letters) for _ in range(length))))
        tracers = parity_tracers()
        base0 = ThmTraceEngine()
        engines = [(lam, ThmTraceEngine(lam))
                   for lam in (Fraction(1), Fraction(-1), Fraction(5), Fraction(1, 3), Fraction(-7, 2))]
        for w in words:
            thm0, hecke = base0.trace_braid(w), hecke_trace_qa(w, tracers)
            for lam, engine in engines:
                assert engine.trace_braid(w) == thm0 + lam * hecke, (w.render(), lam)


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
    def test_construction_computes_no_trace(self):
        inv = T0Invariant(Fraction(5))
        assert not inv.engine._memo and not any(inv._kauffman_caches)

    def test_combination_is_pinned(self):
        inv = T0Invariant()
        assert inv.value(BraidWord(3, ())) == QA(1)
        assert inv.value(BraidWord(3, (1,))) == QA(0)
        assert inv.value(BraidWord(3, (1, 2))) == QA(0)

    def test_table_anchors(self):
        inv = T0Invariant()
        assert inv.value(parse_braid("1 1 1", 2)) == QA(0)
        assert inv.value(parse_braid("1 -2 1 -2", 3)) == QA(16)
        assert inv.value(parse_braid("1 1 1 2 2 2", 3)) == QA(64)

    def test_unlink_series(self):
        inv = T0Invariant()
        for n in range(2, 9):
            assert inv.value(BraidWord(n, ())) == QA.a_power(n + 1) * QA(n - 2)

    def test_lambda_independence(self):
        rng = random.Random(19)
        invariants = [T0Invariant(Fraction(b)) for b in (0, 1, -1, 5)]
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
        assert T0Invariant().value(parse_braid("-1 -1", 2)) == QA(0)

    def test_components_exposed_for_diagnostics(self):
        inv = T0Invariant()
        comp = inv.components(parse_braid("1 -2 1 -2", 3))
        assert comp.value == QA(16)
        assert comp.kauffman == QA(25)
        assert comp.hecke == QA(1)
