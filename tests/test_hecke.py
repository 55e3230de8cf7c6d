"""Hecke algebra normal forms and the Ocneanu trace."""

import itertools
import random
from fractions import Fraction

import pytest

from cubictrace.braids import BraidWord, component_count, conjugate, parse_braid, \
    stabilize_neg, stabilize_pos
from cubictrace.hecke import (
    MAX_STRANDS,
    XY,
    HeckeRing,
    OcneanuTrace,
    hecke_normal_form,
    SymmetricCoxeter,
    _act_at,
    coset_peel,
    hecke_trace_qa,
    parity_tracers,
    reduced_word,
)
from cubictrace.knotdata import invariant_key
from cubictrace.qa import QA
from cubictrace.rings import LaurentPolynomial, RingError


def xy(text):
    return LaurentPolynomial.parse(text, XY)


class TestNormalForm:
    def test_single_generator(self):
        e = hecke_normal_form(parse_braid("1", 2))
        assert dict(e.coeffs) == {(1, 0): xy("1")}

    def test_quadratic_relation(self):
        e = hecke_normal_form(parse_braid("1 1", 2))
        assert dict(e.coeffs) == {(1, 0): xy("x"), (0, 1): xy("-y")}

    def test_cube(self):
        e = hecke_normal_form(parse_braid("1 1 1", 2))
        assert dict(e.coeffs) == {(1, 0): xy("x^2 - y"), (0, 1): xy("-x*y")}

    def test_inverse_letter(self):
        e = hecke_normal_form(parse_braid("-1", 2))
        assert dict(e.coeffs) == {(1, 0): xy("-1/y"), (0, 1): xy("x/y")}

    def test_inverse_round_trip(self):
        e = hecke_normal_form(parse_braid("1 -1 2 -2", 3))
        assert dict(e.coeffs) == {(0, 1, 2): xy("1")}

    def test_augmentation(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 4)
            letters = tuple(rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                            for _ in range(rng.randint(1, 7)))
            e = hecke_normal_form(BraidWord(n, letters))
            total = sum((c.evaluate({"x": Fraction(2), "y": Fraction(1)})
                         for c in e.coeffs.values()), Fraction(0))
            assert total == 1

    def test_quadratic_rule_on_every_basis_element(self):
        # the one module action against the four lines of its rule, in the
        # generic ring: s w by swapping values, the ascent by inversion counts
        def length(w):
            return sum(w[p] > w[q] for p, q in itertools.combinations(range(len(w)), 2))

        ring = HeckeRing.generic()
        one, x, y, x_over_y, y_inv = (xy(t) for t in ("1", "x", "y", "x/y", "1/y"))
        for n in range(2, 6):
            cox = SymmetricCoxeter(n)
            steps = cox.steps
            for w in itertools.permutations(range(n)):
                for i in range(n - 1):
                    sw = tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)
                    ascent = length(sw) > length(w)
                    for sign in (1, -1):
                        vec, c = _act_at(cox, (sign * (i + 1),), {steps.id(w): ring.one},
                                         ring.x, ring.y, ring.y_inv)
                        if ascent == (sign > 0):
                            want = {sw: one}  # T_s T_w on an ascent, T_s^-1 T_w on a descent
                        elif sign > 0:
                            want = {w: x, sw: -y}
                        else:
                            want = {w: x_over_y, sw: -y_inv}
                        got = {steps.elements[k]: v for k, v in vec.items()}
                        assert got == want and c is None, (w, i, sign)


    def test_reduced_word_and_coset_peel(self):
        # a reduced word of w has l(w) letters and multiplies out to T_w; the
        # peel is a word on n-1 strands that gives T_w again once the top
        # generator s_{n-1} goes back in front of the run s_{n-2} ... s_{k+1}
        ring = HeckeRing.generic()
        for n in range(1, 6):
            cox = SymmetricCoxeter(n)
            for w in itertools.permutations(range(n)):
                word = reduced_word(w)
                assert len(word) == cox.length(w)
                assert dict(hecke_normal_form(BraidWord(n, word)).coeffs) == {w: ring.one}
                if n > 1 and w[-1] != n - 1:
                    peel = coset_peel(w)
                    assert all(0 < x < n - 1 for x in peel)
                    split = len(peel) - (n - 2 - w.index(n - 1))
                    whole = peel[:split] + (n - 1,) + peel[split:]
                    assert dict(hecke_normal_form(BraidWord(n, whole)).coeffs) == {w: ring.one}


class TestOcneanuTrace:
    def test_normalization(self):
        tr = OcneanuTrace()
        assert tr.of_braid(BraidWord(1, ())) == LaurentPolynomial.one(XY)

    def test_three_strand_loop_value(self):
        tr = OcneanuTrace()
        assert tr.of_braid(BraidWord(3, ())) == xy("(y+1)^2 * x^-2")

    def test_trefoil_value(self):
        tr = OcneanuTrace()
        assert tr.of_braid(parse_braid("1 1 1", 2)) == xy("x^2 - y^2 - 2*y")

    def test_unknot_chain(self):
        tr = OcneanuTrace()
        for n in (2, 3, 4):
            assert tr.of_braid(BraidWord(n, tuple(range(1, n)))) == LaurentPolynomial.one(XY)

    def test_trace_property(self):
        rng = random.Random(6)
        tr = OcneanuTrace()
        for _ in range(200):
            n = rng.randint(2, 5)
            mk = lambda: BraidWord(n, tuple(
                rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                for _ in range(rng.randint(0, 6))))
            u, v = mk(), mk()
            assert tr.of_braid(u * v) == tr.of_braid(v * u)

    def test_both_markov_conditions(self):
        rng = random.Random(7)
        tr = OcneanuTrace()
        for _ in range(200):
            n = rng.randint(2, 4)
            w = BraidWord(n, tuple(
                rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                for _ in range(rng.randint(0, 8))))
            base = tr.of_braid(w)
            assert tr.of_braid(stabilize_pos(w)) == base
            assert tr.of_braid(stabilize_neg(w)) == base
            g = BraidWord(n, (rng.choice([i for i in range(1, n)]),))
            assert tr.of_braid(conjugate(w, g)) == base

    def test_loop_value_difference_identity(self):
        xya = ("x", "y", "a")
        delta_h = LaurentPolynomial.parse("(y+1)/x", xya)
        delta_k = LaurentPolynomial.parse("(y^2 - a*x + y)/(x*y)", xya)
        assert delta_h - delta_k == LaurentPolynomial.parse("a/y", xya)


class TestParityPoint:
    def test_component_power_on_small_braids(self):
        tracers = parity_tracers()
        for word, n in (("1 1 1", 2), ("1 1", 2), ("1 -2 1 -2", 3), ("", 3), ("", 4)):
            w = parse_braid(word, n)
            assert hecke_trace_qa(w, tracers) == QA.a_power(component_count(w) - 1)

    def test_homfly_invariant_specialized(self):
        tracers = parity_tracers()
        assert hecke_trace_qa(parse_braid("1 1 1", 2), tracers) == QA(1)
        assert hecke_trace_qa(parse_braid("1 1", 2), tracers) == QA(0, 1)

    def test_homfly_generic_matches_tracer(self):
        # the HOMFLY half of the catalog screens' key is the generic trace
        w = parse_braid("1 -2 1 -2", 3)
        assert invariant_key(w)[0] == OcneanuTrace().of_braid(w)

    def test_numeric_trace_is_the_generic_one_at_the_point(self):
        rng = random.Random(41)
        generic = OcneanuTrace()
        plus, minus = parity_tracers()
        for _ in range(60):
            n = rng.randint(1, 5)
            alphabet = [i for i in range(1, n)] + [-i for i in range(1, n)]
            w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 9) if alphabet else 0)))
            value = generic.of_braid(w)
            for tracer, x in ((plus, 2), (minus, -2)):
                assert tracer.of_braid(w) == value.evaluate({"x": Fraction(x), "y": Fraction(1)})

    def test_numeric_ring_rejects_a_zero_point(self):
        for x, y in ((0, 1), (2, 0)):
            with pytest.raises(RingError):
                HeckeRing.numeric(x, y)

    def test_strand_cap_fires_before_any_work(self):
        over = BraidWord(MAX_STRANDS + 1, (1,))
        generic, tracers = OcneanuTrace(), parity_tracers()
        with pytest.raises(RingError):
            generic.of_braid(over)
        with pytest.raises(RingError):
            hecke_trace_qa(over, tracers)
        assert not generic._memo and not any(tr._memo for tr in tracers)
        at_cap = BraidWord(MAX_STRANDS, (1,))
        assert hecke_trace_qa(at_cap, tracers) == QA.a_power(component_count(at_cap) - 1)

    def test_numeric_ring_rejects_inexact_values(self):
        for x, y in ((0.5, 1), (2, "1"), ("2", 1)):
            with pytest.raises(RingError):
                HeckeRing.numeric(x, y)
        assert HeckeRing.numeric(Fraction(4, 2), 1).x == 2
