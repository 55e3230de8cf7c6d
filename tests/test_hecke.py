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
    HeckeElement,
    hecke_trace_qa,
    multiply_generator,
    parity_tracers,
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

    def test_ascent_rule_against_the_inversion_count(self):
        def length(w):
            return sum(w[p] > w[q] for p, q in itertools.combinations(range(len(w)), 2))

        ring = HeckeRing.generic()
        for n in range(2, 6):
            for w in itertools.permutations(range(n)):
                basis = HeckeElement({w: ring.one})
                for i in range(n - 1):
                    for side, sw in (("left", tuple(i + 1 if x == i else i if x == i + 1 else x
                                                    for x in w)),
                                     ("right", w[:i] + (w[i + 1], w[i]) + w[i + 2:])):
                        product = multiply_generator(basis, i, 1, ring, side)
                        ascent = dict(product.coeffs) == {sw: ring.one}
                        assert ascent == (length(sw) > length(w)), (w, i, side)


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
