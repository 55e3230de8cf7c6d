"""Exact arithmetic, quotient reduction, rendering, and identity testing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictrace.qa import A, QA, specialize
from cubictrace.rings import (
    ABC,
    AX,
    LaurentPolynomial,
    PowerReduce,
    QuotientSpec,
    RingError,
    Substitute,
    fold_a,
    pit_equal,
    pit_points,
    poly_abc,
    spec_a_squared_one,
    spec_dagger_dagger,
    spec_r_plus,
)

coeffs = st.integers(min_value=-9, max_value=9).map(Fraction)
exponents = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, variables=("a", "b")):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        mono = tuple(draw(exponents) for _ in variables)
        terms[mono] = draw(coeffs)
    return LaurentPolynomial(variables, terms)


class TestArithmetic:
    def test_monomial_product(self):
        a = LaurentPolynomial.var("a", ABC)
        assert a * a == poly_abc("a^2")

    def test_cancellation(self):
        assert poly_abc("b+c") + poly_abc("-b") == poly_abc("c")

    def test_difference_of_squares(self):
        assert poly_abc("(b+1)*(b-1)") == poly_abc("b^2-1")

    def test_mismatched_variables_rejected(self):
        p = LaurentPolynomial.var("a", ("a",))
        q = LaurentPolynomial.var("x", AX)
        with pytest.raises(RingError):
            p + q

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_is_construction_order_independent(self, p):
        items = sorted(p.terms.items(), reverse=True)
        rebuilt = LaurentPolynomial(p.variables, {})
        for mono, c in items:
            rebuilt = rebuilt + LaurentPolynomial.monomial(c, mono, p.variables)
        assert rebuilt == p
        assert hash(rebuilt) == hash(p)
        assert rebuilt.render() == p.render()

    def test_exact_division(self):
        p = poly_abc("(a^2-b*c)*(a+b)*(a+b)")
        q = poly_abc("a+b")
        assert p.exact_div(q) == poly_abc("(a^2-b*c)*(a+b)")
        with pytest.raises(RingError):
            poly_abc("a^2+b").exact_div(poly_abc("a+1"))

    def test_negative_power_division_by_monomial(self):
        p = poly_abc("a^2*b - a*b^2")
        assert p * poly_abc("a*b").monomial_inverse() == poly_abc("a - b")


class TestRendering:
    def test_spec_example(self):
        p = LaurentPolynomial.parse("-6 + 3*a", ("a",))
        assert p.render() == "-6 + 3*a"

    def test_fraction_rendering(self):
        p = LaurentPolynomial(("a",), {(1,): Fraction(1, 2), (0,): Fraction(-3, 4)})
        assert p.render() == "-3/4 + 1/2*a"
        assert LaurentPolynomial.parse(p.render(), ("a",)) == p

    @given(polys(variables=AX))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        assert LaurentPolynomial.parse(p.render(), AX) == p


class TestQuotients:
    def test_a_squared_reduction(self):
        spec = QuotientSpec("a2", ("a",), (PowerReduce("a", 2, LaurentPolynomial.one(("a",))),))
        assert spec.reduce(LaurentPolynomial.parse("a^2", ("a",))) == LaurentPolynomial.one(("a",))
        assert spec.reduce(LaurentPolynomial.parse("a^-1", ("a",))) == \
            LaurentPolynomial.var("a", ("a",))

    def test_kauffman_loop_value_vanishes_at_x2a(self):
        # numerator of (y^2 - a x + y)/(x y) at y = 1 is 2 - a x -> 0 at x = 2a
        numerator = LaurentPolynomial.parse("2 - a*x", AX)
        assert specialize(numerator, 2 * A).is_zero()
        assert specialize(LaurentPolynomial.parse("x^-1 * (2 - a*x)", AX), 2 * A).is_zero()

    def test_extension_loop_value_vanishes_at_x2a(self):
        dt = LaurentPolynomial.parse("2 - a*x", AX)
        assert specialize(dt, 2 * A).is_zero()
        assert specialize(dt, A) == QA(1)
        # a x^-1 + x^2 at x = -2a: a (-a/2) + 4 a^2 = 7/2
        assert specialize(LaurentPolynomial.parse("a*x^-1 + x^2", AX), -2 * A) == QA(Fraction(7, 2))
        # x must be a unit of Q[a]/(a^2 - 1): zero at a = 1 or at a = -1 is refused
        for x in (QA(0), QA(1, 1), QA(1, -1)):
            with pytest.raises(RingError):
                specialize(dt, x)

    def test_idempotence_and_multiplicativity(self):
        import random

        rng = random.Random(0)
        spec = spec_dagger_dagger()
        for _ in range(500):
            terms_p = {tuple(rng.randint(-3, 3) for _ in ABC): Fraction(rng.randint(-5, 5))
                       for _ in range(rng.randint(0, 4))}
            terms_q = {tuple(rng.randint(-3, 3) for _ in ABC): Fraction(rng.randint(-5, 5))
                       for _ in range(rng.randint(0, 4))}
            p = LaurentPolynomial(ABC, terms_p)
            q = LaurentPolynomial(ABC, terms_q)
            rp = spec.reduce(p)
            assert spec.reduce(rp) == rp
            lhs = spec.reduce(p * q)
            rhs = spec.reduce(spec.reduce(p).extend(ABC) * spec.reduce(q).extend(ABC))
            assert lhs == rhs

    @pytest.mark.parametrize("variables", [("a",), ("a", "x"), ("a", "x", "L")])
    def test_fold_a_matches_the_quotient_spec(self, variables):
        import random

        rng = random.Random(len(variables))
        spec = spec_a_squared_one(variables)
        for _ in range(300):
            terms = {tuple(rng.randint(-5, 5) for _ in variables): Fraction(rng.randint(-5, 5))
                     for _ in range(rng.randint(0, 6))}
            p = LaurentPolynomial(variables, terms)
            assert fold_a(p) == spec.reduce(p)

    def test_nonterminating_rules_rejected(self):
        with pytest.raises(RingError):
            QuotientSpec("bad", ("a",),
                         (PowerReduce("a", 2, LaurentPolynomial.parse("a^3", ("a",))),))

    def test_rule_image_over_eliminated_variable_rejected(self):
        with pytest.raises(RingError):
            QuotientSpec("bad", ("a", "b"),
                         (Substitute("a", LaurentPolynomial.parse("b", ("b",))),
                          Substitute("b", LaurentPolynomial.parse("1", ("b",)))))


class TestPit:
    def test_syntactic_equality(self):
        p = poly_abc("a*b - c")
        assert pit_equal(p, p).equal

    def test_algebraic_identity(self):
        assert pit_equal(poly_abc("(a-b)*(a+b)"), poly_abc("a^2-b^2")).equal

    def test_honest_disagreement(self):
        res = pit_equal(poly_abc("a"), poly_abc("b"))
        assert not res.equal
        assert res.error_bound == 0

    def test_point_validation(self):
        spec = spec_r_plus()
        pts = pit_points(spec, 5, seed=1)
        for pt in pts:
            assert pt.assignment["a"] == pt.assignment["b"] * pt.assignment["c"]

    def test_minimum_point_count_enforced(self):
        with pytest.raises(RingError):
            pit_equal(poly_abc("a"), poly_abc("a"), count=3)

    def test_error_bound_reported(self):
        res = pit_equal(poly_abc("a*b*c"), poly_abc("a*b*c"), count=5)
        assert 0 < res.error_bound < Fraction(1, 10 ** 20)

    def test_agrees_with_exact_equality_on_random_pairs(self):
        import random

        rng = random.Random(4)
        for _ in range(200):
            terms_p = {tuple(rng.randint(-2, 2) for _ in ABC): Fraction(rng.randint(-4, 4))
                       for _ in range(rng.randint(0, 3))}
            p = LaurentPolynomial(ABC, terms_p)
            q = p if rng.random() < 0.5 else p + poly_abc("a - 2*b")
            assert pit_equal(p, q, seed=rng.randint(0, 10 ** 6)).equal == (p == q)
