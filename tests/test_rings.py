"""Exact arithmetic, the specializations of R, rendering and the a^2 = 1 fold."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictrace.qa import A, QA, specialize
from cubictrace.rings import (
    ABC,
    AX,
    R_MINUS,
    R_PLUS,
    LaurentPolynomial,
    RingError,
    dagger_dagger,
    fold_a,
    poly_abc,
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


def _is_a_fold(folded: LaurentPolynomial, p: LaurentPolynomial) -> bool:
    """folded has a-exponents 0 or 1 and equals p at a = 1 and at a = -1."""
    i = p.variables.index("a")
    if any(mono[i] not in (0, 1) for mono in folded.terms):
        return False
    rest = tuple(v for v in p.variables if v != "a")
    for a in (1, -1):
        at = {"a": LaurentPolynomial.constant(a, rest)}
        if folded.substitute(at, rest) != p.substitute(at, rest):
            return False
    return True


SPECIALIZATIONS = [R_PLUS, R_MINUS, dagger_dagger(1), dagger_dagger(-1)]


class TestQuotients:
    def test_a_squared_reduction(self):
        a_only = ("a",)
        for text, folded in (("a^2", "1"), ("a^-1", "a"), ("a^3 - 2*a^-2", "a - 2")):
            p = LaurentPolynomial.parse(text, a_only)
            assert fold_a(p) == LaurentPolynomial.parse(folded, a_only)
            assert _is_a_fold(fold_a(p), p)

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
        # each specialization is a ring map: additive and multiplicative
        import random

        rng = random.Random(0)
        for _ in range(500):
            terms_p = {tuple(rng.randint(-3, 3) for _ in ABC): Fraction(rng.randint(-5, 5))
                       for _ in range(rng.randint(0, 4))}
            terms_q = {tuple(rng.randint(-3, 3) for _ in ABC): Fraction(rng.randint(-5, 5))
                       for _ in range(rng.randint(0, 4))}
            p = LaurentPolynomial(ABC, terms_p)
            q = LaurentPolynomial(ABC, terms_q)
            for spec in SPECIALIZATIONS:
                assert spec(p * q) == spec(p) * spec(q)
                assert spec(p + q) == spec(p) + spec(q)

    @pytest.mark.parametrize("variables", [("a",), ("a", "x"), ("a", "x", "L")])
    def test_fold_a_matches_the_quotient_spec(self, variables):
        import random

        rng = random.Random(len(variables))
        for _ in range(300):
            terms = {tuple(rng.randint(-5, 5) for _ in variables): Fraction(rng.randint(-5, 5))
                     for _ in range(rng.randint(0, 6))}
            p = LaurentPolynomial(variables, terms)
            assert _is_a_fold(fold_a(p), p)

    def test_point_validation(self):
        import random

        rng = random.Random(1)
        for spec, sign in ((R_PLUS, 1), (R_MINUS, -1)):
            for _ in range(5):
                pt = spec.point(rng)
                assert pt["a"] == sign * pt["b"] * pt["c"]
        for a in (1, -1):
            for _ in range(5):
                pt = dagger_dagger(a).point(rng)
                assert pt["a"] == a and pt["b"] * pt["c"] == 1

    def test_dagger_dagger_takes_a_square_root_of_one(self):
        with pytest.raises(RingError):
            dagger_dagger(2)
