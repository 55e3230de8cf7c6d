"""Exact arithmetic, the specializations of R, rendering and the a^2 = 1 fold."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubictrace import rings
from cubictrace.braids import BraidWord
from cubictrace.burau import alexander_coefficients
from cubictrace.qa import A, QA, parse_qa, specialize
from cubictrace.rings import (
    ABC,
    AX,
    R_MINUS,
    R_PLUS,
    LaurentPolynomial,
    RingError,
    Specialization,
    dagger_dagger,
    evaluate_terms,
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
        items = p.sorted_terms()[::-1]
        rebuilt = LaurentPolynomial(p.variables, {})
        for mono, c in items:
            rebuilt = rebuilt + LaurentPolynomial(p.variables, {mono: c})
        assert rebuilt == p
        assert hash(rebuilt) == hash(p)
        assert rebuilt.render() == p.render()

    def test_a_constant_hashes_like_its_value(self):
        for value in (3, -1, Fraction(1, 2), Fraction(4, 2), 0):
            p = LaurentPolynomial.constant(value, AX)
            assert p == value and hash(p) == hash(value)
            assert len({p, value}) == 1
        assert LaurentPolynomial.zero(ABC) == 0 and len({LaurentPolynomial.zero(ABC), 0}) == 1
        assert len({LaurentPolynomial.constant(3, AX), poly_abc("3*a"), 3}) == 2

    def test_exact_division(self):
        p = poly_abc("(a^2-b*c)*(a+b)*(a+b)")
        q = poly_abc("a+b")
        assert p.exact_div(q) == poly_abc("(a^2-b*c)*(a+b)")
        with pytest.raises(RingError):
            poly_abc("a^2+b").exact_div(poly_abc("a+1"))

    def test_negative_power_division_by_monomial(self):
        p = poly_abc("a^2*b - a*b^2")
        assert p * poly_abc("a*b").monomial_inverse() == poly_abc("a - b")


class TestPacking:
    def test_unpack_inverts_pack(self):
        rng = random.Random(41)
        top = rings._HALF - 1
        values = (0, 1, -1, 2, -2, top, -top, top - 1, -top + 1)
        for _ in range(400):
            e = tuple(rng.choice(values) if rng.random() < 0.5 else rng.randint(-top, top)
                      for _ in range(rng.randint(0, 3)))
            assert rings._unpack(rings._pack(e), len(e)) == e, e
        for e in ((top, -top, top), (-top, top, -top), (-top,) * 3, (top,) * 3):
            assert rings._unpack(rings._pack(e), 3) == e

    @pytest.mark.parametrize("e", [(rings._HALF,), (-rings._HALF,), (0, rings._HALF),
                                   (1, 2, -rings._HALF), (-rings._HALF - 1, 0, 0)])
    def test_an_exponent_past_the_bound_is_refused(self, e):
        with pytest.raises(RingError, match="packing bound"):
            rings._pack(e)

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_packed_order_is_lex_with_the_last_variable_most_significant(self, nvars):
        # what exact division relies on: the order of the packed ints is a
        # translation-invariant monomial order, so lead(p q) = lead(p) + lead(q)
        rng = random.Random(43 + nvars)
        variables = ("a", "b", "c")[:nvars]
        top = rings._HALF - 1

        def vector(scale):
            return tuple(rng.choice((rng.randint(-3, 3), rng.randint(-scale, scale)))
                         for _ in range(nvars))

        for _ in range(300):
            e, f = vector(top), vector(top)
            assert (rings._pack(e) < rings._pack(f)) == (e[::-1] < f[::-1]), (e, f)
        for _ in range(100):
            p, q = (LaurentPolynomial(variables, {vector(2 ** 20): rng.randint(1, 5)
                                                  for _ in range(rng.randint(1, 5))})
                    for _ in range(2))
            lead = max((p * q).sorted_terms(), key=lambda t: t[0][::-1])[0]
            lead_p, lead_q = (max(x.sorted_terms(), key=lambda t: t[0][::-1])[0] for x in (p, q))
            assert lead == tuple(map(sum, zip(lead_p, lead_q))), (p, q)

    def test_a_product_or_power_past_the_bound_raises(self):
        xy = ("x", "y")
        with pytest.raises(RingError, match="packing bound"):
            LaurentPolynomial.var("x", xy, power=2 ** 31)
        with pytest.raises(RingError, match="packing bound"):
            LaurentPolynomial(xy, {(0, -2 ** 31): 1})
        with pytest.raises(RingError, match="packing bound"):
            LaurentPolynomial.parse("y^2147483648", xy)
        big = LaurentPolynomial.var("x", xy, power=2 ** 30)
        with pytest.raises(RingError, match="packing bound"):
            big ** 2
        with pytest.raises(RingError, match="packing bound"):
            big * (big + 1)
        with pytest.raises(RingError, match="packing bound"):
            big.monomial_inverse() * big.monomial_inverse()
        assert big * big.monomial_inverse() == 1
        assert big * LaurentPolynomial.var("x", xy, power=-2 ** 30) == 1
        # up to the bound itself; a square past the last bit of the power is not taken
        near = LaurentPolynomial.var("x", xy, power=2 ** 29)
        assert near ** 3 == LaurentPolynomial.var("x", xy, power=3 * 2 ** 29)
        edge = LaurentPolynomial.var("y", xy, power=2 ** 31 - 2)
        assert (edge * LaurentPolynomial.var("y", xy)).sorted_terms() == [((0, 2 ** 31 - 1), 1)]

    def test_a_division_whose_quotient_would_wrap_a_digit_raises(self):
        # x^-B y - x^B = x^B (x^2 - 1) once x^(B+2) wraps into x^-B y (B = 2^31 - 1),
        # so only the quotient's box tells that x^2 - 1 does not divide it
        xy = ("x", "y")
        bound = rings._HALF - 1
        p = LaurentPolynomial(xy, {(-bound, 1): 1, (bound, 0): -1})
        with pytest.raises(RingError, match="non-exact"):
            p.exact_div(LaurentPolynomial.parse("x^2 - 1", xy))
        # an exact quotient past the bound has no packed monomial either
        for variables in (("x",), xy):
            big = LaurentPolynomial.var("x", variables, bound)
            with pytest.raises(RingError, match="non-exact"):
                big.exact_div(big.monomial_inverse())
            assert (big * big.monomial_inverse()).exact_div(big) == big.monomial_inverse()


# A mix of ints, proper fractions and integral Fractions such as 4/2.
mixed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=3)),
)


@st.composite
def mixed_polys(draw, variables=("a", "b")):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {tuple(draw(exponents) for _ in variables): draw(mixed_coeffs) for _ in range(n)}
    return LaurentPolynomial(variables, terms)


def _canonical(p: LaurentPolynomial) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


def _all_fractions(p: LaurentPolynomial) -> LaurentPolynomial:
    """p with every coefficient stored as a Fraction, bypassing canonicalization."""
    return LaurentPolynomial._trusted(p.variables, {m: Fraction(c) for m, c in p.terms.items()})


class TestCanonicalCoefficients:
    OPS = {
        "add": lambda p, q, m, n: p + q,
        "sub": lambda p, q, m, n: p - q,
        "neg": lambda p, q, m, n: -p,
        "mul": lambda p, q, m, n: p * q,
        "scale": lambda p, q, m, n: p * Fraction(4, 2) - Fraction(1, 2) * q + 3,
        "pow": lambda p, q, m, n: p ** n,
        "exact_div": lambda p, q, m, n: (p * m * q).exact_div(m * q) if q else p,
        "monomial_inverse": lambda p, q, m, n: m.monomial_inverse(),
        "negative_pow": lambda p, q, m, n: m ** -n,
        "substitute": lambda p, q, m, n: p.substitute({"a": m}, p.variables),
        "fold_a": lambda p, q, m, n: fold_a(p * q),
    }

    @given(mixed_polys(), mixed_polys(), mixed_coeffs.filter(bool),
           st.tuples(exponents, exponents), st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_results_are_canonical_and_match_all_fraction_inputs(self, p, q, c, mono, n):
        m = LaurentPolynomial(p.variables, {mono: c})
        assert _canonical(p) and _canonical(q) and _canonical(m)
        fractions = [_all_fractions(x) for x in (p, q, m)]
        for name, op in self.OPS.items():
            got = op(p, q, m, n)
            ref = op(*fractions, n)
            assert _canonical(got), name
            assert got == ref and hash(got) == hash(ref), name
        assert self.OPS["exact_div"](p, q, m, n) == p

    @given(mixed_polys(), mixed_polys())
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_agrees_with_evaluation(self, p, q):
        point = {"a": Fraction(-2), "b": Fraction(3, 5)}
        p_at, q_at = p.evaluate(point), q.evaluate(point)
        assert (p + q).evaluate(point) == p_at + q_at
        assert (p - q).evaluate(point) == p_at - q_at
        assert (p * q).evaluate(point) == p_at * q_at

    def test_constructor_canonicalizes_and_rejects_floats(self):
        p = LaurentPolynomial(("a",), {(1,): Fraction(4, 2), (0,): True, (2,): Fraction(1, 3)})
        assert [type(c) for _, c in p.sorted_terms()] == [int, int, Fraction]
        assert p.render() == "1 + 2*a + 1/3*a^2"
        with pytest.raises(RingError):
            LaurentPolynomial(("a",), {(1,): 0.5})
        with pytest.raises(RingError):
            LaurentPolynomial.constant(2.0, ("a",))

    def test_exact_division_over_the_integers_stays_integral(self):
        a_only = ("a",)
        two = LaurentPolynomial.constant(2, a_only)
        for num, den, quo in (("2*a + 4", two, "a + 2"),
                              ("a^2 - 1", LaurentPolynomial.parse("a - 1", a_only), "a + 1"),
                              ("a^-1 - a^3", LaurentPolynomial.parse("a^-1 + a", a_only), "1 - a^2")):
            got = LaurentPolynomial.parse(num, a_only).exact_div(den)
            assert got == LaurentPolynomial.parse(quo, a_only)
            assert all(type(c) is int for c in got.terms.values())
        half = LaurentPolynomial.parse("a - 1", a_only).exact_div(two)
        assert half.sorted_terms() == [((0,), Fraction(-1, 2)), ((1,), Fraction(1, 2))]
        with pytest.raises(RingError):
            LaurentPolynomial.parse("a^2 + 1", a_only).exact_div(LaurentPolynomial.parse("a - 1", a_only))

    def test_alexander_coefficients_of_two_knots(self):
        # Bareiss over Z[t, t^-1] divides exactly at every step
        assert alexander_coefficients(BraidWord(3, (1, -2, 1, -2))) == (1, -3, 1)
        assert alexander_coefficients(BraidWord(2, (1, 1, 1))) == (1, -1, 1)


def _evaluate_by_powers(p: LaurentPolynomial, point) -> Fraction:
    """The value at a point as a sum of Fraction powers, term by term: the reference."""
    total = Fraction(0)
    vals = [Fraction(point[v]) for v in p.variables]
    for mono, coeff in p.sorted_terms():
        acc = coeff
        for val, e in zip(vals, mono):
            if e:
                acc *= val ** e
        total += acc
    return total


class TestEvaluate:
    VARIABLES = (("t",), ("a", "x"), ABC)

    @staticmethod
    def _random_poly(rng: random.Random, variables) -> LaurentPolynomial:
        def coeff():
            return rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])

        return LaurentPolynomial(variables, {tuple(rng.randint(-5, 5) for _ in variables): coeff()
                                             for _ in range(rng.randint(0, 6))})

    @staticmethod
    def _random_coordinate(rng: random.Random):
        value = rng.choice([0, 1, -1]) if rng.random() < 0.2 else rng.randint(-30, 30)
        return value if rng.random() < 0.5 else Fraction(value, rng.randint(1, 9))

    @pytest.mark.parametrize("seed", range(4))
    def test_power_tables_match_the_fraction_powers(self, seed):
        rng = random.Random(seed)
        checked = 0
        for _ in range(150):
            variables = rng.choice(self.VARIABLES)
            p = self._random_poly(rng, variables)
            point = {v: self._random_coordinate(rng) for v in variables}
            if any(point[v] == 0 and any(m[i] < 0 for m, _ in p.sorted_terms())
                   for i, v in enumerate(variables)):
                continue
            got = p.evaluate(point)
            assert type(got) is Fraction and got == _evaluate_by_powers(p, point), (p, point)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("seed", range(4))
    def test_one_table_for_several_lists_matches_evaluate(self, seed):
        # the shared tables span every list's exponents; each value is its list's own
        rng = random.Random(seed)
        checked = 0
        for _ in range(60):
            variables = rng.choice(self.VARIABLES)
            polys = [self._random_poly(rng, variables) for _ in range(rng.randint(1, 7))]
            point = {v: self._random_coordinate(rng) for v in variables}
            if any(point[v] == 0 and any(m[i] < 0 for p in polys for m, _ in p.sorted_terms())
                   for i, v in enumerate(variables)):
                continue
            got = evaluate_terms(variables, [p.terms.items() for p in polys], point)
            assert got == [p.evaluate(point) for p in polys] \
                == [_evaluate_by_powers(p, point) for p in polys], (polys, point)
            assert all(type(x) is Fraction for x in got)
            checked += 1
        assert checked > 30

    def test_one_table_keeps_the_refusals_and_the_zero_lists(self):
        ab = ("a", "b")
        p = LaurentPolynomial.parse("a^-2*b + 3", ab)
        with pytest.raises(RingError, match="divides by zero"):
            evaluate_terms(ab, [LaurentPolynomial.one(ab).terms.items(), p.terms.items()],
                           {"a": 0, "b": 1})
        with pytest.raises(RingError, match="'a'"):
            evaluate_terms(ab, [{}.items()], {"b": 1})
        assert evaluate_terms(ab, [{}.items(), {}.items()], {"a": 2, "b": 3}) == [0, 0]
        assert evaluate_terms(ab, [{}.items(), p.terms.items()], {"a": 2, "b": 3}) \
            == [0, Fraction(15, 4)]
        assert evaluate_terms((), [[(0, Fraction(1, 2))], [(0, -3)]], {}) == [Fraction(1, 2), -3]

    def test_burau_sized_polynomials_at_minus_one(self):
        t = ("t",)
        for terms in ({(3,): 1}, {(-2,): -1}, {(0,): 1, (-1,): -1}, {(0,): 2}, {}):
            p = LaurentPolynomial(t, terms)
            assert p.evaluate({"t": Fraction(-1)}) == _evaluate_by_powers(p, {"t": -1})

    def test_a_wide_exponent_span_costs_its_distinct_exponents(self):
        # a table over the whole span from x^-20000 to x^20000 took 13.8 s and 264 MiB
        p = LaurentPolynomial(("x",), {(20000,): 1, (-20000,): 1})
        start = time.perf_counter()
        got = p.evaluate({"x": Fraction(3, 2)})
        assert time.perf_counter() - start < 0.1
        assert got == Fraction(3, 2) ** 20000 + Fraction(3, 2) ** -20000

    def test_zero_to_a_negative_power_is_refused(self):
        p = LaurentPolynomial.parse("a^-2*b + 3", ("a", "b"))
        with pytest.raises(RingError, match="divides by zero"):
            p.evaluate({"a": 0, "b": 1})
        assert LaurentPolynomial.parse("a^2*b + 3", ("a", "b")).evaluate({"a": 0, "b": 5}) == 3

    @pytest.mark.parametrize("p", [LaurentPolynomial.zero(("a",)), LaurentPolynomial.one(("a",)),
                                   LaurentPolynomial.parse("a + b", ("a", "b"))])
    def test_a_missing_coordinate_is_refused_by_name(self, p):
        with pytest.raises(RingError, match="'a'"):
            p.evaluate({"b": 1})


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



class TestParsingBounds:
    """Outside text cannot make the parser recurse or multiply without bound."""

    NEST, POWER = rings._Parser.MAX_NESTING, rings._Parser.MAX_POWER

    def _parse(self, text):
        return LaurentPolynomial.parse(text, AX)

    def test_nesting_is_bounded(self):
        assert self._parse("(" * self.NEST + "a" + ")" * self.NEST) == self._parse("a")
        for depth in (self.NEST + 1, 3000):
            with pytest.raises(RingError, match="nest deeper"):
                self._parse("(" * depth + "a" + ")" * depth)
        # unary signs are a loop, not a recursion
        assert self._parse("1*" + "-" * 5001 + "a") == self._parse("-a")

    @pytest.mark.parametrize("text, ok", [
        (f"(a+1)^{POWER}", True), (f"(a+1)^{POWER + 1}", False), ("(a+1)^8000", False),
        ("((a+1)^8)^8", True), ("((a+1)^8)^9", False), ("(a+1)^8^9", False),
        ("(a-x)^32", True), ("(a^2-x)^33", False), ("(a+1)^0", True),
        ("2^32", True), ("2^33", False), ("(1/2)^33", False), ("(2*a)^33", False),
        ("(-a)^2147483647", True), ("x^2147483647*a^-2147483647", True), ("0^9999", True),
    ])
    def test_a_power_wider_than_the_bound_is_refused(self, text, ok):
        if ok:
            self._parse(text)
        else:
            with pytest.raises(RingError, match="wider than"):
                self._parse(text)

    def test_the_products_of_one_text_are_bounded(self):
        work = rings._Parser.MAX_WORK
        with pytest.raises(RingError, match="pairs of terms"):
            self._parse("*".join(["(a+1)^64"] * 100))
        with pytest.raises(RingError, match="pairs of terms"):
            self._parse("*".join(["a"] * (work + 2)))
        assert self._parse("*".join(["a"] * (work + 1))) == self._parse(f"a^{work + 1}")
        # a sum of bounded powers is linear in the text
        assert self._parse("+".join(["(a+1)^64"] * 100)) == self._parse("100*(a+1)^64")

    @pytest.mark.parametrize("text, message", [
        ("a^2147483648", "packing bound"), ("a^" + "9" * 5000, "too long"),
        ("9" * 5000 + "*a", "too long"),
    ])
    def test_a_monomial_power_is_bounded_by_the_packing(self, text, message):
        with pytest.raises(RingError, match=message):
            self._parse(text)


def _is_a_fold(folded: LaurentPolynomial, p: LaurentPolynomial) -> bool:
    """folded has a-exponents 0 or 1 and equals p at a = 1 and at a = -1."""
    i = p.variables.index("a")
    if any(mono[i] not in (0, 1) for mono, _ in folded.sorted_terms()):
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

    @given(mixed_polys(ABC), st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_image_takes_the_value_of_p_at_every_point_of_the_locus(self, p, seed):
        # evaluation is the independent oracle for the monomial map
        import random

        rng = random.Random(seed)
        for spec in SPECIALIZATIONS:
            pt = spec.point(rng)
            assert spec(p).evaluate(pt) == p.evaluate(pt), spec.name

    @pytest.mark.parametrize("image", ["b + c", "b*c + 1", "0"])
    def test_a_non_monomial_image_is_refused(self, image):
        bc = ("b", "c")
        with pytest.raises(RingError, match="not a unit monomial"):
            Specialization("bad", bc, {"a": LaurentPolynomial.parse(image, bc)})
        with pytest.raises(RingError, match="not a unit monomial"):
            poly_abc("a*b + c").substitute({"a": LaurentPolynomial.parse(image, bc)}, bc)

    def test_an_unmapped_variable_missing_from_the_target_is_refused(self):
        # c is neither mapped nor among the target variables
        ab = ("a", "b")
        b = LaurentPolynomial.var("b", ab)
        with pytest.raises(RingError, match="unmapped variable 'c'"):
            Specialization("bad", ab, {"a": b})
        with pytest.raises(RingError, match="unmapped variable 'c'"):
            poly_abc("a + c").substitute({"a": b}, ab)
        # a monomial with a rational coefficient is a unit, and its powers stay exact
        half = LaurentPolynomial.parse("1/2*b", ab)
        assert poly_abc("a^-2*b").substitute({"a": half, "c": b}, ab) \
            == LaurentPolynomial.parse("4*b^-1", ab)


qa_elements = st.builds(QA, mixed_coeffs, mixed_coeffs)


def _uv(x: QA) -> tuple[Fraction, Fraction]:
    """(u, v) with x = u + v*a, read from `to_poly`."""
    terms = dict(x.to_poly().sorted_terms())
    return Fraction(terms.get((0,), 0)), Fraction(terms.get((1,), 0))


class TestQA:
    """`QA`, stored as its values at a = +-1, against the u + v*a formulas."""

    @given(mixed_coeffs, mixed_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_constructor_round_trip_and_values(self, u, v):
        x = QA(u, v)
        assert _uv(x) == (u, v)
        assert (x.at(1), x.at(-1)) == (u + v, u - v)
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                   for c in (x.at(1), x.at(-1)))

    @given(qa_elements, qa_elements)
    @settings(max_examples=80, deadline=None)
    def test_sum_and_product(self, x, y):
        (u, v), (s, t) = _uv(x), _uv(y)
        assert _uv(x + y) == (u + s, v + t)
        assert _uv(x - y) == (u - s, v - t)
        assert _uv(x * y) == (u * s + v * t, u * t + v * s)

    @given(qa_elements)
    @settings(max_examples=80, deadline=None)
    def test_inverse_of_a_unit(self, x):
        u, v = _uv(x)
        norm = u * u - v * v  # (u + v a)(u - v a)
        assert x.is_unit() == (norm != 0)
        if norm:
            assert _uv(x.inverse()) == (u / norm, -v / norm)
        else:
            with pytest.raises(RingError):
                x.inverse()

    @given(qa_elements)
    @settings(max_examples=80, deadline=None)
    def test_parse_of_str_is_the_identity(self, x):
        assert parse_qa(str(x)) == x

    def test_a_free_element_hashes_like_its_value(self):
        for value in (3, 0, -1, Fraction(1, 2)):
            assert QA(value) == value
            assert hash(QA(value)) == hash(value)
            assert len({QA(value), value}) == 1
        assert len({QA(0, 1), QA(1, 0), QA(0, 1)}) == 2

    def test_inexact_input_is_refused(self):
        for bad in (0.1, "1/2", 1.0):
            with pytest.raises(RingError):
                QA(bad)
            with pytest.raises(RingError):
                QA(0, bad)
            with pytest.raises(RingError):
                QA(1) + bad
        assert QA(True) == QA(1) and type(QA(True).at(1)) is int

    def test_evaluate_refuses_an_inexact_point(self):
        p = LaurentPolynomial.parse("a^-1 + 2*x", AX)
        assert p.evaluate({"a": 2, "x": Fraction(1, 4)}) == 1
        for bad in ({"a": 0.5, "x": 1}, {"a": 2, "x": "1/4"}):
            with pytest.raises(RingError):
                p.evaluate(bad)
