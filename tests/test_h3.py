"""The cubic algebra on three strands: matrix models and exact identities."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from cubictrace import h3
from cubictrace.cli import main
from cubictrace.h3 import (
    H3Model,
    H3RepImage,
    WordSum,
    basis_b0,
    basis_b1,
    character_and_module_checks,
    check_cubic_and_braid,
    check_multiplicativity,
    check_r1_images,
    check_r2_conjugation,
    check_schur_identity,
    check_symmetric_difference_identities,
    check_twelve_term_identities,
    cleared_s_relator,
    gram_determinant_at_points,
    relator_r,
    schur_elements,
    trace_equations_check,
    twelve_term_relator,
    verify_identity,
)
from cubictrace.rings import (
    ABC,
    FREE,
    R_MINUS,
    R_PLUS,
    LaurentPolynomial,
    RingError,
    Specialization,
    _unpack,
    dagger_dagger,
    poly_abc,
)

# a = c kills the Schur factor a - c, so the embedding is not faithful here
DEGENERATE = {"a": Fraction(2), "b": Fraction(3), "c": Fraction(2)}

SPECIALIZATIONS = pytest.mark.parametrize(
    "spec", [FREE, R_PLUS, R_MINUS, dagger_dagger(1), dagger_dagger(-1)], ids=lambda s: s.name)


def _random_word_sums(seed: int, count: int = 6) -> list[WordSum]:
    """Seeded sums of up to six words of length <= 5, with small coefficients over R."""
    rng = random.Random(seed)
    letters = (1, -1, 2, -2)
    coeffs = ("1", "-2", "a", "b^-1*c", "a - 3*b*c", "1/2*a^2 + c^-1")
    return [WordSum.from_terms(
        (rng.choice(coeffs), tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))))
        for _ in range(rng.randint(1, 6))) for _ in range(count)]


def _matrices(image: H3RepImage) -> list[list[list]]:
    """Each block of the image as rows: polynomials over its variables, numbers at a point."""
    out = []
    for n, terms in zip(image.sizes, image.terms):
        entries: dict = {}
        for (i, j, m), c in terms.items():
            entries.setdefault((i, j), {})[m] = c
        out.append([[LaurentPolynomial._trusted(image.variables, entries.get((i, j), {}))
                     if image.variables else entries.get((i, j), {}).get(0, 0)
                     for j in range(n)] for i in range(n)])
    return out


def _term_maps(matrices: list[list[list]]) -> tuple[dict, ...]:
    """Each block's rows read into its term map {(row, column, packed monomial): coefficient}."""
    return tuple({(i, j, m): c for i, row in enumerate(rows) for j, x in enumerate(row)
                  for m, c in (x.terms.items() if isinstance(x, LaurentPolynomial)
                               else [(0, x)] if x else [])}
                 for rows in matrices)


def _product(x: list[list], y: list[list]) -> list[list]:
    """The row-list product x y, each entry summed one product at a time."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _scale_and_add(model: H3Model, expr: WordSum) -> list[list[list]]:
    """The image of expr as the sum of its word images, each scaled by its mapped coefficient."""
    acc = None
    for word, coeff in expr.coeffs.items():
        c = model.spec(coeff)
        scaled = [[[x * c for x in row] for row in m] for m in _matrices(model.word_image(word))]
        acc = scaled if acc is None else [[[p + q for p, q in zip(r, s)] for r, s in zip(m, n)]
                                          for m, n in zip(acc, scaled)]
    return acc


def _model_zoo() -> dict[str, H3Model]:
    """Every kind of model: the Laurent quotients, the character and the module
    images, and rational points, one with integral and one with non-integral coordinates."""
    models = {s.name: H3Model(s) for s in (FREE, R_PLUS, R_MINUS, dagger_dagger(1), dagger_dagger(-1))}
    models["Sa at Sdd(a=1)"] = H3Model(dagger_dagger(1), h3._character_images())
    for a in (1, -1):
        models[f"module at Sdd(a={a})"] = H3Model(dagger_dagger(a), h3._dim3_module_images())
    models["point"] = H3Model(h3.at_point(FREE.point(random.Random(23))))
    fractions = {"a": Fraction(-3, 7), "b": Fraction(5, 2), "c": Fraction(11, 4)}
    models["fraction point"] = H3Model(h3.at_point(fractions))
    return models


MODELS = _model_zoo()


def _matrix_product_image(model: H3Model, word) -> list[list[list]]:
    """The word's image as row-list products of its letters' mapped blocks, the identity if empty."""
    letters = [[[[model.spec(p) for p in row] for row in m] for m in _matrices(model.images[x])]
               for x in word]
    one, zero = (model.spec(p) for p in (LaurentPolynomial.one(ABC), LaurentPolynomial.zero(ABC)))
    return [reduce(_product, (blocks[b] for blocks in letters),
                   [[one if i == j else zero for j in range(n)] for i in range(n)])
            for b, n in enumerate(model.images[1].sizes)]


IDENTITY_EXPRS = [relator_r(1), relator_r(2), cleared_s_relator(False), cleared_s_relator(True),
                  *(twelve_term_relator(sign, primed) for sign in (1, -1) for primed in (False, True)),
                  *_random_word_sums(7)]


class TestMatrixModels:
    def test_cubic_and_braid_relations(self):
        assert all(check_cubic_and_braid().values())

    def test_multiplicativity(self):
        assert check_multiplicativity(pairs=200, seed=5)

    def test_r1_images_match_the_seven_displays(self):
        results = check_r1_images()
        assert len(results) == 7
        assert all(results.values()), results

    def test_index_swap_is_half_twist_conjugation(self):
        assert check_r2_conjugation()

    @pytest.mark.parametrize("name", MODELS)
    def test_letter_inverses_from_the_cubic(self, name):
        model = MODELS[name]
        for i in (1, 2):
            assert model.word_image((i, -i)) == model.identity_image()
            assert model.word_image((-i, i)) == model.identity_image()

    def test_faithfulness_guard(self):
        # a specialization killing a Schur element must raise, not return False
        # sends b - c to 0, killing p_{U_bc}
        bad = Specialization("b=c", ("a", "c"), {"b": LaurentPolynomial.parse("c", ("a", "c"))})
        with pytest.raises(RingError):
            verify_identity(WordSum.word((1,)), WordSum.word((1,)), H3Model(bad))

    @pytest.mark.parametrize("images", [h3._character_images(), h3._dim3_module_images()],
                             ids=["Sa", "module"])
    def test_verify_identity_refuses_other_images(self, images):
        # the Schur guard vouches only for the sum of the seven irreducibles
        with pytest.raises(RingError, match="seven irreducibles"):
            verify_identity(WordSum.word((1,)), WordSum.word((1,)), H3Model(FREE, images))

    @pytest.mark.parametrize("name", MODELS)
    def test_image_is_the_sum_of_scaled_word_images(self, name):
        model = MODELS[name]
        for expr in IDENTITY_EXPRS:
            want = _scale_and_add(model, expr)
            assert _matrices(model.image(expr)) == want
            assert model.image(expr).terms == _term_maps(want)
        assert model.image(WordSum({})).is_zero()

    @pytest.mark.parametrize("name", MODELS)
    def test_word_images_are_the_matrix_products_of_their_letters(self, name):
        model = MODELS[name]
        rng = random.Random(31)
        for _ in range(40):
            word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8)))
            want = _matrix_product_image(model, word)
            assert _matrices(model.word_image(word)) == want, word
            assert model.word_image(word).terms == _term_maps(want), word

    @pytest.mark.parametrize("name", MODELS)
    def test_letter_exponents_are_far_inside_the_packing_bound(self, name):
        # the overflow argument of the packing: no letter moves an exponent by more than 2
        model = MODELS[name]
        n = len(model.word_image((1,)).variables)
        for letter in (1, -1, 2, -2):
            for terms in model.word_image((letter,)).terms:
                assert all(abs(e) <= 2 for _, _, m in terms for e in _unpack(m, n))

    @pytest.mark.parametrize("word", [(3,), (1, 0), (2, -3, 1)])
    def test_letters_outside_three_strands_are_refused(self, word):
        model = H3Model()
        with pytest.raises(RingError, match="not in H_3"):
            model.word_image(word)
        with pytest.raises(RingError, match="not in H_3"):
            model.image(WordSum.word(word))


class TestPacking:
    @pytest.mark.parametrize("word", [(1, -2), (-1, 2, -1, 1, -2), (-2, -2, 1, 1, -1)])
    def test_a_word_with_zero_sum_exponents_is_its_matrix_product(self, word):
        # terms such as a b^-1 pack to a negative int, and a b^-1 times a^-1 b to 0:
        # each must decode to its own exponent vector
        model = H3Model()
        image = model.word_image(word)
        exps = [_unpack(m, 3) for terms in image.terms for _, _, m in terms]
        assert any(sum(e) == 0 and any(e) for e in exps), word
        assert any(min(e) < 0 for e in exps), word
        want = _matrix_product_image(model, word)
        assert _matrices(image) == want
        assert image.terms == _term_maps(want)


class TestIdealIdentities:
    def test_twelve_term_relators_lie_in_the_six_term_ideal(self):
        results = check_twelve_term_identities()
        assert all(results.values()), results

    def test_a_wrong_minus_quotient_fails_the_twelve_term_identities(self, monkeypatch):
        # R/(a + bc) replaced by a second copy of R/(a - bc)
        bc = ("b", "c")
        monkeypatch.setattr(h3, "R_MINUS",
                            Specialization("R-", bc, {"a": LaurentPolynomial.parse("b*c", bc)}))
        results = check_twelve_term_identities()
        assert not all(results.values()), results

    def test_symmetric_difference_identities(self):
        results = check_symmetric_difference_identities()
        assert all(results.values()), results


class TestSchur:
    def test_displayed_schur_elements(self):
        p = schur_elements()
        assert p["V"] == poly_abc("(b*c+a^2)*(a*b+c^2)*(a*c+b^2)") \
            * poly_abc("a^2*b^2*c^2").monomial_inverse()
        assert p["Sa"] == poly_abc(
            "(a-c)*(a^2-a*c+c^2)*(a-b)*(a^2-a*b+b^2)*(b*c+a^2)") \
            * poly_abc("b^4*c^4").monomial_inverse()
        assert p["Ubc"] == poly_abc("-(b^2+c^2-b*c)*(a-c)*(a-b)*(b*c+a^2)") \
            * poly_abc("a^4*b*c").monomial_inverse()

    def test_symmetrizing_decomposition_on_all_basis_words(self):
        results = check_schur_identity()
        assert len(results) == 24
        assert all(results.values())

    def test_bases_have_24_words(self):
        assert len(basis_b0()) == 24
        assert len(basis_b1()) == 24

    def test_gram_determinants_probabilistic(self):
        assert all(gram_determinant_at_points("B0", count=7, seed=23).values())
        assert all(gram_determinant_at_points("B1", count=7, seed=29).values())

    @pytest.mark.parametrize("basis", ["B2", "b0"])
    def test_unknown_basis_is_refused(self, basis):
        with pytest.raises(RingError, match=repr(basis)):
            gram_determinant_at_points(basis, count=1)

    @pytest.mark.parametrize("seed", [23, 29])
    def test_point_model_images_are_the_evaluated_free_images(self, seed):
        # the first point each Gram check draws; the point model maps only the generators
        pt = FREE.point(random.Random(seed))
        free, point = H3Model(), H3Model(h3.at_point(pt))
        for w in basis_b0() + basis_b1():
            assert point.word_image(w) == free.word_image(w).map(
                lambda p: LaurentPolynomial.constant(p.evaluate(pt), ())), w

    @pytest.mark.parametrize("basis, words, seed", [("B0", basis_b0(), 23), ("B1", basis_b1(), 29)])
    def test_integer_gram_kernel_matches_the_trace_sum(self, basis, words, seed):
        # the first point the Gram check draws, against sum_chi tr(u v) / p_chi over Fraction
        pt = FREE.point(random.Random(seed))
        schur_at = {k: p.evaluate(pt) for k, p in schur_elements().items()}
        model = H3Model(h3.at_point(pt))
        gram, symmetric = h3._gram_at([model.word_image(w) for w in words], schur_at)
        assert symmetric
        for i, j in ((0, 0), (1, 5), (5, 1), (7, 22), (22, 7), (23, 23)):
            u, v = _matrices(model.word_image(words[i])), _matrices(model.word_image(words[j]))
            want = sum((Fraction(sum(r[i] for i, r in enumerate(_product(x, y)))) / schur_at[k]
                        for k, x, y in zip(model.images[1].keys, u, v)), Fraction(0))
            assert gram[i][j] == want, (basis, i, j)

    def test_wrong_schur_element_fails_both_checks(self, monkeypatch):
        p = schur_elements()
        monkeypatch.setattr(h3, "schur_elements", lambda: {**p, "V": p["V"] * 2})
        assert not all(check_schur_identity().values())
        gram = gram_determinant_at_points("B0", count=1, seed=23)
        assert gram["B0 Gram det at point 0"] is False

    def test_a_schur_degenerate_draw_is_redrawn(self, monkeypatch):
        # a = c kills the Schur factor a - c; the check goes on to the seed's first point
        want = gram_determinant_at_points("B0", count=1, seed=23)
        draws = []
        real = Specialization.point

        def point(spec, rng, low=1):
            draws.append(spec)
            return DEGENERATE if len(draws) == 1 else real(spec, rng, low)

        monkeypatch.setattr(Specialization, "point", point)
        assert gram_determinant_at_points("B0", count=1, seed=23) == want
        assert len(draws) == 2 and all(want.values())

    def test_factor_missing_from_the_table_is_an_error(self, monkeypatch, capsys):
        # Lambda is read from a table without a*b+c^2; the Schur elements keep it
        p = schur_elements()
        monkeypatch.setattr(h3, "schur_elements", lambda: p)
        monkeypatch.setattr(h3, "SCHUR_TABLE", {
            k: (sign, tuple(f for f in factors if f != "a*b+c^2"), den)
            for k, (sign, factors, den) in h3.SCHUR_TABLE.items()})
        with pytest.raises(RingError, match="non-exact"):
            check_schur_identity()
        assert main(["verify", "--suite", "h3", "--pit-points", "1"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1
        assert "h3/schur decomposition" in failed[0] and "non-exact" in failed[0]


class TestTraceEquations:
    def test_report(self):
        rep = trace_equations_check(points=5, seed=97)
        assert rep.points_checked == 5
        assert rep.ok, rep

    def test_a_zero_third_form_fails(self, monkeypatch):
        # t(R_1 s_1) = 0 is a multiple of the expected form only by the scale 0
        real = h3._trace_forms

        def zero_third(model, point, exprs):
            forms = real(model, point, exprs)
            if forms is not None and len(exprs) == 3:
                forms[2] = [Fraction(0)] * 4
            return forms

        monkeypatch.setattr(h3, "_trace_forms", zero_third)
        rep = trace_equations_check(points=1, seed=97)
        assert not rep.r1s1_equation_matches and not rep.ok
        assert rep.first_equation_matches and rep.second_equation_matches

    @pytest.mark.parametrize("locus", [FREE, R_PLUS, R_MINUS, None],
                             ids=["R", "R+", "R-", "fraction point"])
    def test_block_traces_at_a_point_are_the_evaluated_traces(self, locus):
        rng = random.Random(53)
        model = H3Model()
        for _ in range(25):
            pt = locus.point(rng) if locus else \
                {"a": Fraction(-3, 7), "b": Fraction(5, 2), "c": Fraction(rng.randint(1, 9), 4)}
            word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8)))
            image = model.word_image(word)
            got = image.traces_at(pt)
            assert got == [t.evaluate(pt) for t in image.traces()], (word, pt)
            assert all(type(x) is Fraction for x in got)

    def test_block_traces_at_a_point_model_are_its_traces(self):
        model = MODELS["fraction point"]
        for word in basis_b1():
            image = model.word_image(word)
            assert image.traces_at({}) == image.traces(), word

    def test_scale_is_exact(self):
        # int forms divide exactly: never a float
        for form, expected, want in (([1, 3], [3, 9], Fraction(1, 3)), ([2, 6], [1, 3], 2),
                                     ([0, -5], [0, 2], Fraction(-5, 2))):
            s = h3._scale(form, expected)
            assert s == want and type(s) in (int, Fraction), (form, expected, s)
        assert h3._scale([1, 3], [1, 4]) is None
        assert h3._scale([0, 0], [1, 2]) is None
        assert h3._scale([1, 2], [0, 0]) is None

    def test_too_few_faithful_points_fail(self, monkeypatch):
        # only the first draw is faithful: Gram and the trace check stop after 10 draws per
        # point asked for, each specialized-vector check after 40
        draws = []
        real = Specialization.point

        def point(spec, rng, low=1):
            draws.append(spec)
            return real(spec, rng, low) if len(draws) == 1 else DEGENERATE

        monkeypatch.setattr(Specialization, "point", point)
        gram = gram_determinant_at_points("B0", count=2, seed=23)
        assert gram.pop("B0 faithful points (1 of 2)") is False
        assert all(gram.values()) and list(gram) == ["B0 Gram symmetric at point 0",
                                                     "B0 Gram det at point 0"]
        assert len(draws) == 20
        draws.clear()
        rep = trace_equations_check(points=2, seed=97)
        assert rep.points_checked == 1 and not rep.ok
        assert len(draws) == 20 + 40 + 40

    def test_no_sampled_check_passes_on_zero_points(self):
        assert not trace_equations_check(points=0).ok
        with pytest.raises(RingError):
            gram_determinant_at_points("B0", count=0)
        for pairs in (0, -3):
            with pytest.raises(RingError):
                check_multiplicativity(pairs)


class TestCharacterAndModule:
    def test_all(self):
        results = character_and_module_checks()
        assert all(results.values()), results

    def test_module_without_its_off_diagonal_entry_fails(self, monkeypatch):
        # s with its (1,2) entry zeroed still satisfies the cubic and kills R_1
        s = [["a", "0", "0"], ["0", "b", "1"], ["0", "0", "c"]]
        monkeypatch.setattr(h3, "_dim3_module_images", lambda: h3._letter_images({"M": (s, s)}))
        results = character_and_module_checks()
        assert not results["3-dim module: e-generator matrix"], results
        assert not results["3-dim module: sandwich matrices"], results


class TestRelators:
    @pytest.mark.parametrize("spec", [FREE, dagger_dagger(1), dagger_dagger(-1)],
                             ids=lambda s: s.name)
    def test_writhe_character_is_the_sa_block(self, spec):
        # the writhe character s_i -> a, displayed on its own, is the Sa block of the seven
        full, sa = H3Model(spec), H3Model(spec, h3._character_images())
        for expr in [relator_r(1), relator_r(2), *_random_word_sums(11)]:
            image = sa.image(expr)
            assert image.keys == ("Sa",) and image.block("Sa") == full.image(expr).block("Sa")

    def test_writhe_character_kills_relator_only_at_special_locus(self):
        # under the free spec, the s_i -> a character does NOT kill it; at bc = 1, a = +-1 it does
        for spec in (FREE, dagger_dagger(1), dagger_dagger(-1)):
            image = H3Model(spec, h3._character_images()).image(relator_r(1))
            assert image.is_zero() == (spec is not FREE), spec.name

    @SPECIALIZATIONS
    def test_relator_image_is_zero_in_quotient_reps(self, spec):
        model = H3Model(spec)
        image = model.image(relator_r(1))
        for key in ("Sb", "Sc", "Ubc", "V"):
            assert not image.block(key)
