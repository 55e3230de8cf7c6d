"""The cubic Hecke algebra on three strands, through explicit matrix models.

H_3 is the quotient of the braid group algebra Q[a,b,c,(abc)^-1] B_3 by the
cubic (s_i - a)(s_i - b)(s_i - c) = 0.  It is semisimple over the fraction
field with seven irreducibles: three characters S_a, S_b, S_c, three
2-dimensional representations U_ab, U_ac, U_bc and one 3-dimensional V.
The direct sum of the seven matrix models embeds H_3 into a 24-dimensional
matrix algebra, and that embedding stays injective under any specialization
keeping all Schur elements nonzero.  Every identity-checking routine in
this module decides equality through that embedding; no basis rewriting is
ever performed.  A specialization (`rings.Specialization`) is a ring map
into a Laurent ring: the blocks are mapped once and multiplied there, and
the ring with a^2 = 1 is checked as its two points a = 1 and a = -1.  A
rational point (`at_point`) is one more ring map, into Q, and the Gram
check builds one model per point.  Each family of generator images (the
seven irreducibles, the writhe character, the 3-dimensional module) is read
from its display of s_1 and s_2 straight into term maps, once per process
on first use; each inverse letter is the image of the defining cubic solved
for it, s_i^-1 = (abc)^-1 (s_i^2 - (a+b+c) s_i + (ab+ac+bc)).  The Schur
elements are built once per process too.  An image stores each block as
one sparse term map {(row, column, m): coefficient} over the target ring
(`H3RepImage`), where m is the packed int that keys a monomial in
`LaurentPolynomial.terms`, so the monomial of a product is an int sum and
this module never packs or unpacks one.  A product of word images, the
image of a linear combination and a check against a displayed block each
work on term maps, with no polynomial or matrix object per entry.  The
Markov-trace forms evaluate a word's seven block traces at the point with
one power table per variable (`rings.evaluate_terms`) and combine them
there.  The Gram and trace-equation checks draw their points from one
sampler, which redraws a point where a Schur element vanishes, so every
point they count is faithful.

Checked here, exactly and symbolically unless noted:

* cubic/braid relations and multiplicativity of the embedding;
* the images of the six-term relator under all seven representations;
* the two twelve-term relators of each Kauffman-variant quotient as left
  multiples of the six-term relator (in the rings R/(a -+ bc));
* the symmetric-difference identities relating e_1 s_2 e_1 - e_1 and its
  s_2^-1 and conjugated variants (in the ring with bc = 1, a^2 = 1);
* the symmetrizing form: Gram matrices of both 24-element bases, with
  determinants -(abc)^54 and -(abc)^2, at seeded rational points; at each
  point the Schur denominators are cleared once, by the lcm of the Schur
  numerators, so every Gram entry is an integer dot product;
* the Schur element table and the trace decomposition t_0 = sum tr/p,
  cleared symbolically by Lambda, the product of the nine distinct Schur
  factors, instead of the product of all seven Schur elements;
* the linear equations cutting out the 4-dimensional space of Markov
  trace restrictions, solved at random points with formal trace unknowns,
  each form compared with its expected one up to a nonzero scale;
* the one-dimensional character s_i -> a and the 3-dimensional
  upper-triangular module that witnesses the central extension.  Both are
  `H3Model`s on their own one-block displays, in which s_1 and s_2 act by
  the same 1x1 matrix (a) and the same 3x3 matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .combination import Combination
from .linalg import det_bareiss, dot, eliminate
from .rings import (
    ABC,
    FREE,
    R_MINUS,
    R_PLUS,
    Coefficient,
    LaurentPolynomial,
    RingError,
    _clean,
    dagger_dagger,
    evaluate_terms,
    fold_a,
    poly_abc,
)

Word = tuple[int, ...]

# -- formal linear combinations of braid words --------------------------------


class WordSum(Combination):
    """Finite formal sum of words in s_1^+-1, s_2^+-1 with Laurent coefficients."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[str | Fraction | int | LaurentPolynomial, Word]]) -> "WordSum":
        def coefficient(c) -> LaurentPolynomial:
            if isinstance(c, str):
                return poly_abc(c)
            if isinstance(c, (int, Fraction)):
                return LaurentPolynomial.constant(c, ABC)
            return c

        return cls.collect((tuple(word), coefficient(coeff)) for coeff, word in terms)

    @classmethod
    def word(cls, word: Word, coeff=1) -> "WordSum":
        return cls.from_terms([(coeff, word)])

    def __mul__(self, other: "WordSum") -> "WordSum":
        return WordSum.collect((w1 + w2, c1 * c2)
                               for w1, c1 in self.coeffs.items()
                               for w2, c2 in other.coeffs.items())

    def conjugated_by(self, word: Word) -> "WordSum":
        inv = _inverse_word(word)
        return WordSum({tuple(word) + w + inv: c for w, c in self.coeffs.items()})


def _inverse_word(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


# -- the matrix models --------------------------------------------------------


# `_sum_of_products` adds packed monomials without the bound check of
# `rings`: no letter moves an exponent by more than 2, so only a word of more
# than 10^9 letters could leave the bound.
Block = dict[tuple[int, int, int], Coefficient]  # (row, column, packed monomial) -> coefficient
# a block's terms by row: row -> [(column, packed monomial, coefficient)]
Rows = dict[int, list[tuple[int, int, Coefficient]]]


@cache
def _generator_images() -> dict[int, "H3RepImage"]:
    """Images of s_1^+-1, s_2^+-1 in the seven irreducible representations.

    Built over Q[a,b,c,(abc)^-1] once per process, on first use.
    """
    displays: dict = {key: ([[r]], [[r]]) for key, r in (("Sa", "a"), ("Sb", "b"), ("Sc", "c"))}
    for key, (al, be) in (("Uab", ("a", "b")), ("Uac", ("a", "c")), ("Ubc", ("b", "c"))):
        displays[key] = ([[al, "0"], [f"-{al}", be]], [[be, be], ["0", al]])
    displays["V"] = ([["c", "0", "0"], ["a*c+b^2", "b", "0"], ["b", "1", "a"]],
                     [["a", "-1", "b"], ["0", "b", "-a*c-b^2"], ["0", "0", "c"]])
    return _letter_images(displays)


@cache
def _character_images() -> dict[int, "H3RepImage"]:
    """The writhe character: s_1 and s_2 both act by a, once per process."""
    return _letter_images({"Sa": ([["a"]], [["a"]])})


@cache
def _dim3_module_images() -> dict[int, "H3RepImage"]:
    """The upper-triangular module: s_1 and s_2 both act by s, once per process."""
    s = [["a", "1", "0"], ["0", "b", "1"], ["0", "0", "c"]]
    return _letter_images({"M": (s, s)})


def _letter_images(displays: Mapping[str, tuple]) -> dict[int, "H3RepImage"]:
    """Images of s_1^+-1, s_2^+-1 over R from each block's displayed pair (s_1, s_2),
    two matrices of polynomial texts.

    Every block satisfies the defining cubic, so s_i^-1 is the image of
    `letter_inverse(i)` under the positive letters.
    """
    keys = tuple(displays)
    sizes = tuple(len(s1) for s1, _ in displays.values())
    images = {i: H3RepImage(ABC, keys, sizes, [_block(pair[i - 1]) for pair in displays.values()])
              for i in (1, 2)}
    positive = H3Model(FREE, images)
    return {**images, **{-i: positive.image(letter_inverse(i)) for i in (1, 2)}}


def _block(rows: Sequence[Sequence]) -> Block:
    """The term map of a displayed block; an entry is a polynomial or the text of one over R."""
    return {(i, j, m): c for i, row in enumerate(rows) for j, x in enumerate(row)
            for m, c in (poly_abc(x) if isinstance(x, str) else x).terms.items()}


class H3RepImage:
    """Image of an element of H_3 under the direct sum of a model's blocks.

    Each block (`block(key)`) is one sparse term map {(row, column, m):
    coefficient} over `variables`: the entry at (row, column) is the
    polynomial whose `LaurentPolynomial.terms` are {m: c}, so products add
    the packed monomials and an entry's terms become a polynomial as they
    are.  A rational point (`at_point`) has no variables, so every m is 0.
    Coefficients are canonical and no term is zero, so two images are equal
    exactly when their term maps are.
    """

    __slots__ = ("variables", "keys", "sizes", "terms", "_rows")

    def __init__(self, variables: tuple[str, ...], keys: tuple[str, ...],
                 sizes: tuple[int, ...], terms: Iterable[Block]):
        self.variables, self.keys, self.sizes = variables, keys, sizes
        self.terms = tuple(terms)
        self._rows = None

    def _like(self, terms: Iterable[Block]) -> "H3RepImage":
        """An image with this one's variables and blocks, and the given term maps."""
        return H3RepImage(self.variables, self.keys, self.sizes, terms)

    def block(self, key: str) -> Block:
        return self.terms[self.keys.index(key)]

    def _diagonal_sums(self) -> list[dict[int, Coefficient]]:
        """Each block's trace as {packed monomial: coefficient}."""
        out = []
        for terms in self.terms:
            acc: dict[int, Coefficient] = {}
            for (i, j, m), c in terms.items():
                if i == j:
                    acc[m] = acc.get(m, 0) + c
            out.append(_clean(acc))
        return out

    def traces(self) -> list[LaurentPolynomial]:
        """Each block's trace, a polynomial over `variables` (over none at a point)."""
        return [LaurentPolynomial._trusted(self.variables, acc) for acc in self._diagonal_sums()]

    def traces_at(self, point: Mapping[str, Fraction]) -> list[Fraction]:
        """Each block's trace evaluated at a rational point, by one `evaluate_terms`
        call: one power table per variable for all the blocks, and no polynomial."""
        return evaluate_terms(self.variables, [acc.items() for acc in self._diagonal_sums()], point)

    def _row_groups(self) -> tuple[Rows, ...]:
        """Each block's terms grouped by row, as a right factor needs them; kept,
        since a model's letter images are the right factor of every word product."""
        if self._rows is None:
            self._rows = tuple({} for _ in self.terms)
            for rows, terms in zip(self._rows, self.terms):
                for (j, k, m), c in terms.items():
                    rows.setdefault(j, []).append((k, m, c))
        return self._rows

    def __mul__(self, other: "H3RepImage") -> "H3RepImage":
        pairs = zip(self.terms, other._row_groups())
        return self._like(_sum_of_products([pair]) for pair in pairs)

    def map(self, f: Callable) -> "H3RepImage":
        """The image with f applied to every entry; f maps 0 into its target ring."""
        zero = f(LaurentPolynomial.zero(self.variables))
        blocks = []
        for terms in self.terms:
            entries: dict[tuple[int, int], dict[int, Coefficient]] = {}
            for (i, j, m), c in terms.items():
                entries.setdefault((i, j), {})[m] = c
            blocks.append({(i, j, m): c for (i, j), entry in entries.items()
                           for m, c in f(LaurentPolynomial._trusted(self.variables,
                                                                    entry)).terms.items()})
        return H3RepImage(zero.variables, self.keys, self.sizes, blocks)

    def is_zero(self) -> bool:
        return not any(self.terms)

    def __eq__(self, other):
        if not isinstance(other, H3RepImage):
            return NotImplemented
        return (self.variables, self.keys, self.sizes, self.terms) == \
            (other.variables, other.keys, other.sizes, other.terms)

    def __repr__(self):
        return f"H3RepImage({self.variables!r}, {self.keys!r}, {self.sizes!r}, {self.terms!r})"


def _scalar_rows(n: int, terms: Iterable[tuple[int, Coefficient]]) -> Rows:
    """The rows of c times the n x n identity, for c with the given terms."""
    return {i: [(i, m, c) for m, c in terms] for i in range(n)}


def _sum_of_products(pairs: Iterable[tuple[Block, Rows]]) -> Block:
    """The sum of the matrix products x y over the pairs of blocks, with y
    grouped by row, as one accumulation: each term of x meets the terms of
    y in the row named by its column, and every product goes into one term map."""
    acc: dict = {}
    get = acc.get
    for x, rows in pairs:
        for (i, j, m1), c1 in x.items():
            for k, m2, c2 in rows.get(j, ()):
                key = (i, k, m1 + m2)
                acc[key] = get(key, 0) + c1 * c2
    return _clean(acc)


RingMap = Callable[[LaurentPolynomial], LaurentPolynomial]


class H3Model:
    """Matrix models of H_3 under a ring map from Q[a,b,c,(abc)^-1].

    The map is a `Specialization` into a Laurent ring, or a rational point
    (`at_point`) into Q.  `images` are the generator images over R; the
    default is the seven irreducibles.  The generator blocks are mapped
    once; products and linear combinations are then taken on the term maps
    (`H3RepImage`) in the target ring, where they are canonical.
    """

    def __init__(self, spec: RingMap = FREE, images: Mapping[int, H3RepImage] | None = None):
        self.spec = spec
        self.images = _generator_images() if images is None else images
        self._letter = {letter: image.map(spec) for letter, image in self.images.items()}
        self._word_cache: dict[Word, H3RepImage] = {}
        self._one = spec(LaurentPolynomial.one(ABC)).terms.items()

    def identity_image(self) -> H3RepImage:
        one = self._letter[1]
        return one._like({(i, i, m): c for i in range(n) for m, c in self._one} for n in one.sizes)

    def word_image(self, word: Word) -> H3RepImage:
        word = tuple(word)
        image = self._word_cache.get(word)
        if image is not None:
            return image
        if not word:
            image = self.identity_image()
        elif word[-1] not in self._letter:
            raise RingError(f"letter {word[-1]!r} is none of s_1^+-1, s_2^+-1 (1, -1, 2, -2): "
                            "words on more than 3 strands are not in H_3")
        else:
            image = self.word_image(word[:-1]) * self._letter[word[-1]]
        self._word_cache[word] = image
        return image

    def image(self, expr: WordSum) -> H3RepImage:
        """Image of a formal linear combination; multiplicative and linear.

        Each block is one accumulation of the word images' blocks times
        their mapped coefficients (`_sum_of_products`).
        """
        one = self._letter[1]
        # c times the identity at the largest block size serves every block,
        # whose terms name only its own columns
        n = max(one.sizes)
        scaled = [(self.word_image(w), _scalar_rows(n, self.spec(c).terms.items()))
                  for w, c in expr.coeffs.items()]
        return one._like(_sum_of_products((image.terms[b], rows) for image, rows in scaled)
                         for b in range(len(one.keys)))

    @cached_property
    def schur_values_nonzero(self) -> bool:
        """Faithfulness guard: all Schur elements nonzero under the spec."""
        return all(self.spec(p) for p in schur_elements().values())


def at_point(point: dict[str, Fraction]) -> RingMap:
    """The ring map R -> Q, the Laurent ring over no variables, at a rational point."""
    return lambda p: LaurentPolynomial.constant(p.evaluate(point), ())


def verify_identity(lhs: WordSum, rhs: WordSum, model: H3Model) -> bool:
    """Equality in the specialized H_3, decided through the model's embedding.

    Raises RingError with a diagnostic if the model's ring map kills a
    Schur element, or its images are not the seven irreducibles, because
    then the embedding is not injective and a negative answer is meaningless.
    """
    if model.images is not _generator_images():
        raise RingError("the model maps other images than the seven irreducibles; "
                        "only their sum is a faithful embedding")
    if not model.schur_values_nonzero:
        raise RingError(
            f"spec {getattr(model.spec, 'name', 'at_point')!r} kills a Schur element; "
            "the matrix embedding is not faithful there"
        )
    return model.image(lhs) == model.image(rhs)


# -- relators ------------------------------------------------------------------


def relator_r(i: int = 1) -> WordSum:
    """The six-term relator, for i = 1 or its index swap for i = 2.

    -y s_i s_j^-1 s_i + y^2 s_j^-1 s_i s_j^-1 - s_i s_j s_i
    - x y^2 s_j^-2 + x s_i^2 + y^3 s_i^-1 s_j^-1 s_i^-1,   (j = 3 - i).
    """
    if i not in (1, 2):
        raise RingError("only two generators on three strands")
    j = 3 - i
    return WordSum.from_terms([
        ("-b*c", (i, -j, i)),
        ("b^2*c^2", (-j, i, -j)),
        (-1, (i, j, i)),
        ("-b^2*c^2*b-b^2*c^2*c", (-j, -j)),
        ("b+c", (i, i)),
        ("b^3*c^3", (-i, -j, -i)),
    ])


HALF_TWIST: Word = (1, 2, 1)


def relator_r_hat(i: int = 1) -> WordSum:
    return relator_r(i).conjugated_by(HALF_TWIST)


def twelve_term_relator(sign: int, primed: bool) -> WordSum:
    """x^2 * S for the four twelve-term relators of the +-quotients.

    The clearing by x^2 keeps all coefficients polynomial; the identities
    below restore the factor.
    """
    s2 = -2 if primed else 2
    eps = 1 if sign > 0 else -1
    x = poly_abc("b+c")
    y = poly_abc("b*c")
    out = WordSum.from_terms([
        (1, (1, s2, 1)),
        (-1 * (y * x), (-1, s2)),
        (-1 * (y * x), (s2, -1)),
        (x * x, (s2,)),
        (-1 * x, (1, s2)),
        (-1 * x, (s2, 1)),
        (y, (1, s2, -1)),
        (y, (-1, s2, 1)),
        (y * y, (-1, s2, -1)),
        (-eps * x, (1,)),
        (-eps * (y * x), (-1,)),
        (eps * (x * x), ()),
    ])
    return out


def lemma_left_factors() -> dict[tuple[int, bool], WordSum]:
    """Left cofactors L with (y-1) x^2 S = L * R_1 * s_2 in R/(a -+ bc).

    Keys are (sign, primed).  The four cofactors were solved for inside the
    9-dimensional image space spanned by g R_1 s_2 (g among 1, s_1^+-1,
    s_2^+-1); the constant terms of the two minus-variant factors are the
    negatives of a commonly quoted form, and `check_twelve_term_identities`
    asserts both that these verify and that the sign flips fail.
    """
    y_inv = poly_abc("b*c").monomial_inverse()
    y2_inv = y_inv * y_inv
    x = poly_abc("b+c")
    one = LaurentPolynomial.one(ABC)
    return {
        (1, False): WordSum.from_terms([
            ((x + one) * y_inv, ()), (-1 * y_inv, (1,)), (-1, (-2,)),
        ]),
        (1, True): WordSum.from_terms([
            ((x + poly_abc("b*c")) * y2_inv, ()),
            ((poly_abc("b*c") - one) * y_inv, (-1,)),
            (-1 * y2_inv, (1,)),
            (-1, (-2,)),
        ]),
        (-1, False): WordSum.from_terms([
            ((x - one) * y_inv, ()), (-1 * y_inv, (1,)), (-1, (-2,)),
        ]),
        (-1, True): WordSum.from_terms([
            ((x - poly_abc("b*c")) * y2_inv, ()),
            ((poly_abc("b*c") - one) * y_inv, (-1,)),
            (-1 * y2_inv, (1,)),
            (-1, (-2,)),
        ]),
    }


def check_twelve_term_identities() -> dict[str, bool]:
    """The four identities expressing the 12-term relators over the 6-term one.

    Also certifies the minus-variant constant terms are forced: flipping
    their sign must break the identity.
    """
    results = {}
    y = poly_abc("b*c")
    one = LaurentPolynomial.one(ABC)
    x = poly_abc("b+c")
    y_inv = y.monomial_inverse()
    factors = lemma_left_factors()
    for sign, spec in ((1, R_PLUS), (-1, R_MINUS)):
        model = H3Model(spec)
        r1s2 = relator_r(1) * WordSum.word((2,))
        for primed in (False, True):
            lhs = twelve_term_relator(sign, primed).scale(y - one)
            rhs = factors[(sign, primed)] * r1s2
            name = f"x2(y-1)S{'+' if sign > 0 else '-'}{'prime' if primed else ''}"
            results[name] = verify_identity(lhs, rhs, model=model)
            if sign < 0:
                flipped_const = (one - x) * y_inv if not primed else (y - x) * y_inv * y_inv
                flipped = factors[(sign, primed)] + WordSum.from_terms([
                    (flipped_const - _constant_of(factors[(sign, primed)]), ()),
                ])
                results[name + " (sign flip fails)"] = not verify_identity(
                    flipped * r1s2, lhs, model=model)
    return results


def _constant_of(ws: WordSum) -> LaurentPolynomial:
    return ws.coeffs.get((), LaurentPolynomial.zero(ABC))


# -- the e-generators at bc = 1, a^2 = 1 --------------------------------------


def cleared_e(i: int) -> WordSum:
    """x * e_i = a (s_i + s_i^-1 - x) in the ring with bc = 1, a^2 = 1."""
    a = poly_abc("a")
    return WordSum.from_terms([
        (a, (i,)), (a, (-i,)), (-1 * (a * poly_abc("b+c")), ()),
    ])


def cleared_s_relator(primed: bool) -> WordSum:
    """x^2 (e_1 s_2^eps e_1 - e_1) with eps = -1 when primed."""
    e1 = cleared_e(1)
    mid = WordSum.word((-2,) if primed else (2,))
    x = poly_abc("b+c")
    return (e1 * mid * e1) - e1.scale(x)


def check_symmetric_difference_identities() -> dict[str, bool]:
    """The two identities tying S_1 - S_1' and S_1 - hat(S_1) to the 6-term relator.

    Both hold in R/(bc - 1, a^2 - 1), that is at a = 1 and at a = -1.
    """
    models = [H3Model(dagger_dagger(a)) for a in (1, -1)]

    def holds(lhs: WordSum, rhs: WordSum) -> bool:
        return all(verify_identity(lhs, rhs, model=model) for model in models)

    x = poly_abc("b+c")
    r1 = relator_r(1)
    r1s2 = r1 * WordSum.word((2,))
    rhat = relator_r_hat(1)
    rhat_s1 = rhat * WordSum.word((1,))
    bracket = WordSum.from_terms([(x, ()), (-1, (-1,)), (-1, (1,))])
    bracket_neg = WordSum.from_terms([(-1 * x, ()), (1, (-2,)), (1, (2,))])

    out = {}
    lhs1 = cleared_s_relator(False) - cleared_s_relator(True)
    rhs1 = bracket * r1s2
    out["x2(S1-S1prime) = (x - s1^-1 - s1) R1 s2"] = holds(lhs1, rhs1)

    s_hat = cleared_s_relator(False).conjugated_by(HALF_TWIST)
    lhs2 = (cleared_s_relator(False) - s_hat).scale(2)
    rhs2 = (bracket * r1s2) - r1 + (bracket_neg * rhat_s1) + rhat
    out["2x2(S1-S1hat) = (x-s1^-1-s1)R1s2 - R1 + (-x+s2^-1+s2)R1hat s1 + R1hat"] = \
        holds(lhs2, rhs2)
    return out


# -- displayed images of the six-term relator ---------------------------------


def check_r1_images() -> dict[str, bool]:
    model = H3Model()
    image = model.image(relator_r(1))
    out = {}
    for key in ("Sb", "Sc", "Ubc", "V"):
        out[f"R1 -> 0 in {key}"] = not image.block(key)
    out["R1 in Sa"] = image.block("Sa") == _block([["-(a-c)*(a-b)*(a^2-b*c)*(a^2+b*c)*a^-3"]])

    def rank_one(al: str, scalar: LaurentPolynomial) -> Block:
        a_inv = poly_abc("a").monomial_inverse()
        v = poly_abc(al)
        return _block([
            [scalar, -1 * scalar * v * a_inv],
            [-1 * scalar * v * a_inv, scalar * v * v * a_inv * a_inv],
        ])

    out["R1 in Uac"] = image.block("Uac") == rank_one("c", poly_abc("(a-b)*(c*a+b^2)"))
    out["R1 in Uab"] = image.block("Uab") == rank_one("b", poly_abc("(a-c)*(a*b+c^2)"))
    return out


def check_r2_conjugation() -> bool:
    """The index-swapped relator is the half-twist conjugate of R_1."""
    model = H3Model()
    return model.image(relator_r(2)) == model.image(relator_r_hat(1))


def letter_inverse(i: int) -> WordSum:
    """s_i^-1 = (abc)^-1 (s_i^2 - (a+b+c) s_i + (ab+ac+bc)), by the cubic."""
    return WordSum.from_terms([
        ("(a*b*c)^-1", (i, i)),
        ("-(a+b+c)*(a*b*c)^-1", (i,)),
        ("(a*b+a*c+b*c)*(a*b*c)^-1", ()),
    ])


def cubic_relator(i: int) -> WordSum:
    """(s_i - a)(s_i - b)(s_i - c), expanded."""
    return WordSum.from_terms([
        (1, (i, i, i)),
        ("-a-b-c", (i, i)),
        ("a*b+a*c+b*c", (i,)),
        ("-a*b*c", ()),
    ])


def check_cubic_and_braid() -> dict[str, bool]:
    model = H3Model()
    out = {}
    for i in (1, 2):
        out[f"cubic on s{i}"] = model.image(cubic_relator(i)).is_zero()
    lhs = WordSum.word((1, 2, 1))
    rhs = WordSum.word((2, 1, 2))
    out["braid relation"] = model.image(lhs) == model.image(rhs)
    return out


def check_multiplicativity(pairs: int = 200, seed: int = 5) -> bool:
    """The word image is multiplicative on `pairs` random pairs of words of length <= 5."""
    if pairs < 1:
        raise RingError(f"the multiplicativity check needs at least one pair, got {pairs}")
    model = H3Model()
    rng = random.Random(seed)
    letters = (1, -1, 2, -2)
    for _ in range(pairs):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        lhs = model.word_image(u + v)
        rhs = model.word_image(u) * model.word_image(v)
        if lhs != rhs:
            return False
    return True


# -- Schur elements and the symmetrizing form ----------------------------------


# p_chi = sign * prod(factors) / denominator.  The nine distinct factors, up
# to sign, are shared between the rows; their product is the common
# multiple Lambda by which `check_schur_identity` clears all seven at once.
SCHUR_TABLE: dict[str, tuple[int, tuple[str, ...], str]] = {
    "Sa": (1, ("a-c", "a^2-a*c+c^2", "a-b", "a^2-a*b+b^2", "b*c+a^2"), "b^4*c^4"),
    "Sb": (1, ("b-c", "b^2-b*c+c^2", "b-a", "b^2-a*b+a^2", "a*c+b^2"), "a^4*c^4"),
    "Sc": (1, ("c-b", "c^2-b*c+b^2", "c-a", "c^2-a*c+a^2", "a*b+c^2"), "a^4*b^4"),
    "Ubc": (-1, ("b^2+c^2-b*c", "a-c", "a-b", "b*c+a^2"), "a^4*b*c"),
    "Uac": (-1, ("a^2+c^2-a*c", "b-c", "b-a", "a*c+b^2"), "b^4*a*c"),
    "Uab": (-1, ("a^2+b^2-a*b", "c-b", "c-a", "a*b+c^2"), "c^4*a*b"),
    "V": (1, ("b*c+a^2", "a*b+c^2", "a*c+b^2"), "a^2*b^2*c^2"),
}


@cache
def schur_elements() -> Mapping[str, LaurentPolynomial]:
    """The seven Schur elements of t_0; denominators are unit monomials.

    Three come from the explicit displays; the other four are their images
    under the variable permutations suggested by the representation labels,
    and `check_schur_identity` certifies the whole table at once.  Each is
    built from its row of SCHUR_TABLE, as Lambda is, once per process; the
    mapping is read-only, since every caller shares it.
    """
    out = {}
    for key, (sign, factors, den) in SCHUR_TABLE.items():
        p = LaurentPolynomial.constant(sign, ABC)
        for f in factors:
            p = p * poly_abc(f)
        out[key] = p * poly_abc(den).monomial_inverse()
    return MappingProxyType(out)


def schur_common_multiple() -> LaurentPolynomial:
    """Lambda: the product of the distinct factors, up to sign, of SCHUR_TABLE."""
    distinct: list[LaurentPolynomial] = []
    for _, factors, _ in SCHUR_TABLE.values():
        for f in map(poly_abc, factors):
            if f not in distinct and -f not in distinct:
                distinct.append(f)
    out = LaurentPolynomial.one(ABC)
    for f in distinct:
        out = out * f
    return out


def basis_b0() -> tuple[Word, ...]:
    """The 24-element basis in positive powers of the generators."""
    return (
        (), (1,), (1, 1), (2,), (2, 2), (1, 2), (1, 2, 2), (1, 1, 2),
        (1, 1, 2, 2), (1, 2, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 2, 1, 1),
        (1, 2, 2, 1), (1, 1, 2, 2, 1), (2, 1), (2, 2, 1), (2, 1, 1),
        (2, 2, 1, 1), (1, 2, 2, 1, 1), (1, 1, 2, 2, 1, 1), (2, 1, 1, 2),
        (1, 2, 1, 1, 2), (1, 1, 2, 1, 1, 2),
    )


def basis_b1() -> tuple[Word, ...]:
    """The 24-element basis in the letters s_i^+-1."""
    return (
        (), (1,), (-1,), (2,), (-2,), (1, 2), (1, -2), (-1, 2), (-1, -2),
        (1, 2, 1), (1, 2, -1), (-1, 2, 1), (-1, 2, -1), (1, -2, 1),
        (-1, -2, 1), (2, 1), (-2, 1), (2, -1), (-2, -1), (1, -2, -1),
        (-1, -2, -1), (2, -1, 2), (1, 2, -1, 2), (-1, 2, -1, 2),
    )


def check_schur_identity() -> dict[str, bool]:
    """Lambda t_0(g) = sum_chi q_chi tr_chi(g) on all of B_0, q_chi = Lambda / p_chi.

    t_0 is 1 on the empty word and 0 on the other 23 basis words.  Lambda
    (`schur_common_multiple`) clears every denominator of t_0 = sum tr/p at
    once; `exact_div` raises unless each cofactor q_chi is exact, which
    certifies that Lambda is a common multiple.  Multiplying by a nonzero
    common multiple keeps the identity equivalent, and the check stays
    fully symbolic.
    """
    model = H3Model()
    common = schur_common_multiple()
    cofactors = {k: common.exact_div(p) for k, p in schur_elements().items()}
    out = {}
    for idx, g in enumerate(basis_b0()):
        image = model.word_image(g)
        rhs = dot([cofactors[k] for k in image.keys], image.traces())
        lhs = common if idx == 0 else LaurentPolynomial.zero(ABC)
        out[f"t0 decomposition on word {idx}"] = lhs == rhs
    return out


def _gram_at(images: Sequence[H3RepImage],
             schur_at: dict[str, Fraction]) -> tuple[list[list[Fraction]], bool]:
    """G[u][v] = sum_chi tr(u_chi v_chi) / p_chi at one point, and whether G is symmetric.

    `images` are the words' images under the point's model (`at_point`).
    With p_chi = n_chi / d_chi and L = lcm |n_chi|, 1/p_chi = w_chi / L for
    the integer weight w_chi = L d_chi / n_chi.  Each word's blocks are read
    from its term maps, row-major (weighted) and column-major, both times D_u, the
    lcm of their entry denominators, so both are integer vectors.  Since
    tr(XY) = sum X_ij Y_ji, M[u][v] = left_u . col_v is an integer and
    G[u][v] = M[u][v] / (L D_u D_v).  Both triangles of M are computed, and
    the symmetry verdict compares them.
    """
    common = lcm(*(abs(p.numerator) for p in schur_at.values()))
    weight = {k: common * p.denominator // p.numerator for k, p in schur_at.items()}
    left, col, scale = [], [], []
    for image in images:
        rows, cols = [], []
        for k, n, terms in zip(image.keys, image.sizes, image.terms):
            rows += [(k, terms.get((i, j, 0), 0)) for i in range(n) for j in range(n)]
            cols += [terms.get((i, j, 0), 0) for j in range(n) for i in range(n)]
        den = lcm(*(x.denominator for _, x in rows))
        left.append([weight[k] * x.numerator * (den // x.denominator) for k, x in rows])
        col.append([x.numerator * (den // x.denominator) for x in cols])
        scale.append(den)
    cleared = [[sum(map(mul, lu, cv)) for cv in col] for lu in left]
    n = len(images)
    symmetric = all(cleared[i][j] == cleared[j][i] for i in range(n) for j in range(i + 1, n))
    gram = [[Fraction(cleared[i][j], common * scale[i] * scale[j]) for j in range(n)]
            for i in range(n)]
    return gram, symmetric


def _faithful_points(draw: Callable[[], dict], count: int, attempts: int,
                     solve: Callable[[dict], object]) -> Iterator[tuple[dict, dict, object]]:
    """Up to `count` points from at most `attempts` calls of `draw()`, each with
    its Schur values and its `solve(point)`.  A point is redrawn where a Schur
    element vanishes (the embedding is not faithful there) or `solve` returns
    None: the caller's skip rule refuses it, or its multiplicity system is singular."""
    accepted = 0
    for _ in range(attempts):
        if accepted == count:
            return
        pt = draw()
        schur = schur_elements()
        values = evaluate_terms(ABC, [p.terms.items() for p in schur.values()], pt)
        schur_at = dict(zip(schur, values))
        if 0 in schur_at.values():
            continue
        solved = solve(pt)
        if solved is not None:
            accepted += 1
            yield pt, schur_at, solved


GRAM_BASES = {"B0": (basis_b0, 54), "B1": (basis_b1, 2)}


def gram_determinant_at_points(basis: str = "B0", count: int = 7, seed: int = 23) -> dict[str, bool]:
    """Gram matrix symmetry and determinant -(abc)^e, via seeded rational points.

    The points are drawn coordinatewise from +-[1, 10^6]; by Schwartz-Zippel
    a false identity of degree d (denominators cleared) holds at one such
    point with probability at most d / (2 * 10^6).  Degenerate points are
    redrawn (`_faithful_points`); the check fails with fewer than `count`
    faithful points in 10 * count draws.  Each point is a model of its own
    (`at_point`): the generator blocks are mapped to Q once and the word
    images multiplied there.  The Schur denominators are cleared once, by
    the lcm of their numerators, so every entry comes from an integer dot
    product (`_gram_at`); the determinant is taken over Q by `eliminate`.
    `det_bareiss` on that integer matrix, whose entries have 455-520 bits,
    is 10-28x slower per point (17-38 ms against 0.8-3.6 ms on a 2-vCPU
    host), so it is not used.
    """
    if basis not in GRAM_BASES:
        raise RingError(f"unknown basis {basis!r}; expected one of {', '.join(GRAM_BASES)}")
    if count < 1:
        raise RingError(f"the Gram check needs at least one point, got {count}")
    words_of, expected_exp = GRAM_BASES[basis]
    words = words_of()
    rng = random.Random(seed)
    out = {}
    found = 0
    for pt, schur_at, model in _faithful_points(lambda: FREE.point(rng), count, 10 * count,
                                                lambda pt: H3Model(at_point(pt))):
        gram, symmetric = _gram_at([model.word_image(w) for w in words], schur_at)
        det, _ = eliminate(gram)
        abc_val = pt["a"] * pt["b"] * pt["c"]
        out[f"{basis} Gram symmetric at point {found}"] = symmetric
        out[f"{basis} Gram det at point {found}"] = det == -(abc_val ** expected_exp)
        found += 1
    if found < count:
        out[f"{basis} faithful points ({found} of {count})"] = False
    return out


# -- Markov-trace equations on three strands -----------------------------------


TRACE_BASIS: tuple[Word, ...] = ((), (1,), (1, 2), (1, -2, 1, -2))


@dataclass
class TraceEquationReport:
    """The verdicts of `trace_equations_check`; each holds until a point refutes it."""

    points_checked: int = 0
    t4_coefficients_vanish: bool = True
    first_equation_matches: bool = True
    second_equation_matches: bool = True
    r1s1_equation_matches: bool = True
    hecke_vector_annihilates: bool = True
    parity_vector_annihilates: bool = True
    kauffman_vector_annihilates: bool = True
    notes: list[str] = field(default_factory=list)
    # not in repr: perfbench's identities workload hashes the repr
    points_requested: int = field(default=0, repr=False)

    @property
    def ok(self) -> bool:
        """Every verdict holds, at every requested point (at least one)."""
        return (0 < self.points_checked == self.points_requested
                and all(v for v in vars(self).values() if isinstance(v, bool)))


# Markov conditions t(x s_2) = t(x s_2^-1) for x = 1, s_1, s_1^-1.
MARKOV_PAIRS: tuple[tuple[Word, Word], ...] = (
    ((2,), (-2,)), ((1, 2), (1, -2)), ((-1, 2), (-1, -2)),
)


def _trace_forms(model: H3Model, point: dict[str, Fraction],
                 exprs: Sequence[WordSum]) -> list[list[Fraction]] | None:
    """Each t(expr) as a linear form in the unknowns t(g), g in TRACE_BASIS.

    A trace is a combination of the 7 block traces; its multiplicities
    solve the 3 Markov conditions and the 4 values on TRACE_BASIS, one
    right-hand side per unknown.  None when the system is singular at
    the point.  The block traces of each word are evaluated at the point
    once, together (`H3RepImage.traces_at`), and those of a linear
    combination are combined there from them.
    """
    @cache
    def traces(word: Word) -> list[Fraction]:
        return model.word_image(word).traces_at(point)

    rows = [[p - q for p, q in zip(traces(u), traces(v))] for u, v in MARKOV_PAIRS]
    rows += [traces(g) for g in TRACE_BASIS]
    units = [[int(i == 3 + j) for i in range(7)] for j in range(4)]
    _, solved = eliminate(rows, units)
    if solved is None:
        return None
    forms = []
    for expr in exprs:
        coeffs = evaluate_terms(ABC, [c.terms.items() for c in expr.coeffs.values()], point)
        values = [dot(coeffs, column) for column in zip(*map(traces, expr.coeffs))]
        forms.append([dot(solved[j], values) for j in range(4)])
    return forms


def trace_equations_check(points: int = 5, seed: int = 97) -> TraceEquationReport:
    """Solve for the generic 3-strand Markov trace with formal unknowns.

    At each sample point the 7 character multiplicities are solved from the
    4 unknowns (t(1), t(s1), t(s1 s2), t((s1 s2^-1)^2)) together with the 3
    linear conditions defining Markov-type traces; the values of the trace
    on s_1^-1 R_1, R_1 and R_1 s_1 then become explicit linear forms in the
    unknowns, each compared with the expected one up to a nonzero scale
    (`_scale`).  Degenerate points are redrawn (`_faithful_points`), for at
    most 10 * points draws.
    """
    model = H3Model()
    rng = random.Random(seed)
    r1 = relator_r(1)
    exprs = (WordSum.word((-1,)) * r1, r1, r1 * WordSum.word((1,)))

    report = TraceEquationReport(points_requested=points)

    # coefficients of the unknowns in t(s_1^-1 R_1), t(R_1), t(R_1 s_1)
    for pt, _, (form1, form2, form3) in _faithful_points(
            lambda: FREE.point(rng, low=2), points, 10 * points,
            lambda pt: _trace_forms(model, pt, exprs)):
        a = pt["a"]
        x = pt["b"] + pt["c"]
        y = pt["b"] * pt["c"]

        if form1[0] != 0 or form1[3] != 0 or form2[3] != 0:
            report.t4_coefficients_vanish = False

        scale = _scale(form1, [0, (a * a - y * y) * x, -(a * a - y * y) * (y + 1), 0])
        if scale is None:
            report.first_equation_matches = False
        elif scale != 1 and report.first_equation_matches:
            report.notes.append(f"first equation matched up to overall scale {scale}")

        # t(R_1) = 0 reads x^2(a^2-y) t(1) =
        #   ((a^2-y)(y+1) - x(y-1)a) (x t(s1) - (y+1) t(s1 s2))
        #   + x(y+1)(a^2-y) t(s1),
        # i.e. the often-quoted right-hand side times a unit factor a.
        bracket = (a * a - y) * (y + 1) - x * (y - 1) * a
        expected2 = [
            x * x * (a * a - y),
            -bracket * x - x * (y + 1) * (a * a - y),
            bracket * (y + 1),
            0,
        ]
        if _scale(form2, expected2) is None:
            report.second_equation_matches = False

        c1 = -x * x * (a * a + a * x + y)
        c2 = (x / a) * (2 * (y + 1) * a ** 3 + 2 * x * (y + 1) * a ** 2
                        + a * (x ** 2 + y * (y + 1)) + y * x)
        c3 = (-(y + 1) ** 2 * a ** 3 - x * (y + 1) ** 2 * a ** 2
              + a * (-x ** 2 - 2 * x ** 2 * y + y * (y ** 2 + y + 1)) - y * x * (y + 1)) / a
        c4 = y * y
        if _scale(form3, [c1, c2, c3, c4]) is None:
            report.r1s1_equation_matches = False

        # the Ocneanu restriction annihilates both forms at a generic point
        delta_h = (y + 1) / x
        if any(dot(form[:3], [delta_h * delta_h, delta_h, 1]) for form in (form1, form2)):
            report.hecke_vector_annihilates = False

        report.points_checked += 1

    # specialized vectors: parity trace at a^2 = y = 1, Kauffman at a^2 = y^2
    report.parity_vector_annihilates = _specialized_vector_check(model, "parity", seed + 1)
    report.kauffman_vector_annihilates = _specialized_vector_check(model, "kauffman", seed + 2)
    return report


def _scale(form: list[Fraction], expected: list[Fraction]) -> Fraction | None:
    """The nonzero s with form = s * expected, else None; s is read at the
    first nonzero entry of `expected`, and is unique wherever it exists."""
    at = next((i for i, w in enumerate(expected) if w != 0), None)
    s = None if at is None else Fraction(form[at]) / expected[at]
    return s if s and [s * w for w in expected] == form else None


def _specialized_vector_check(model: H3Model, which: str, seed: int) -> bool:
    """t^dagger-dagger (resp. t^K) satisfies both trace equations at its locus,
    by the traces of the free `model` evaluated at points of the locus."""
    rng = random.Random(seed)
    r1 = relator_r(1)
    exprs = (r1, WordSum.word((-1,)) * r1)
    loci = (dagger_dagger(1), dagger_dagger(-1)) if which == "parity" else (R_PLUS, R_MINUS)

    def annihilated(pt: dict[str, Fraction]) -> bool | None:
        a, x, y = pt["a"], pt["b"] + pt["c"], pt["b"] * pt["c"]
        if which == "parity":
            vec = [a ** 3, a ** 2, a]
        elif x == 0:
            return None  # delta_K has a pole at c = -b
        else:
            delta_k = (y * y - a * x + y) / (x * y)
            vec = [delta_k ** 2, delta_k, 1]
        forms = _trace_forms(model, pt, exprs)
        if forms is None:
            return None
        return all(form[3] == 0 and dot(form[:3], vec) == 0 for form in forms)

    verdicts = [ok for _, _, ok in _faithful_points(
        lambda: rng.choice(loci).point(rng, low=2), 3, 40, annihilated)]
    return len(verdicts) == 3 and all(verdicts)


# -- the character s_i -> a and the 3-dimensional module -----------------------


def check_parity_character() -> bool:
    """The character s_i -> a kills the six-term relator at bc = 1, a = +-1."""
    return all(H3Model(dagger_dagger(a), _character_images()).image(relator_r(1)).is_zero()
               for a in (1, -1))


def _delta_determinant_check() -> bool:
    """det of the 3-strand trace-vector matrix is (2/x^2)(2a-x)(a-x)."""
    def pl(text: str) -> LaurentPolynomial:
        return LaurentPolynomial.parse(text, ("a", "x"))

    delta_h = pl("2*x^-1")
    delta_k = pl("2*x^-1-a")
    a = pl("a")
    rows = [
        [fold_a(a ** 3), fold_a(a ** 2), a],
        [delta_h * delta_h, delta_h, pl("1")],
        [delta_k * delta_k, delta_k, pl("1")],
    ]
    det = det_bareiss([[fold_a(x) for x in row] for row in rows])
    expected = fold_a(pl("2*x^-2") * (pl("2*a") - pl("x")) * (a - pl("x")))
    return fold_a(det) == expected


def character_and_module_checks() -> dict[str, bool]:
    """The writhe character, the 3-dimensional module and the trace-vector determinant.

    The module is the upper-triangular one at bc = 1, a^2 = 1.  Every
    generator acts by the same matrix s (the action factors through the
    writhe), e_i = a((s + s^-1)/x - 1) is the displayed rank-one matrix,
    and e_i s e_i - e_i is the displayed matrix with scalar
    2(ab - b^2 - 1)/(b^2 + 1)^2.  All module checks run with the
    denominator (b^2+1) cleared, which turns them into exact Laurent
    identities, and each holds at a = 1 and at a = -1.  The targets are
    written over R, with c for b^-1, and mapped by each spec.
    """
    rank_one = [poly_abc(x) for x in ("(a*b-1)*(a-b)", "a*b-1", "b")]
    scalars = (poly_abc("c"), poly_abc("2*(a*b-b^2-1)*c^2"))
    exprs = (cubic_relator(1), relator_r(1), cleared_e(1),
             cleared_s_relator(False), cleared_s_relator(True))
    verdicts = []
    for a in (1, -1):
        spec = dagger_dagger(a)
        # both targets are rank one: their only nonzero row is the first
        target_e, sandwich = (_block([[spec(x * s) for x in rank_one]]) for s in scalars)
        model = H3Model(spec, _dim3_module_images())
        cubic, r1, e, pos, neg = (model.image(x).block("M") for x in exprs)
        verdicts.append((not cubic, not r1, e == target_e, pos == sandwich == neg))
    cubic_holds, r1_zero, e_matches, sandwich_matches = (all(at) for at in zip(*verdicts))
    return {
        "writhe character kills the 6-term relator": check_parity_character(),
        "3-dim module: cubic relation": cubic_holds,
        "3-dim module: 6-term relator acts by zero": r1_zero,
        "3-dim module: e-generator matrix": e_matches,
        "3-dim module: sandwich matrices": sandwich_matches,
        "trace-vector determinant": _delta_determinant_check(),
    }
