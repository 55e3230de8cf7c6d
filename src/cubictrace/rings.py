"""Exact multivariate Laurent arithmetic over the rationals.

Every ring element used in this project is a Laurent polynomial: a finite
map from integer exponent vectors (negative entries allowed) to nonzero
rational coefficients, over a fixed ordered tuple of variable names.  This
module alone knows how a monomial is stored: its exponent vector e packed
into one int, m = sum e_v * 2^(32 v), one signed 32-bit digit per variable
(`_pack`, `_unpack`).  Packing is linear, so the monomial of a product is
the int sum of its factors' and an inverse is a negation.  It is injective
while every |e_v| <= 2^31 - 1, and an exponent that would leave that bound
raises `RingError` instead of wrapping into the next digit.  Within it,
packed ints compare in lex order with the last variable most significant, a
translation-invariant order, so the leading term of a product is the product
of the leading terms, as exact division needs.  Only `sorted_terms` hands
out exponent tuples.  A coefficient is stored in canonical form: an `int`
when it is integral and a `Fraction` (denominator > 1) otherwise, so the
integer polynomials that dominate the H3 checks never pay for `Fraction`.
Since 3 == Fraction(3) and both hash alike, equality, hashing and rendering
see only the value.  There is no floating point anywhere.

The quotients of R = Q[a,b,c,(abc)^-1] in which the H3 identities hold are
ring maps, `Specialization`s: R/(a -+ bc) is the Laurent ring in b, c
under a -> +-bc, and R/(bc - 1, a^2 - 1) is two copies of the Laurent ring
in b, one under a -> 1 and one under a -> -1, both with c -> 1/b.  Each
map sends every variable to a unit monomial, so it is a monomial map on
exponent vectors (`LaurentPolynomial.substitute`): an image is canonical
as computed and needs no reduction afterwards.  `Specialization.point`
draws seeded rational points of the locus for the checks that evaluate
instead of expanding, such as the 24x24 Gram determinants.  `fold_a`
reduces a^2 -> 1 where coefficients stay in Q[a]/(a^2 - 1), as in the
Temperley-Lieb algebras.
"""

from __future__ import annotations

import random
import re
import struct
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

Monomial = tuple[int, ...]
Coefficient = int | Fraction


class RingError(ValueError):
    pass


_DIGIT_BITS = 32
_HALF = 1 << (_DIGIT_BITS - 1)
_BOUND = _HALF - 1  # the largest |exponent| a digit holds


def _pack(e: Monomial) -> int:
    """The exponent vector e as one int, sum e_v * 2^(32 v); raises RingError
    unless every |e_v| < 2^31, the bound within which packing is injective."""
    m = 0
    for x in reversed(e):
        if not -_HALF < x < _HALF:
            raise RingError(f"exponent {x} is outside the packing bound +-{_BOUND}")
        m = (m << _DIGIT_BITS) + x
    return m


@cache
def _layout(n: int) -> tuple[int, Callable[[bytes], Monomial], Callable, Callable]:
    """For n digits: 2^31 in each; the reader of n signed 32-bit little-endian
    ints; and the add and mask that screen a monomial: adding 2^29 to each digit
    leaves its bits 30 and 31 clear exactly when it lies in [-2^29, 2^29)."""
    half = _pack((1,) * n) << (_DIGIT_BITS - 1)
    return half, struct.Struct(f"<{n}i").unpack, (half >> 2).__add__, (3 * (half >> 1)).__and__


def _unpack(m: int, n: int) -> Monomial:
    """The exponent vector of n variables packed in m (`_pack`).  Adding 2^31
    to every digit makes each nonnegative, so no digit borrows from the next;
    flipping bit 31 of each then leaves the two's complement bits of e_v."""
    half, read, _, _ = _layout(n)
    return read(((m + half) ^ half).to_bytes(4 * n, "little"))


def _extents(keys: Iterable[int], n: int) -> list[tuple[int, int]]:
    """Each variable's least and greatest exponent over packed monomials;
    empty for no monomials."""
    return [(min(d), max(d)) for d in zip(*(_unpack(m, n) for m in keys))]


def _as_fraction(c) -> Coefficient:
    """The canonical coefficient of c: an int if integral, else a Fraction."""
    if isinstance(c, int):
        return int(c)  # a bool becomes 0 or 1
    if isinstance(c, Fraction):
        return _canonical(c)
    raise RingError(f"coefficient must be an int or Fraction, got {type(c)!r}")


def _canonical(c: Coefficient) -> Coefficient:
    """Store an integral arithmetic result as an int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _clean(acc: dict) -> dict:
    """An accumulator's sums without those that cancelled, each canonical
    (`_canonical`, inlined)."""
    return {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for k, c in acc.items() if c}


class LaurentPolynomial:
    """A Laurent polynomial with exact rational coefficients.

    Terms are stored sparsely as {packed monomial: coefficient} (see the
    module docstring); zero coefficients are never kept, and each
    coefficient is canonical (`int | Fraction`).  Two polynomials compare
    equal iff they have the same variable tuple and equal term maps, so the
    representation is canonical.

    The public constructor takes exponent tuples and validates: it checks
    their lengths and the packing bound, rejects non-rational coefficients,
    canonicalizes and merges repeated monomials.  Arithmetic results are
    already canonical and go through `_trusted`, which stores them as given.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Coefficient]):
        variables = tuple(variables)
        acc: dict[int, Coefficient] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(variables):
                raise RingError(f"exponent vector {mono} has wrong length for {variables}")
            mono = _pack(mono)
            acc[mono] = acc.get(mono, 0) + _as_fraction(coeff)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", _clean(acc))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...],
                 terms: dict[int, Coefficient]) -> "LaurentPolynomial":
        """Wrap terms that are already clean: packed monomials within the
        bound, nonzero canonical coefficients.  Skips `__init__`'s validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls._trusted(tuple(variables), {})

    @classmethod
    def constant(cls, c, variables: Sequence[str]) -> "LaurentPolynomial":
        c = _as_fraction(c)
        variables = tuple(variables)
        if c == 0:
            return cls._trusted(variables, {})
        return cls._trusted(variables, {0: c})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls.constant(1, variables)

    @classmethod
    def var(cls, name: str, variables: Sequence[str], power: int = 1) -> "LaurentPolynomial":
        variables = tuple(variables)
        if name not in variables:
            raise RingError(f"{name!r} is not among variables {variables}")
        mono = tuple(power if v == name else 0 for v in variables)
        return cls._trusted(variables, {_pack(mono): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return self.terms.keys() <= {0}

    def constant_value(self) -> Coefficient:
        if not self.is_constant():
            raise RingError(f"{self} is not constant")
        return self.terms.get(0, 0)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        """The terms as (exponent tuple, coefficient), in lex order of the tuples."""
        return sorted((_unpack(m, len(self.variables)), c) for m, c in self.terms.items())

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "LaurentPolynomial") -> None:
        if self.variables != other.variables:
            raise RingError(f"mismatched variable lists {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            if type(other) is int and not other:  # the int 0 that starts a sum
                return self
            other = LaurentPolynomial.constant(other, self.variables)
        self._check_compatible(other)
        big, small = self.terms, other.terms
        if len(small) > len(big):
            big, small = small, big
        terms = dict(big)
        get = terms.get
        for mono, c in small.items():
            acc = get(mono, 0) + c
            if not acc:
                del terms[mono]
            elif type(acc) is Fraction and acc.denominator == 1:  # `_canonical`, inlined
                terms[mono] = acc.numerator
            else:
                terms[mono] = acc
        return LaurentPolynomial._trusted(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._trusted(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            c = _as_fraction(other)
            if c == 0:
                return LaurentPolynomial.zero(self.variables)
            return LaurentPolynomial._trusted(
                self.variables, {m: _canonical(c * v) for m, v in self.terms.items()})
        return LaurentPolynomial.dot((self,), (other,))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Sequence["LaurentPolynomial | Coefficient"],
            ys: Sequence["LaurentPolynomial | Coefficient"]) -> "LaurentPolynomial":
        """sum(x * y for x, y in zip(xs, ys)) for nonempty xs whose first entry
        is a polynomial; an int or Fraction factor is a constant.  Every
        product goes into one term dict, canonicalized once at the end,
        instead of a polynomial per product and per partial sum.  A product's
        monomial is the int sum of its factors' once no digit can leave the
        bound: all digits lie in [-2^29, 2^29) (`_layout`), or else the
        factors' extents add up within it."""
        variables = xs[0].variables
        pairs, keys = [], []
        for p, q in zip(xs, ys):
            if not isinstance(p, LaurentPolynomial):
                p = LaurentPolynomial.constant(p, variables)
            if not isinstance(q, LaurentPolynomial):
                q = LaurentPolynomial.constant(q, variables)
            if p.variables != variables or q.variables != variables:
                raise RingError(f"mismatched variable lists {p.variables} vs {q.variables}")
            if p.terms and q.terms:
                pairs.append((p.terms, q.terms))
                keys += [*p.terms, *q.terms]
        n = len(variables)
        _, _, shift, mask = _layout(n)
        if any(map(mask, map(shift, keys))):
            for p, q in pairs:
                for (plo, phi), (qlo, qhi) in zip(_extents(p, n), _extents(q, n)):
                    if plo + qlo < -_BOUND or phi + qhi > _BOUND:
                        raise RingError(f"a product leaves the packing bound +-{_BOUND}")
        out: dict[int, Coefficient] = {}
        get = out.get
        for p, q in pairs:
            items2 = q.items()
            for m1, c1 in p.items():
                for m2, c2 in items2:
                    mono = m1 + m2
                    out[mono] = get(mono, 0) + c1 * c2
        return LaurentPolynomial._trusted(variables, _clean(out))

    def __pow__(self, n: int):
        """By repeated squaring.  No square past the last bit of n is taken, so a
        product leaves the packing bound, and raises, exactly when the power does."""
        if not isinstance(n, int):
            raise RingError("exponent must be an integer")
        if n < 0:
            return self.monomial_inverse() ** -n
        result = LaurentPolynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monomial_inverse(self) -> "LaurentPolynomial":
        """Inverse, defined only for single-term (unit) polynomials."""
        if len(self.terms) != 1:
            raise RingError(f"{self} is not a unit monomial")
        (mono, coeff), = self.terms.items()
        return LaurentPolynomial._trusted(self.variables, {-mono: _canonical(1 / Fraction(coeff))})

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPolynomial.constant(other, self.variables)
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.terms.keys() <= {0}:  # a constant equals, so hashes like, its value
                h = hash(self.terms.get(0, 0))
            else:
                h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution / evaluation --------------------------------------

    def substitute(self, mapping: Mapping[str, "LaurentPolynomial"],
                   target_variables: Sequence[str] | None = None) -> "LaurentPolynomial":
        """The monomial map sending each mapped variable to its image, a unit
        monomial k*m over `target_variables`, on exponent vectors.

        Every other variable must be in the target tuple and maps to itself.
        A term c * prod v^e goes to c * prod k^e times the monomial sum e*m;
        terms that meet are summed in one dict.  Raises RingError otherwise.
        """
        if target_variables is None:
            first = next(iter(mapping.values()), None)
            target_variables = first.variables if first is not None else self.variables
        target = tuple(target_variables)
        images = []  # per variable: (k, [(target index, exponent) of m])
        for v in self.variables:
            if v not in mapping:
                if v not in target:
                    raise RingError(f"unmapped variable {v!r} is not among the target {target}")
                images.append((1, [(target.index(v), 1)]))
                continue
            image = mapping[v]
            if image.variables != target or len(image.terms) != 1:
                raise RingError(f"{v} -> {image} is not a unit monomial over {target}")
            (mono, k), = image.terms.items()
            images.append((k, [(j, e) for j, e in enumerate(_unpack(mono, len(target))) if e]))
        n = len(self.variables)
        out: dict[int, Coefficient] = {}
        for mono, coeff in self.terms.items():
            exps = [0] * len(target)
            for e, (k, image) in zip(_unpack(mono, n), images):
                if e:
                    if k != 1:
                        coeff *= k ** e if e > 0 else Fraction(k) ** e
                    for j, f in image:
                        exps[j] += e * f
            key = _pack(exps)
            out[key] = out.get(key, 0) + coeff
        return LaurentPolynomial._trusted(target, _clean(out))

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """The value at an exact rational point (`int` or `Fraction` coordinates),
        by `evaluate_terms` on this one term list: a coordinate the point lacks
        and a negative power of 0 raise RingError, and the zero polynomial is 0."""
        return evaluate_terms(self.variables, (self.terms.items(),), point)[0]

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self/divisor; raises RingError when not divisible.

        Each step divides the remainder's leading term, its greatest packed
        monomial, by the divisor's; subtracting that quotient term times the
        divisor cancels the lead and adds only smaller monomials, so the
        remainder's monomials wait in one ascending list, and a cancelled one
        is skipped when it comes last.  An exact quotient's exponent of each
        variable lies between the dividend's least minus the divisor's least
        and the dividend's greatest minus the divisor's greatest, since the
        extreme terms of a product never cancel.  A quotient monomial outside
        that box, or outside the packing bound, certifies that no quotient
        exists in this ring; inside both the decreasing quotient monomials
        terminate, and every product stays in the dividend's box, so no digit
        wraps.  The check reads the lead's digits, which always decode.
        """
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise RingError("division by zero polynomial")
        if self.is_zero():
            return self
        n = len(self.variables)
        lead_d, lead_dc = max(divisor.terms.items())
        box = [(max(lo - dlo, -_BOUND) + e, min(hi - dhi, _BOUND) + e)  # the lead's, for lead_d
               for (lo, hi), (dlo, dhi), e in zip(_extents(self.terms, n),
                                                  _extents(divisor.terms, n), _unpack(lead_d, n))]
        rest = [(m, c) for m, c in divisor.terms.items() if m != lead_d]
        num = dict(self.terms)
        order = sorted(num)
        quo: dict[int, Coefficient] = {}
        while order:
            lead = order.pop()
            c = num.pop(lead, 0)
            if not c:
                continue
            if any(not lo <= e <= hi for e, (lo, hi) in zip(_unpack(lead, n), box)):
                raise RingError("non-exact polynomial division")
            q_mono = lead - lead_d
            # through Fraction: int / int would be a float
            q_coeff = quo[q_mono] = _canonical(Fraction(c) / lead_dc)
            for m, dc in rest:
                mono = q_mono + m
                if mono not in num:
                    insort(order, mono)
                acc = _canonical(num.get(mono, 0) - q_coeff * dc)
                if acc:
                    num[mono] = acc
                else:
                    del num[mono]
        return LaurentPolynomial._trusted(self.variables, quo)

    # -- rendering / parsing ----------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted lexicographically on exponents."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors: list[str] = []
            for v, e in zip(self.variables, mono):
                if e == 1:
                    factors.append(v)
                elif e != 0:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            c = coeff
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if body and c == 1:
                text = body
            elif body:
                text = f"{c}*{body}"
            else:
                text = str(c)
            parts.append((sign, text))
        first_sign, first_text = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_text
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    __str__ = render

    def __repr__(self):
        return f"LaurentPolynomial({self.variables}, {self.render()!r})"

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "LaurentPolynomial":
        """Parse polynomial text: +, -, *, ^, parentheses, rationals p/q.

        The canonical `render` output is a sublanguage of this grammar, so
        rendering and parsing round-trip.
        """
        return _Parser(text, tuple(variables)).parse()


def evaluate_terms(variables: Sequence[str],
                   term_lists: Sequence[Iterable[tuple[int, Coefficient]]],
                   point: Mapping[str, Fraction]) -> list[Fraction]:
    """The values of several term lists over `variables` at one exact rational
    point (`int` or `Fraction` coordinates), one `Fraction` per list; a term
    is (packed monomial, coefficient), as in `LaurentPolynomial.terms`.

    With x = p/q and the exponents of x over all the lists from lo <= 0 to
    hi >= 0, the term x^e is p^(e-lo) q^(hi-e) / (p^-lo q^hi), the
    numerator's value at e = 0.  One table per variable, shared by every
    list, holds these integer numerators at the distinct exponents and 0,
    each from the next smaller one times p^gap and the next larger one times
    q^gap, so the work follows the exponents that occur, not their span.
    Each list's coefficients go over their lcm, so its terms sum as ints and
    one `Fraction` is made per list.
    """
    values = []
    for v in variables:
        try:
            values.append(_as_fraction(point[v]))
        except KeyError:
            raise RingError(f"the point gives no value for {v!r}") from None
    lists = [[(_unpack(m, len(variables)), c) for m, c in terms] for terms in term_lists]
    tables = []
    den = 1
    for x, column in zip(values, zip(*(mono for terms in lists for mono, _ in terms))):
        exps = sorted({0, *column})
        p, q = x.numerator, x.denominator
        if p == 0 and exps[0] < 0:
            raise RingError("evaluation divides by zero")
        table, acc, prev = {}, 1, exps[0]
        for e in exps:  # p^(e - lo), up by the gaps
            acc *= p ** (e - prev)
            table[e], prev = acc, e
        acc = 1
        for e in reversed(exps):  # times q^(hi - e), down by the gaps
            acc *= q ** (prev - e)
            table[e], prev = table[e] * acc, e
        tables.append(table)
        den *= table[0]
    out = []
    for terms in lists:
        common = 1
        for _, c in terms:
            if type(c) is Fraction:
                common = lcm(common, c.denominator)
        total = 0
        for mono, c in terms:
            acc = c * common if type(c) is int else c.numerator * (common // c.denominator)
            for e, table in zip(mono, tables):
                acc *= table[e]
            total += acc
        d = den * common
        if d < 0:
            total, d = -total, -d
        out.append(Fraction(total) if d == 1 else Fraction(total, d))
    return out


class _Parser:
    """Recursive-descent parser for Laurent polynomial expressions.

    Its work is bounded on outside text (`table --input` rows): parentheses
    nest at most MAX_NESTING deep; p^n is refused when n times the width
    of p (`_width`) exceeds MAX_POWER, so no power, nested or not, is
    wider than MAX_POWER (+-(a monomial) has width 0: its powers take any
    exponent within the packing bound); and the products of one text
    multiply at most MAX_WORK pairs of terms.
    """

    # the program's own texts need depth 1, n * width 2 and 34 pairs of terms
    MAX_NESTING = 32
    MAX_POWER = 64
    MAX_WORK = 1 << 12

    _TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.variables = variables
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise RingError(f"cannot tokenize {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.index = 0
        self.depth = self.work = 0
        if not self.tokens:
            raise RingError("empty polynomial text")

    def _peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise RingError("unexpected end of polynomial text")
        self.index += 1
        return tok

    def parse(self) -> LaurentPolynomial:
        value = self._expr()
        if self._peek() is not None:
            raise RingError(f"trailing tokens at {self.tokens[self.index:]}")
        return value

    def _expr(self) -> LaurentPolynomial:
        sign = 1
        while self._peek() in ("+", "-"):
            if self._next() == "-":
                sign = -sign
        value = self._term() * sign
        while self._peek() in ("+", "-"):
            op = self._next()
            term = self._term()
            value = value + term if op == "+" else value - term
        return value

    def _term(self) -> LaurentPolynomial:
        value = self._factor()
        while True:
            tok = self._peek()
            if tok == "*":
                self._next()
                value = self._times(value, self._factor())
            elif tok == "/":
                self._next()
                divisor = self._factor()
                if divisor.is_constant():
                    value = value * (Fraction(1) / divisor.constant_value())
                else:
                    value = self._times(value, divisor.monomial_inverse())
            elif tok is not None and (tok[0].isalpha() or tok == "("):
                value = self._times(value, self._factor())  # implicit product
            else:
                return value

    def _times(self, p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
        self.work += len(p.terms) * len(q.terms)
        if self.work > self.MAX_WORK:
            raise RingError(f"the products in the text multiply more than {self.MAX_WORK} "
                            f"pairs of terms")
        return p * q

    def _factor(self) -> LaurentPolynomial:
        negative = False
        while self._peek() in ("+", "-"):
            negative ^= self._next() == "-"
        base = self._base()
        while self._peek() in ("^", "**"):
            self._next()
            sign = 1
            if self._peek() == "-":
                self._next()
                sign = -1
            exp_tok = self._next()
            if not exp_tok.isdigit():
                raise RingError(f"bad exponent {exp_tok!r}")
            n = self._int(exp_tok)
            if n * self._width(base) > self.MAX_POWER:
                raise RingError(f"power {n} of a {len(base.terms)}-term base is wider than "
                                f"{self.MAX_POWER}")
            base = base ** (sign * n)
        return -base if negative else base

    @staticmethod
    def _width(p: LaurentPolynomial) -> int:
        """0 for 0 and +-(a monomial), else the larger of p's degree span in one
        variable and the bit length of its largest coefficient numerator or
        denominator."""
        coeffs = [Fraction(c) for c in p.terms.values()]
        if len(coeffs) < 2 and all(abs(c) == 1 for c in coeffs):
            return 0
        spans = [hi - lo for lo, hi in _extents(p.terms, len(p.variables))]
        bits = [abs(x).bit_length() for c in coeffs for x in (c.numerator, c.denominator)]
        return max(spans + bits)

    @staticmethod
    def _int(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:  # past the interpreter's digit limit
            raise RingError(f"integer of {len(tok)} digits is too long") from None

    def _base(self) -> LaurentPolynomial:
        tok = self._next()
        if tok == "(":
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                raise RingError(f"parentheses nest deeper than {self.MAX_NESTING}")
            value = self._expr()
            if self._next() != ")":
                raise RingError("unbalanced parentheses")
            self.depth -= 1
            return value
        if tok.isdigit():
            return LaurentPolynomial.constant(self._int(tok), self.variables)
        if tok[0].isalpha():
            return LaurentPolynomial.var(tok, self.variables)
        raise RingError(f"unexpected token {tok!r}")


# -- commonly used rings -----------------------------------------------------

ABC = ("a", "b", "c")
AX = ("a", "x")
A_ONLY = ("a",)


def poly_abc(text: str) -> LaurentPolynomial:
    return LaurentPolynomial.parse(text, ABC)


@dataclass(frozen=True)
class Specialization:
    """A ring map from R = Q[a,b,c,(abc)^-1] onto the Laurent ring over `variables`.

    `images` sends some of a, b, c to unit monomials over `variables`; the
    others map to themselves and must be among `variables`, which the
    constructor checks.  Each quotient of R used here solves its relations
    for unit monomials (a = +-bc, c = 1/b, a = +-1), so the quotient is that
    Laurent ring, the monomial map is its canonical form, and the image of p
    is zero exactly when p lies in the ideal.  The relation a^2 = 1 is not
    of that shape: it is split, Q[a]/(a^2-1) = Q x Q, into the two maps
    a -> 1 and a -> -1, and a claim holds there when it holds under both.
    """

    name: str
    variables: tuple[str, ...]
    images: Mapping[str, LaurentPolynomial]

    def __post_init__(self):
        LaurentPolynomial.zero(ABC).substitute(self.images, self.variables)  # checks the images

    def __call__(self, p: LaurentPolynomial) -> LaurentPolynomial:
        """The image of p, a polynomial over ABC."""
        if not self.images:
            return p
        return p.substitute(self.images, self.variables)

    def point(self, rng: random.Random, low: int = 1) -> dict[str, Fraction]:
        """A random rational point of the locus, as the values of a, b and c.

        Each target variable is drawn uniformly from +-[low, 10^6]; the
        mapped variables take the values of their images there.
        """
        point: dict[str, Fraction] = {}
        for v in self.variables:
            mag = Fraction(rng.randint(low, 10 ** 6))
            point[v] = mag if rng.random() < 0.5 else -mag
        for v, image in self.images.items():
            point[v] = image.evaluate(point)
        return point


_BC = ("b", "c")
FREE = Specialization("R", ABC, {})
R_PLUS = Specialization("R+", _BC, {"a": LaurentPolynomial.parse("b*c", _BC)})    # R/(a - bc)
R_MINUS = Specialization("R-", _BC, {"a": LaurentPolynomial.parse("-b*c", _BC)})  # R/(a + bc)


def dagger_dagger(a: int) -> Specialization:
    """S-dagger-dagger = R/(bc - 1, a^2 - 1) at a = 1 or a = -1: c -> 1/b."""
    if a not in (1, -1):
        raise RingError(f"a^2 = 1 leaves a = 1 or a = -1, not {a}")
    b = ("b",)
    return Specialization(f"Sdd(a={a})", b, {"a": LaurentPolynomial.constant(a, b),
                                             "c": LaurentPolynomial.var("b", b, -1)})


def fold_a(p: LaurentPolynomial) -> LaurentPolynomial:
    """Reduce a^2 -> 1 on any variable tuple containing a.

    The exponent of a is taken mod 2, the others are kept.
    """
    i = p.variables.index("a")
    out: dict[int, Coefficient] = {}
    for mono, c in p.terms.items():
        e = _unpack(mono, len(p.variables))[i]
        mono -= (e - e % 2) << (_DIGIT_BITS * i)
        out[mono] = out.get(mono, 0) + c
    return LaurentPolynomial._trusted(p.variables, _clean(out))

