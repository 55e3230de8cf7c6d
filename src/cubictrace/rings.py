"""Exact multivariate Laurent arithmetic over the rationals.

Every ring element used in this project is a Laurent polynomial: a finite
map from integer exponent vectors (negative entries allowed) to nonzero
rational coefficients, over a fixed ordered tuple of variable names.  A
coefficient is stored in canonical form: an `int` when it is integral and a
`Fraction` (denominator > 1) otherwise, so the integer polynomials that
dominate the H3 checks never pay for `Fraction`.  Since 3 == Fraction(3)
and both hash alike, equality, hashing and rendering see only the value.
There is no floating point anywhere.

The quotients of R = Q[a,b,c,(abc)^-1] in which the H3 identities hold are
ring maps, `Specialization`s: R/(a -+ bc) is the Laurent ring in b, c
under a -> +-bc, and R/(bc - 1, a^2 - 1) is two copies of the Laurent ring
in b, one under a -> 1 and one under a -> -1, both with c -> 1/b.  Each
map is a substitution, so an image is canonical as computed and needs no
reduction afterwards.  `Specialization.point` draws seeded rational points
of the locus for the checks that evaluate instead of expanding, such as
the 24x24 Gram determinants.  `fold_a` reduces a^2 -> 1 where
coefficients stay in Q[a]/(a^2 - 1), as in the Temperley-Lieb algebras.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

Monomial = tuple[int, ...]
Coefficient = int | Fraction


class RingError(ValueError):
    pass


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


class LaurentPolynomial:
    """A Laurent polynomial with exact rational coefficients.

    Terms are stored sparsely; zero coefficients are never kept, and each
    coefficient is canonical (`int | Fraction`, see the module docstring).
    Two polynomials compare equal iff they have the same variable tuple and
    equal term maps, so the representation is canonical.

    The public constructor validates: it checks exponent lengths, rejects
    non-rational coefficients, canonicalizes and merges repeated monomials.
    Arithmetic results are already canonical and go through `_trusted`,
    which stores them as given.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, Coefficient]):
        variables = tuple(variables)
        clean: dict[Monomial, Coefficient] = {}
        nvars = len(variables)
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise RingError(f"exponent vector {mono} has wrong length for {variables}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                acc = clean.get(mono)
                if acc is None:
                    clean[mono] = coeff
                else:
                    acc = _canonical(acc + coeff)
                    if acc == 0:
                        del clean[mono]
                    else:
                        clean[mono] = acc
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...],
                 terms: dict[Monomial, Coefficient]) -> "LaurentPolynomial":
        """Wrap terms that are already clean: right-length exponent tuples,
        nonzero canonical coefficients.  Skips `__init__`'s validation."""
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
        return cls._trusted(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls.constant(1, variables)

    @classmethod
    def var(cls, name: str, variables: Sequence[str], power: int = 1) -> "LaurentPolynomial":
        variables = tuple(variables)
        if name not in variables:
            raise RingError(f"{name!r} is not among variables {variables}")
        mono = tuple(power if v == name else 0 for v in variables)
        return cls._trusted(variables, {mono: 1})

    @classmethod
    def monomial(cls, coeff, exponents: Monomial, variables: Sequence[str]) -> "LaurentPolynomial":
        return cls(variables, {tuple(exponents): _as_fraction(coeff)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        z = tuple([0] * len(self.variables))
        return not self.terms or (len(self.terms) == 1 and z in self.terms)

    def constant_value(self) -> Coefficient:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise RingError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Max over terms of the sum of |exponents| (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(sum(abs(e) for e in mono) for mono in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        return sorted(self.terms.items())

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "LaurentPolynomial") -> None:
        if self.variables != other.variables:
            raise RingError(f"mismatched variable lists {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
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
        self._check_compatible(other)
        out: dict[Monomial, Coefficient] = {}
        get = out.get
        items2 = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in items2:
                mono = tuple(map(add, m1, m2))
                out[mono] = get(mono, 0) + c1 * c2
        # drop the sums that cancelled; `_canonical`, inlined, on the rest
        return LaurentPolynomial._trusted(self.variables, {
            m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError("exponent must be an integer")
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        result = LaurentPolynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPolynomial":
        """Inverse, defined only for single-term (unit) polynomials."""
        if len(self.terms) != 1:
            raise RingError(f"{self} is not a unit monomial")
        (mono, coeff), = self.terms.items()
        return LaurentPolynomial._trusted(self.variables,
                                          {tuple(-e for e in mono): _canonical(1 / Fraction(coeff))})

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPolynomial.constant(other, self.variables)
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.variables, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- substitution / evaluation --------------------------------------

    def substitute(self, mapping: Mapping[str, "LaurentPolynomial"],
                   target_variables: Sequence[str] | None = None) -> "LaurentPolynomial":
        """Substitute polynomials for variables.

        Unmapped variables must exist in the target variable tuple.  A
        negative power of a mapped variable requires its image to be an
        invertible monomial.
        """
        if target_variables is None:
            first = next(iter(mapping.values()), None)
            target_variables = first.variables if first is not None else self.variables
        target_variables = tuple(target_variables)
        images: list[LaurentPolynomial] = []
        for v in self.variables:
            if v in mapping:
                img = mapping[v]
                if img.variables != target_variables:
                    raise RingError("substitution images must share the target variable tuple")
                images.append(img)
            else:
                images.append(LaurentPolynomial.var(v, target_variables))
        out = LaurentPolynomial.zero(target_variables)
        pow_cache: list[dict[int, LaurentPolynomial]] = [dict() for _ in images]
        for mono, coeff in self.terms.items():
            term = LaurentPolynomial.constant(coeff, target_variables)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cached = pow_cache[i].get(e)
                if cached is None:
                    cached = images[i] ** e
                    pow_cache[i][e] = cached
                term = term * cached
            out = out + term
        return out

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """The value at an exact rational point (`int` or `Fraction` coordinates)."""
        total = Fraction(0)
        # the powers stay over Fraction: an int to a negative power is a float
        vals = [Fraction(_as_fraction(point[v])) for v in self.variables]
        for mono, coeff in self.terms.items():
            acc = coeff
            for val, e in zip(vals, mono):
                if e:
                    if val == 0 and e < 0:
                        raise RingError("evaluation divides by zero")
                    acc *= val ** e
            total += acc
        return total

    def extend(self, variables: Sequence[str]) -> "LaurentPolynomial":
        """Re-express over a superset of variables (new ones with exponent 0)."""
        variables = tuple(variables)
        idx = []
        for v in self.variables:
            if v not in variables:
                raise RingError(f"{v} missing from extension {variables}")
            idx.append(variables.index(v))
        terms = {}
        for mono, coeff in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(idx, mono):
                new[pos] = e
            terms[tuple(new)] = coeff
        return LaurentPolynomial._trusted(variables, terms)

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self/divisor; raises RingError when not divisible."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise RingError("division by zero polynomial")
        if self.is_zero():
            return self
        # Shift both by monomials so all exponents are nonnegative; lex
        # order is then well founded for the division loop.
        nvars = len(self.variables)
        shift = [0] * nvars
        for mono in list(self.terms) + list(divisor.terms):
            for i, e in enumerate(mono):
                shift[i] = min(shift[i], e)
        shift_t = tuple(shift)

        def shifted(p: LaurentPolynomial) -> dict[Monomial, Coefficient]:
            return {tuple(e - s for e, s in zip(m, shift_t)): c for m, c in p.terms.items()}

        num = shifted(self)
        den = shifted(divisor)
        lead_d = max(den)
        lead_dc = den[lead_d]
        # In an exact division the intermediate numerators are tail-sums of
        # quotient * divisor, whose exponents stay inside the dividend's
        # bounding box (extreme monomials of a product never cancel).  A
        # lead escaping the box therefore certifies non-divisibility, and
        # the strictly lex-decreasing leads inside a finite box terminate.
        lo = [min(m[i] for m in num) for i in range(nvars)]
        hi = [max(m[i] for m in num) for i in range(nvars)]
        quo: dict[Monomial, Coefficient] = {}
        while num:
            lead_n = max(num)
            if any(e < l or e > h for e, l, h in zip(lead_n, lo, hi)):
                raise RingError("non-exact polynomial division")
            q_mono = tuple(en - ed for en, ed in zip(lead_n, lead_d))
            # through Fraction: int / int would be a float
            q_coeff = _canonical(Fraction(num[lead_n]) / lead_dc)
            # the leads strictly decrease, so each quotient monomial is new
            quo[q_mono] = q_coeff
            for m, c in den.items():
                mono = tuple(map(add, q_mono, m))
                acc = _canonical(num.get(mono, 0) - q_coeff * c)
                if acc == 0:
                    num.pop(mono, None)
                else:
                    num[mono] = acc
            if num and max(num) >= lead_n:
                raise RingError("non-exact polynomial division")
        # The numerator shift cancels the denominator shift exactly, so the
        # quotient needs no adjustment.
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


class _Parser:
    """Recursive-descent parser for Laurent polynomial expressions."""

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
                value = value * self._factor()
            elif tok == "/":
                self._next()
                divisor = self._factor()
                if divisor.is_constant():
                    value = value * (Fraction(1) / divisor.constant_value())
                else:
                    value = value * divisor.monomial_inverse()
            elif tok is not None and (tok[0].isalpha() or tok == "("):
                value = value * self._factor()  # implicit product
            else:
                return value

    def _factor(self) -> LaurentPolynomial:
        tok = self._peek()
        if tok in ("+", "-"):
            self._next()
            base = self._factor()
            return -base if tok == "-" else base
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
            base = base ** (sign * int(exp_tok))
        return base

    def _base(self) -> LaurentPolynomial:
        tok = self._next()
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise RingError("unbalanced parentheses")
            return value
        if tok.isdigit():
            return LaurentPolynomial.constant(int(tok), self.variables)
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

    `images` sends some of a, b, c to polynomials over `variables`; the
    others map to themselves.  Each quotient of R used here solves its
    relations for unit monomials (a = +-bc, c = 1/b, a = +-1), so the
    quotient is that Laurent ring, substitution is its canonical form, and
    the image of p is zero exactly when p lies in the ideal.  The relation
    a^2 = 1 is not of that shape: it is split, Q[a]/(a^2-1) = Q x Q, into
    the two maps a -> 1 and a -> -1, and a claim holds there when it holds
    under both.
    """

    name: str
    variables: tuple[str, ...]
    images: Mapping[str, LaurentPolynomial]

    def __call__(self, p: LaurentPolynomial) -> LaurentPolynomial:
        """The image of p, a polynomial over ABC."""
        if not self.images:
            return p
        return p.substitute(self.images, self.variables)

    def point(self, rng: random.Random, low: int = 1, high: int = 10 ** 6) -> dict[str, Fraction]:
        """A random rational point of the locus, as the values of a, b and c.

        Each target variable is drawn uniformly from +-[low, high]; the
        mapped variables take the values of their images there.
        """
        point: dict[str, Fraction] = {}
        for v in self.variables:
            mag = Fraction(rng.randint(low, high))
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
    out: dict[Monomial, Coefficient] = {}
    for mono, c in p.terms.items():
        mono = mono[:i] + (mono[i] % 2,) + mono[i + 1:]
        out[mono] = out.get(mono, 0) + c
    return LaurentPolynomial(p.variables, out)

