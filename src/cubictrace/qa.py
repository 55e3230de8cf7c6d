"""The ring Q[a]/(a^2 - 1), the value ring of every specialized invariant here.

This is the ring where parity-type traces, the exotic trace at x = 2a, and
the specialized Kauffman/Ocneanu traces take their values.  Since 2 is
invertible, Q[a]/(a^2-1) = Q x Q by u + v*a -> (u + v, u - v), the values
at a = 1 and a = -1, and an element is stored as that pair: arithmetic is
componentwise, `at` reads a value, and `from_components` builds an element
from the two values that an engine computed at the two points.  The u + v*a
form is only the public constructor `QA(u, v)` and the output (`to_poly`,
`render`).  `specialize` takes a Laurent polynomial in a and x into the
ring the same way.  The values are canonical `int | Fraction`, as the
coefficients of `LaurentPolynomial`.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import A_ONLY, LaurentPolynomial, RingError, _as_fraction, _canonical


class QA:
    """u + v*a with a^2 = 1 and exact rational u, v, stored as (u + v, u - v)."""

    __slots__ = ("plus", "minus")

    def __init__(self, u=0, v=0):
        u, v = _as_fraction(u), _as_fraction(v)
        object.__setattr__(self, "plus", _canonical(u + v))
        object.__setattr__(self, "minus", _canonical(u - v))

    @classmethod
    def from_components(cls, at_plus, at_minus) -> "QA":
        """The element with values at_plus at a = 1 and at_minus at a = -1.

        Trusted: the values are exact results (`int` or `Fraction`) and are
        only canonicalized, not validated.
        """
        x = object.__new__(cls)
        object.__setattr__(x, "plus", _canonical(at_plus))
        object.__setattr__(x, "minus", _canonical(at_minus))
        return x

    def __setattr__(self, name, value):
        raise AttributeError("QA is immutable")

    @classmethod
    def a_power(cls, k: int) -> "QA":
        return A if k % 2 else ONE

    def __add__(self, other):
        other = _coerce(other)
        return QA.from_components(self.plus + other.plus, self.minus + other.minus)

    __radd__ = __add__

    def __neg__(self):
        return QA.from_components(-self.plus, -self.minus)

    def __sub__(self, other):
        other = _coerce(other)
        return QA.from_components(self.plus - other.plus, self.minus - other.minus)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QA.from_components(self.plus * other.plus, self.minus * other.minus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def is_zero(self) -> bool:
        return self.plus == 0 and self.minus == 0

    def __bool__(self) -> bool:
        return self.plus != 0 or self.minus != 0

    def is_unit(self) -> bool:
        return self.plus != 0 and self.minus != 0

    def inverse(self) -> "QA":
        if not self.is_unit():
            raise RingError(f"{self} is not invertible in Q[a]/(a^2-1)")
        return QA.from_components(Fraction(1, self.plus), Fraction(1, self.minus))

    def at(self, a: int):
        """The value at a = +1 or a = -1."""
        if a == 1:
            return self.plus
        if a == -1:
            return self.minus
        raise RingError("a must be +-1")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.plus == other and self.minus == other
        if not isinstance(other, QA):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        # an a-free element equals, so hashes like, its rational value
        if self.plus == self.minus:
            return hash(self.plus)
        return hash((self.plus, self.minus))

    def to_poly(self) -> LaurentPolynomial:
        """u + v*a as a Laurent polynomial in a."""
        return LaurentPolynomial(A_ONLY, {(0,): Fraction(self.plus + self.minus, 2),
                                          (1,): Fraction(self.plus - self.minus, 2)})

    def render(self) -> str:
        return self.to_poly().render()

    __str__ = render

    def __repr__(self):
        return f"QA({self.render()})"


def _coerce(x) -> QA:
    if isinstance(x, QA):
        return x
    x = _as_fraction(x)
    return QA.from_components(x, x)


ONE = QA(1)
A = QA(0, 1)


def specialize(p: LaurentPolynomial, x: QA) -> QA:
    """The image in Q[a]/(a^2-1) of p in Q[a^+-1, x^+-1] when x is sent to the unit `x`.

    p is evaluated at a = 1 and at a = -1, which is exact because
    Q[a]/(a^2-1) = Q x Q.  A p in a alone ignores `x`.
    """
    if not x.is_unit():
        raise RingError(f"x -> {x} is not a unit of Q[a]/(a^2-1)")
    return QA.from_components(*(p.evaluate({"a": a, "x": x.at(a)}) for a in (1, -1)))


def parse_qa(text: str) -> QA:
    return specialize(LaurentPolynomial.parse(text, A_ONLY), ONE)
