"""The ring Q[a]/(a^2 - 1), the value ring of every specialized invariant here.

Elements are stored as pairs u + v*a of exact rationals.  This is the ring
where parity-type traces, the exotic trace at x = 2a, and the specialized
Kauffman/Ocneanu traces take their values.  Since 2 is invertible,
Q[a]/(a^2-1) = Q x Q by the values at a = 1 and a = -1, so those traces
are computed at the two points over the rationals and joined once
(`QA.from_components`); `specialize` takes a Laurent polynomial in a and
x into the ring the same way.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import A_ONLY, LaurentPolynomial, RingError


class QA:
    """u + v*a with a^2 = 1; exact rational u, v."""

    __slots__ = ("u", "v")

    def __init__(self, u=0, v=0):
        object.__setattr__(self, "u", Fraction(u))
        object.__setattr__(self, "v", Fraction(v))

    def __setattr__(self, name, value):
        raise AttributeError("QA is immutable")

    @classmethod
    def a_power(cls, k: int) -> "QA":
        return A if k % 2 else ONE

    def __add__(self, other):
        other = _coerce(other)
        return QA(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return QA(-self.u, -self.v)

    def __sub__(self, other):
        other = _coerce(other)
        return QA(self.u - other.u, self.v - other.v)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QA(self.u * other.u + self.v * other.v,
                  self.u * other.v + self.v * other.u)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __bool__(self) -> bool:
        return self.u != 0 or self.v != 0

    def is_unit(self) -> bool:
        # Through Q[a]/(a^2-1) = Q x Q: both components u+v, u-v nonzero.
        return self.u + self.v != 0 and self.u - self.v != 0

    def inverse(self) -> "QA":
        plus, minus = self.u + self.v, self.u - self.v
        if plus == 0 or minus == 0:
            raise RingError(f"{self} is not invertible in Q[a]/(a^2-1)")
        ip, im = 1 / plus, 1 / minus
        return QA(Fraction(ip + im, 2), Fraction(ip - im, 2))

    def at(self, a: int) -> Fraction:
        """Evaluate at a = +1 or a = -1."""
        if a not in (1, -1):
            raise RingError("a must be +-1")
        return self.u + self.v * a

    @classmethod
    def from_components(cls, at_plus: Fraction, at_minus: Fraction) -> "QA":
        """Element with given evaluations at a = 1 and a = -1."""
        return cls(Fraction(at_plus + at_minus, 2), Fraction(at_plus - at_minus, 2))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QA(other)
        if not isinstance(other, QA):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def to_poly(self) -> LaurentPolynomial:
        return LaurentPolynomial(A_ONLY, {(0,): self.u, (1,): self.v})

    def render(self) -> str:
        return self.to_poly().render()

    __str__ = render

    def __repr__(self):
        return f"QA({self.render()})"


def _coerce(x) -> QA:
    if isinstance(x, QA):
        return x
    if isinstance(x, (int, Fraction)):
        return QA(x)
    raise RingError(f"cannot coerce {x!r} into Q[a]/(a^2-1)")


ZERO = QA(0)
ONE = QA(1)
A = QA(0, 1)


def specialize(p: LaurentPolynomial, x: QA) -> QA:
    """The image in Q[a]/(a^2-1) of p in Q[a^+-1, x^+-1] when x is sent to the unit `x`.

    p is evaluated at a = 1 and at a = -1 and the values are joined once,
    which is exact because Q[a]/(a^2-1) = Q x Q.  A p in a alone ignores `x`.
    """
    if not x.is_unit():
        raise RingError(f"x -> {x} is not a unit of Q[a]/(a^2-1)")
    return QA.from_components(*(p.evaluate({"a": a, "x": x.at(a)}) for a in (1, -1)))


def parse_qa(text: str) -> QA:
    return specialize(LaurentPolynomial.parse(text, A_ONLY), ONE)
