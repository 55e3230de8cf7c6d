"""Finite linear combinations of basis keys: the one sparse-module type.

The algebras here are free modules over small coefficient rings: the
Hecke algebra on {T_w}, the extended Temperley-Lieb algebra on normal
words + {C}, and formal sums of braid words in H_3.  `Combination` is that
module element.  (The extended (-1)-Hecke module of `coxeter` is acted on
as plain dicts keyed by element ids.)  It relies only on the coefficients'
own `+`, `*` and truth value (false exactly at zero), so `int`,
`Fraction`, `QA` and `LaurentPolynomial` all serve, and it never learns
which ring it holds: code that multiplies coefficients also reduces them
(see `map`).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Mapping


class Combination:
    """An immutable sum of keys with nonzero coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping):
        object.__setattr__(self, "coeffs", {k: v for k, v in coeffs.items() if v})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def collect(cls, terms: Iterable[tuple[object, object]]):
        """The sum of (key, coefficient) terms; a key may repeat."""
        acc: dict = {}
        for key, coeff in terms:
            s = acc.get(key)
            acc[key] = coeff if s is None else s + coeff
        return cls(acc)

    def __add__(self, other):
        return self.collect(chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return type(self)({k: v * c for k, v in self.coeffs.items()})

    def map(self, f: Callable):
        """Apply f to every coefficient, e.g. a ring reduction or a specialization."""
        return type(self)({k: f(v) for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"
