"""Braid words, Markov moves, and the component-counting invariants.

A braid on n strands is a word in the Artin generators, written as a list
of nonzero integers i with |i| <= n-1 (sign = crossing sign).  The text
format everywhere (CLI flags, TSV data) is whitespace-separated signed
integers, e.g. the figure-eight braid on 3 strands is "1 -2 1 -2".

Two families of link invariants live directly at this level:

* `parity_invariant`: a^(#components) in Q[a]/(a^2-1), which equals
  a^(n + writhe) by the parity of the underlying permutation's cycles;
* `component_trace`: x_(#components) for an arbitrary sequence (x_k), the
  totality of Markov traces at the degenerate point x = -2a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .qa import QA


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise BraidError("strand count must be positive")
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) > self.strands - 1:
                raise BraidError(
                    f"letter {x} out of range for {self.strands} strands"
                )

    def writhe(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """Underlying permutation of {0..n-1}, top-of-strand images."""
        perm = list(range(self.strands))
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in self.letters))

    def reverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(reversed(self.letters)))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise BraidError("cannot concatenate braids on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def render(self) -> str:
        return " ".join(str(x) for x in self.letters)

    def __str__(self):
        return self.render()


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices."""
    letters = []
    for token in text.split():
        try:
            letters.append(int(token))
        except ValueError as exc:
            raise BraidError(f"non-integer braid letter {token!r}") from exc
    return BraidWord(strands, tuple(letters))


def cycle_count(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def component_count(w: BraidWord) -> int:
    """Number of components of the closure = cycles of the permutation."""
    return cycle_count(w.permutation())


def conjugate(w: BraidWord, g: BraidWord) -> BraidWord:
    """g^-1 w g; the closure is unchanged."""
    if g.strands != w.strands:
        raise BraidError("conjugating braid must share the strand count")
    return g.inverse() * w * g

def stabilize_pos(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands + 1, w.letters + (w.strands,))


def stabilize_neg(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands + 1, w.letters + (-w.strands,))


def markov_move(w: BraidWord, move: str, g: BraidWord | None = None) -> BraidWord:
    if move == "conjugate":
        if g is None:
            raise BraidError("conjugation needs a conjugating braid")
        return conjugate(w, g)
    if move == "stabilize_pos":
        return stabilize_pos(w)
    if move == "stabilize_neg":
        return stabilize_neg(w)
    raise BraidError(f"unknown Markov move {move!r}")


def parity_invariant(w: BraidWord) -> QA:
    """a^(#L) in Q[a]/(a^2-1); equals a^(n + writhe) by the parity lemma."""
    return QA.a_power(component_count(w))


def component_trace(w: BraidWord, sequence: Mapping[int, object] | Callable[[int], object]):
    """Value of the sequence at the number of closure components."""
    k = component_count(w)
    if callable(sequence):
        return sequence(k)
    if k not in sequence:
        raise BraidError(f"sequence not defined at component count {k}")
    return sequence[k]
