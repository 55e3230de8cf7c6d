"""Embedded braid-word catalog for the invariant tables.

The data file is TSV with columns

    name  strands  word  expected_x2a  kind  provenance

`expected_x2a` is the expected value of the x = 2a invariant in canonical
Q[a]/(a^2-1) text ("0", "16", "3*a") or "unknown".  `kind` is knot, link or
composite.  `provenance` records where the braid word comes from and which
screens identified it; it is free-form `key=value` pairs separated by
semicolons (tabulated "det" and "alexander" coefficients, the Kauffman
"xdeg", the passed "screens", the Conway notation of a rational knot, the
twists of a pretzel knot, the documentation-only x = a value as "xa=..").

A prime-knot row is identified without the value it asserts, by
`screen_chain`: its closure has one component, its determinant and
Alexander polynomial match the tabulated ones, the x-degree of its Kauffman
trace passes the crossing-number screen, a rational knot's Kauffman
polynomial is that of the 4-plat of its Conway notation and a pretzel
knot's that of the 6-plat of its twists, and its (HOMFLY, Kauffman) pair is
not a product of two rows'.  The distinctness certificate (`InvariantIndex`)
separates it from every other row.  Rows that these screens leave open
carry "screen=value" and name the alternatives in "ambiguous".

Row validation is a data-integrity screen, not an assertion of the table:
words must parse, knots must close to one component, and knot determinants
must be odd.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .braids import BraidWord, component_count, parse_braid
from .burau import alexander_coefficients
from .hecke import MAX_STRANDS, OcneanuTrace
from .qa import QA, parse_qa
from .rings import LaurentPolynomial, RingError
from .skein import KauffmanEvaluator, alexander_det, diagram_from_plat, markov_trace_pm_fast

COLUMNS = ("name", "strands", "word", "expected_x2a", "kind", "provenance")


@dataclass(frozen=True)
class KnotRecord:
    name: str
    strands: int
    word: str
    expected_x2a: QA | None
    kind: str
    provenance: str

    def braid(self) -> BraidWord:
        return parse_braid(self.word, self.strands)

    @property
    def strict(self) -> bool:
        """Strictly asserted rows: knots and composites with known values."""
        return self.kind in ("knot", "composite") and self.expected_x2a is not None \
            and "optional" not in self.provenance

    def provenance_field(self, key: str) -> str | None:
        for chunk in self.provenance.split(";"):
            k, _, v = chunk.partition("=")
            if k.strip() == key:
                return v.strip()
        return None

    @property
    def det(self) -> int | None:
        """The tabulated determinant."""
        det = self.provenance_field("det")
        return None if det is None else int(det)

    @property
    def alexander(self) -> tuple[int, ...] | None:
        """The tabulated Alexander coefficients, lowest degree first."""
        alexander = self.provenance_field("alexander")
        return None if alexander is None else tuple(map(int, alexander.split(",")))

    @property
    def plats(self) -> dict[str, BraidWord]:
        """The plats that pin the row, by screen: "rational" for a tabulated
        Conway notation, "pretzel" for tabulated pretzel twists."""
        plats = {}
        if (conway := self.provenance_field("conway")) is not None:
            plats["rational"] = rational_plat(conway)
        if (twists := self.provenance_field("pretzel")) is not None:
            plats["pretzel"] = pretzel_plat(tuple(map(int, twists.split(","))))
        return plats


class DataError(ValueError):
    pass


def parse_records(text: str) -> list[KnotRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts == list(COLUMNS):
            continue
        if len(parts) != len(COLUMNS):
            raise DataError(f"line {lineno}: expected {len(COLUMNS)} columns, got {len(parts)}")
        name, strands, word, expected, kind, provenance = parts
        if kind not in ("knot", "link", "composite"):
            raise DataError(f"line {lineno}: bad kind {kind!r}")
        try:
            n = int(strands)
        except ValueError:
            raise DataError(f"line {lineno}: strands {strands!r} is not an integer") from None
        if n > MAX_STRANDS:
            raise DataError(f"line {lineno}: {n} strands; at most {MAX_STRANDS} are taken")
        try:
            expected_qa = None if expected.strip() == "unknown" else parse_qa(expected)
        except (RingError, ZeroDivisionError) as exc:
            raise DataError(f"line {lineno}: expected_x2a {expected!r} is not a polynomial in a: "
                            f"{exc}") from None
        records.append(KnotRecord(
            name=name.strip(),
            strands=n,
            word=word.strip(),
            expected_x2a=expected_qa,
            kind=kind,
            provenance=provenance.strip(),
        ))
    return records


def load_records(path: str | Path | None = None) -> list[KnotRecord]:
    if path is not None:
        text = Path(path).read_text()
    else:
        text = (importlib.resources.files("cubictrace") / "data" / "knots.tsv").read_text()
    return parse_records(text)


@dataclass
class RecordValidation:
    record: KnotRecord
    parses: bool
    component_ok: bool
    det: int | None
    det_odd_ok: bool

    @property
    def ok(self) -> bool:
        return self.parses and self.component_ok and self.det_odd_ok


def validate_record(record: KnotRecord) -> RecordValidation:
    try:
        braid = record.braid()
    except Exception:
        return RecordValidation(record, False, False, None, False)
    ncomp = component_count(braid)
    if record.kind == "knot" or record.kind == "composite":
        comp_ok = ncomp == 1
    else:
        comp_ok = ncomp >= 2
    det = alexander_det(braid)
    det_odd = det % 2 == 1 if record.kind in ("knot", "composite") else True
    return RecordValidation(record, True, comp_ok, det, det_odd)


# -- identifying screens ----------------------------------------------------------

# The prime knots through 9 crossings without an alternating diagram.
NON_ALTERNATING = frozenset({"8_19", "8_20", "8_21"} | {f"9_{k}" for k in range(42, 50)})


def crossing_number(name: str) -> int | None:
    """The crossing number in a Rolfsen name such as "9_42", else None."""
    head, sep, tail = name.partition("_")
    return int(head) if sep and head.isdigit() and tail.isdigit() else None


def x_degree(trace: LaurentPolynomial) -> int:
    """Top x-degree of a generic `+` trace, i.e. the z-degree of the Kauffman polynomial."""
    return max(mono[1] for mono, _ in trace.sorted_terms())


def crossing_screen(name: str, xdeg: int) -> bool:
    """Thistlethwaite (1988): the Kauffman z-degree is c - 1 on a knot with a
    reduced alternating diagram of c crossings, and below c - 1 on a prime
    non-alternating knot of crossing number c."""
    c = crossing_number(name)
    if c is None:
        raise DataError(f"{name!r} is not a Rolfsen knot name")
    return xdeg <= c - 2 if name in NON_ALTERNATING else xdeg == c - 1


def rational_plat(conway: str) -> BraidWord:
    """A 4-braid whose plat closure is the rational knot C(a1, ..., an).

    `conway` lists the digits a1 ... an; the braid is s2^a1 s1^-a2 s2^a3 ...
    with an odd number of terms, a final a_n being rewritten as a_n - 1, 1.
    """
    terms = [int(digit) for digit in conway]
    if len(terms) % 2 == 0:
        terms[-1:] = [terms[-1] - 1, 1]
    letters: list[int] = []
    for k, count in enumerate(terms):
        letters += [2 if k % 2 == 0 else -1] * count
    return BraidWord(4, tuple(letters))


def _up_to_a_power(p: LaurentPolynomial) -> LaurentPolynomial:
    (low, _), _ = p.sorted_terms()[0]  # the least exponent of a
    return p * LaurentPolynomial.var("a", p.variables, -low)


def pretzel_plat(twists: tuple[int, ...]) -> BraidWord:
    """A 2k-braid whose plat closure is the pretzel knot P(p1, ..., pk).

    Column j < k twists the strands 2j, 2j+1 by s_2j^pj; the last column
    joins strands 2k and 1 around the outside, so strand 2k is carried over
    to strand 2 by X = s_(2k-1) ... s_2, twisted with strand 1 and carried
    back: the braid is s_2^p1 s_4^p2 ... X s_1^pk X^-1.
    """
    k = len(twists)
    letters: list[int] = []
    for j, count in enumerate(twists[:-1], 1):
        letters += [2 * j if count > 0 else -2 * j] * abs(count)
    carry = list(range(2 * k - 1, 1, -1))
    letters += carry + [1 if twists[-1] > 0 else -1] * abs(twists[-1])
    letters += [-g for g in reversed(carry)]
    return BraidWord(2 * k, tuple(letters))


def plat_screen(trace: LaurentPolynomial, plat: BraidWord,
                evaluator: KauffmanEvaluator | None = None) -> bool:
    """`trace`, the generic `+` trace of a closure, is the Kauffman polynomial
    of the plat closure of `plat` or of its mirror image (compared up to a
    power of a, which absorbs the writhe normalization)."""
    evaluator = evaluator or KauffmanEvaluator("+")
    trace = _up_to_a_power(trace)
    return any(_up_to_a_power(evaluator.value(diagram_from_plat(image))) == trace
               for image in (plat, plat.mirror()))


def invariant_key(braid: BraidWord, evaluator: KauffmanEvaluator | None = None,
                  tracer: OcneanuTrace | None = None
                  ) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """(HOMFLY, Kauffman `+` trace) of the closure."""
    return (tracer or OcneanuTrace()).of_braid(braid), markov_trace_pm_fast(braid, "+", evaluator)


class InvariantIndex:
    """(HOMFLY, Kauffman) of named knots and of their mirror images.

    `match` names the first indexed knot with a given pair, which is what
    the distinctness certificate rules out for any other knot.  `factor`
    names two indexed knots whose pairs multiply to a given pair: both
    polynomials are
    multiplicative under connected sum, so this flags composite knots.
    HOMFLY alone would not do: 9_12 has the HOMFLY polynomial of 4_1 # 5_2.
    Products are looked up by the HOMFLY value at a rational point and then
    confirmed exactly.
    """

    POINT = {"x": Fraction(3, 7), "y": Fraction(-5, 2)}

    def __init__(self):
        self.evaluator = KauffmanEvaluator("+")
        self.tracer = OcneanuTrace()
        self._names: dict[tuple[LaurentPolynomial, LaurentPolynomial], str] = {}
        self._keys: list[tuple[str, tuple[LaurentPolynomial, LaurentPolynomial], Fraction]] = []
        self._deferred: list[tuple[str, BraidWord]] = []
        self._pairs: dict[BraidWord, tuple[LaurentPolynomial, LaurentPolynomial]] = {}

    def key(self, braid: BraidWord) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        """`invariant_key` of the closure, computed once per braid word."""
        pair = self._pairs.get(braid)
        if pair is None:
            pair = self._pairs[braid] = invariant_key(braid, self.evaluator, self.tracer)
        return pair

    def add(self, name: str, braid: BraidWord) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        """Index the closure and its mirror image; returns the closure's pair."""
        keys = [self.key(image) for image in (braid, braid.mirror())]
        for key in keys:
            self._names.setdefault(key, name)
            self._keys.append((name, key, key[0].evaluate(self.POINT)))
        return keys[0]

    def defer(self, name: str, braid: BraidWord) -> None:
        """`add` the closure when `match` or `factor` first needs it (both
        traces of it and of its mirror image cost far more than a lookup)."""
        self._deferred.append((name, braid))

    def _add_deferred(self) -> None:
        for name, braid in self._deferred:
            self.add(name, braid)
        self._deferred.clear()

    def match(self, key: tuple[LaurentPolynomial, LaurentPolynomial]) -> str | None:
        self._add_deferred()
        return self._names.get(key)

    def factor(self, key: tuple[LaurentPolynomial, LaurentPolynomial]) -> tuple[str, str] | None:
        self._add_deferred()
        homfly, kauffman = key
        value = homfly.evaluate(self.POINT)
        by_value: dict[Fraction, list[tuple[str, tuple]]] = {}
        for name, key, at_point in self._keys:
            by_value.setdefault(at_point, []).append((name, key))
        everything = [(name, key) for name, key, _ in self._keys]
        for name_a, (homfly_a, kauffman_a), at_point in self._keys:
            if at_point:
                partners = by_value.get(value / at_point, ())
            else:
                partners = everything if value == 0 else ()
            for name_b, (homfly_b, kauffman_b) in partners:
                if homfly_a * homfly_b == homfly and kauffman_a * kauffman_b == kauffman:
                    return name_a, name_b
        return None


# The screens of `screen_chain`, in the order it runs them.
SCREENS = ("components", "det", "alexander", "xdeg", "rational", "pretzel", "prime")


@dataclass
class Screening:
    """Where a closure left `screen_chain`."""

    failed: str | None  # the screen that ruled out the last candidate row; None if none did
    rows: list[KnotRecord]  # the candidate rows that passed every screen
    xdeg: int | None = None  # the Kauffman x-degree, once the trace was taken
    key: tuple[LaurentPolynomial, LaurentPolynomial] | None = None  # once the prime screen ran


def screen_chain(braid: BraidWord, rows: list[KnotRecord], index: InvariantIndex) -> Screening:
    """Screen a closure against the tabulated data of candidate knot rows,
    never their x = 2a values, cheapest screen first (`SCREENS`).

    Each screen drops the rows it rules out; components and prime judge
    the closure alone.  The Kauffman trace is taken only for a closure that
    passes the Alexander screen, and the HOMFLY trace only for one that
    passes the plat screens.
    """
    if component_count(braid) != 1:
        return Screening("components", [])
    det = alexander_det(braid)
    rows = [row for row in rows if row.det == det]
    if not rows:
        return Screening("det", [])
    alexander = alexander_coefficients(braid)
    rows = [row for row in rows if row.alexander == alexander]
    if not rows:
        return Screening("alexander", [])
    trace = markov_trace_pm_fast(braid, "+", index.evaluator)
    xdeg = x_degree(trace)

    rows = [row for row in rows if crossing_screen(row.name, xdeg)]
    if not rows:
        return Screening("xdeg", [], xdeg)
    for screen in ("rational", "pretzel"):
        rows = [row for row in rows if (plat := row.plats.get(screen)) is None
                or plat_screen(trace, plat, index.evaluator)]
        if not rows:
            return Screening(screen, [], xdeg)
    key = index.key(braid)
    if index.factor(key):
        return Screening("prime", [], xdeg, key)
    return Screening(None, rows, xdeg, key)
