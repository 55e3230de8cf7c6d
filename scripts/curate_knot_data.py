#!/usr/bin/env python3
"""Re-screen the embedded braid-word catalog and rewrite its derived fields.

`src/cubictrace/data/knots.tsv` is the only copy of the curated data: each
row's word, its source (`src`), and the tabulated determinant (`det`),
Alexander polynomial (`alexander`), Conway notation (`conway`), pretzel
twists (`pretzel`), documentation-only x = a value (`xa`), notes and
x = 2a value.  This script reads the rows and identifies every prime-knot
row by `knotdata.screen_chain`, which never uses the x = 2a value:
  * components: the closure has one component;
  * det: the determinant (reduced Burau pipeline) is the tabulated one;
  * alexander: the Alexander polynomial is the tabulated one (so its span
    is twice the genus);
  * xdeg: the x-degree of the generic `+` trace, which is the z-degree of
    the Kauffman polynomial, is c - 1 on an alternating knot of crossing
    number c and below c - 1 on a prime non-alternating one
    (Thistlethwaite 1988);
  * rational: for a row with a Conway notation, the Kauffman polynomial is
    that of the 4-plat of the notation, mirrors included;
  * pretzel: for a row with pretzel twists, the Kauffman polynomial is that
    of the 6-plat of its twists, mirrors included;
  * prime: the (HOMFLY, Kauffman) pair is not the product of two rows'
    pairs (both are multiplicative under connected sum);
and the distinctness certificate: no two one-component rows agree in
(HOMFLY, Kauffman), each row compared with the other word and with its
mirror image.  Composite and other knot rows must close to one component
with an odd determinant (the tabulated one, where there is one), and link
rows to two or more components.
The rational and pretzel screens pin a row outright.  The other screens
identify a row among the prime knots through 9 crossings up to the
unpinned rows sharing its Alexander polynomial, crossing number and
alternation; such rows carry `screen=value` and name the group in
`ambiguous`.  No screen and no value separates the words of such a group
(the README names the one pair; both rows assert the same value), so which
word carries which name, and with it the documentation-only x = a value,
is arbitrary there.  The
derived fields `xdeg`, `screens`, `screen=value` and `ambiguous` are
recomputed; on a curated catalog the output is the input, byte for byte.
The x = 2a value is then computed and compared with the tabulated one; a
disagreement is reported and the tabulated value kept.
A row that fails a screen stops the run before anything is written.

The `src=catalog` words are the original catalog's; the `src=braid-table`
words are standard braid representatives (in the style of Jones's 1987
table and KnotInfo's braid notation), entered by hand; the
`src=screened-search` words were found by `scripts/search_braid_words.py`,
which screens words by the same chain, and are the shortest it met for the
row (3 strands up to length 12, 4 strands up to length 11).  Two sources
are not in the repository and cannot be rerun from it: the
`src=vectorized-search` words (5 strands, lengths 10 and 12) were found by
a numpy-vectorized form of the same enumeration, too large for the
pure-Python search; the `src=pretzel-search` word of the one row with
pretzel twists was found among 5-strand words A(s1, s2) B(s2, s3)
C(s3, s4) D(s2, s3) of length 14 by comparing with the pretzel diagram.
Every word, whatever its source, is screened here, that row by the pretzel
screen among the others.
The tabulated Alexander polynomials and Conway notations are Rolfsen's.

Run:  python3 scripts/curate_knot_data.py [--out src/cubictrace/data/knots.tsv]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubictrace.coxeter import T0Invariant
from cubictrace.knotdata import (
    COLUMNS,
    NON_ALTERNATING,
    SCREENS,
    InvariantIndex,
    KnotRecord,
    crossing_number,
    load_records,
    screen_chain,
    validate_record,
)


def curate(records: list[KnotRecord]) -> tuple[list[str], list[str]]:
    """Screen the rows; returns the catalog's TSV lines, header first, with
    the derived fields of every prime-knot row recomputed, and the
    failures."""
    index = InvariantIndex()
    failures = []
    for record in records:
        if record.kind != "link":
            other = index.match(index.add(record.name, record.braid()))
            if other != record.name:
                failures.append(f"{other} and {record.name} agree in (HOMFLY, Kauffman)")

    def is_prime(record: KnotRecord) -> bool:
        return record.kind == "knot" and crossing_number(record.name) is not None

    def signature(record: KnotRecord) -> tuple:
        return record.alexander, crossing_number(record.name), record.name in NON_ALTERNATING

    unpinned = [r for r in records if is_prime(r) and not r.plats]
    inv = T0Invariant()
    lines = ["\t".join(COLUMNS)]
    for record in records:
        provenance = record.provenance
        if is_prime(record):
            screening = screen_chain(record.braid(), [record], index)
            if screening.failed:
                failures.append(f"{record.name}: fails {screening.failed} "
                                f"(word {record.word!r})")
                continue
            # a rational or pretzel row is pinned by its diagram; the others
            # up to the unpinned rows sharing their signature
            rivals = [] if record.plats else [
                r.name for r in unpinned if r is not record and signature(r) == signature(record)]
            provenance = _provenance(record, screening.xdeg, rivals)
        else:
            validation = validate_record(record)
            if not validation.ok or record.det not in (None, validation.det):
                failures.append(f"{record.name}: fails components/det (word {record.word!r})")
        if record.expected_x2a is not None:
            value = inv.value(record.braid())
            if value != record.expected_x2a:
                print(f"{record.name}: VALUE DISAGREES: computed {value.render()}, tabulated "
                      f"{record.expected_x2a.render()}; the row keeps the tabulated value")
        expected = "unknown" if record.expected_x2a is None else record.expected_x2a.render()
        lines.append("\t".join((record.name, str(record.strands), record.word, expected,
                                record.kind, provenance)))
    return lines, failures


def _provenance(record: KnotRecord, xdeg: int, rivals: list[str]) -> str:
    """A prime-knot row's provenance with its derived fields rewritten."""
    field = record.provenance_field
    screens = [s for s in SCREENS if s not in ("rational", "pretzel") or s in record.plats]
    text = (f"src={field('src')};det={field('det')};alexander={field('alexander')};"
            f"xdeg={xdeg};screens={','.join(screens)},distinct")
    for key in ("conway", "pretzel"):
        if field(key):
            text += f";{key}={field(key)}"
    if rivals:
        text += f";screen=value;ambiguous={'/'.join([record.name] + rivals)}"
    return f"{text};xa={field('xa')}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "src" / "cubictrace" / "data" / "knots.tsv"))
    args = ap.parse_args(argv)

    lines, failures = curate(load_records())
    if failures:
        for failure in failures:
            print(f"FAILED {failure}")
        print(f"{len(failures)} rows fail their screens; nothing written")
        return 1
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines) - 1} rows to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
