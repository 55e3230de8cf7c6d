#!/usr/bin/env python3
"""Search braid words for catalog knots, screening without the x = 2a value.

Words on n strands are enumerated depth-first in a normal form: freely
reduced, commuting neighbours in increasing generator order (one word per
commutation class), every generator used at least twice, and no cyclic
split into a word on strands 1..k followed by one on strands k..n (whose
closure is a connected sum).  A word whose permutation is an n-cycle then
meets the screens of the target rows named by `--names`, which read each
row's tabulated data from the catalog:

  1. determinant, by the library's `burau.closure_determinant`, from the
     integer reduced Burau image at t = -1 that the search carries: each
     pushed letter updates its parent's image by one `burau.burau_step`;
  2. the rest of `knotdata.screen_chain`, cheapest first: the tabulated
     Alexander polynomial, the crossing-number screen on the Kauffman
     x-degree, for a rational or pretzel knot its Kauffman polynomial
     against the plat of the tabulated Conway notation or twists, and the
     prime screen;
  3. distinctness from every other catalog row (HOMFLY and Kauffman,
     mirrors included).

The words are deduplicated up to rotation, reversal, mirror image and the
flip s_i -> s_(n-i).  Every word passing all screens is printed with its
x = 2a value for the record; the value never accepts or rejects a word.
When one row meets several distinct knots at its shortest length, the
screens leave the choice to the value, and the summary says so.

Run:  python3 scripts/search_braid_words.py --strands 4 --lengths 9,11 \\
          --names NAME[,NAME...]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubictrace.braids import BraidWord, cycle_count
from cubictrace.burau import burau_step, closure_determinant, working_identity
from cubictrace.coxeter import T0Invariant
from cubictrace.knotdata import (
    InvariantIndex,
    KnotRecord,
    crossing_number,
    load_records,
    screen_chain,
)


# -- enumeration ----------------------------------------------------------------------


def _follows(prev: int, letter: int) -> bool:
    if prev == -letter:
        return False
    # commuting neighbours appear in increasing generator order
    return not (abs(abs(prev) - abs(letter)) >= 2 and abs(prev) > abs(letter))


def _splits(word: tuple[int, ...], n: int) -> bool:
    for k in range(2, n):
        high = [abs(x) >= k for x in word]
        if sum(1 for i in range(len(high)) if high[i] != high[i - 1]) <= 2:
            return True
    return False


def canonical(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Least form up to rotation, reversal, mirror image and s_i -> s_(n-i)."""
    flip = tuple((n - abs(x)) * (1 if x > 0 else -1) for x in word)
    forms = []
    for w in (word, flip):
        for v in (w, tuple(-x for x in w)):
            for u in (v, v[::-1]):
                forms.extend(u[i:] + u[:i] for i in range(len(u)))
    return min(forms)


def normal_words(n: int, length: int):
    """Yield (word, integer Burau image at t = -1, as `closure_determinant`
    takes it) over the normal-form words of length >= 1 on n strands."""
    alphabet = [i for i in range(1, n)] + [-i for i in range(1, n)]
    start = working_identity(n)
    stack = [((letter,), burau_step(start, letter, -1, -1)) for letter in alphabet]
    while stack:
        word, rows = stack.pop()
        if len(word) == length:
            if (word[0] != -word[-1] and cycle_count(BraidWord(n, word).permutation()) == 1
                    and all(sum(abs(x) == i for x in word) >= 2 for i in range(1, n))
                    and not _splits(word, n)):
                yield word, rows
            continue
        prev = word[-1]
        for letter in alphabet:
            if _follows(prev, letter):
                stack.append((word + (letter,), burau_step(rows, letter, -1, -1)))


# -- search ---------------------------------------------------------------------------


def search(n: int, length: int, targets: list[KnotRecord], index: InvariantIndex,
           inv: T0Invariant, found: dict[str, dict]) -> int:
    """Screen the normal words of one length against the target rows;
    returns the number of words that reached the Kauffman trace."""
    by_det: dict[int, list[KnotRecord]] = {}
    for row in targets:
        if crossing_number(row.name) <= length:
            by_det.setdefault(row.det, []).append(row)
    seen = set()
    checks = 0
    for word, rows in normal_words(n, length):
        det = closure_determinant(rows, n)
        if det not in by_det:
            continue
        form = canonical(word, n)
        if form in seen:
            continue
        seen.add(form)
        braid = BraidWord(n, word)
        screening = screen_chain(braid, by_det[det], index)
        checks += screening.xdeg is not None
        if screening.failed or index.match(screening.key):
            continue
        key = frozenset((screening.key, index.key(braid.mirror())))
        for row in screening.rows:
            knots = found.setdefault(row.name, {})
            if key in knots:
                continue
            knots[key] = (n, word)
            print(f"HIT {row.name}: ({n}, {' '.join(map(str, word))!r})  "
                  f"xdeg={screening.xdeg} x2a={inv.value(braid).render()}", flush=True)
    return checks


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--strands", type=int, required=True)
    ap.add_argument("--lengths", required=True, help="comma-separated word lengths")
    ap.add_argument("--names", required=True, help="comma-separated prime-knot rows")
    args = ap.parse_args()

    records = load_records()
    rows = {r.name: r for r in records
            if r.kind == "knot" and crossing_number(r.name) is not None}
    names = args.names.split(",")
    unknown = [name for name in names if name not in rows]
    if unknown:
        ap.error(f"no prime-knot row named {', '.join(unknown)}")
    index = InvariantIndex()
    for record in records:
        if record.kind != "link" and record.name not in names:
            index.defer(record.name, record.braid())
    inv = T0Invariant()
    found: dict[str, dict] = {}
    for length in map(int, args.lengths.split(",")):
        if length % 2 != (args.strands - 1) % 2:
            print(f"# length {length} closes to a link on {args.strands} strands; skipped",
                  file=sys.stderr)
            continue
        start = time.time()
        checks = search(args.strands, length, [rows[name] for name in names], index, inv, found)
        print(f"# strands {args.strands} length {length}: {checks} full checks, "
              f"{time.time() - start:.1f}s", file=sys.stderr, flush=True)

    print("\n# summary")
    for name in names:
        knots = found.get(name, {})
        note = "" if len(knots) < 2 else f"  # {len(knots)} distinct knots pass the screens"
        for n, word in knots.values():
            print(f'    "{name}": ({n}, "{" ".join(map(str, word))}"),{note}')
    missing = [name for name in names if name not in found]
    if missing:
        print(f"# STILL MISSING: {missing}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
