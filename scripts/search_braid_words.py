#!/usr/bin/env python3
"""Search braid words for catalog knots, screening without the x = 2a value.

Words on n strands are enumerated depth-first in a normal form: freely
reduced, commuting neighbours in increasing generator order (one word per
commutation class), every generator used at least twice, and no cyclic
split into a word on strands 1..k followed by one on strands k..n (whose
closure is a connected sum).  A word whose permutation is an n-cycle then
meets the catalog screens, cheapest first:

  1. determinant, from the integer reduced Burau matrix at t = -1 carried
     along the search, by the library's `burau.closure_determinant`;
  2. the tabulated Alexander polynomial;
  3. crossing-number screen on the Kauffman x-degree;
  4. for a rational or pretzel knot, its Kauffman polynomial against the
     plat of the tabulated Conway notation or twists;
  5. prime screen and distinctness from every catalog row (HOMFLY and
     Kauffman, mirrors included).

The words are deduplicated up to rotation, reversal, mirror image and the
flip s_i -> s_(n-i).  Every word passing all screens is printed with its
x = 2a value for the record; the value never accepts or rejects a word.
When one row meets several distinct knots at its shortest length, the
screens leave the choice to the value, and the summary says so.

By default the targets are the tabulated knots with no row in the data
file.

Run:  python3 scripts/search_braid_words.py --strands 4 --lengths 9,11 \\
          [--names 9_45,9_49]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from cubictrace.braids import BraidWord
from cubictrace.burau import alexander_coefficients, burau_at_minus_one, closure_determinant
from cubictrace.coxeter import T0Invariant
from cubictrace.knotdata import (
    InvariantIndex,
    NON_ALTERNATING,
    crossing_number,
    crossing_screen,
    load_records,
    plat_screen,
    pretzel_plat,
    rational_plat,
    x_degree,
)
from cubictrace.skein import markov_trace_pm_fast

from curate_knot_data import CONWAY, KNOTS, PRETZEL


# -- enumeration ----------------------------------------------------------------------


def _follows(prev: int, letter: int) -> bool:
    if prev == -letter:
        return False
    # commuting neighbours appear in increasing generator order
    return not (abs(abs(prev) - abs(letter)) >= 2 and abs(prev) > abs(letter))


def _is_n_cycle(word: tuple[int, ...], n: int) -> bool:
    perm = list(range(n))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    length, j = 1, perm[0]
    while j != 0:
        j, length = perm[j], length + 1
    return length == n


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
    """Yield (word, Burau image at t = -1) over the normal-form words of
    length >= 1 on n strands."""
    letters = burau_at_minus_one(n)
    alphabet = [i for i in range(1, n)] + [-i for i in range(1, n)]
    stack = [((letter,), letters[letter]) for letter in alphabet]
    while stack:
        word, product = stack.pop()
        if len(word) == length:
            if (word[0] != -word[-1] and _is_n_cycle(word, n)
                    and all(sum(abs(x) == i for x in word) >= 2 for i in range(1, n))
                    and not _splits(word, n)):
                yield word, product
            continue
        prev = word[-1]
        for letter in alphabet:
            if _follows(prev, letter):
                stack.append((word + (letter,), product * letters[letter]))


# -- screens --------------------------------------------------------------------------


def tabulated(name: str) -> tuple[int, tuple[int, ...], int, bool]:
    """(det, Alexander coefficients, crossing number, alternating) from the curation table."""
    _, _, _, det, alexander, _, _ = KNOTS[name]
    return (det, tuple(map(int, alexander.split())), crossing_number(name),
            name not in NON_ALTERNATING)


def search(n: int, length: int, names: list[str], index: InvariantIndex,
           unindexed: list[tuple[str, BraidWord]], inv: T0Invariant,
           found: dict[str, dict]) -> int:
    """Screen the normal words of one length; `unindexed` rows are added to
    `index` (both generic traces of each, seconds in all) when the first
    word reaches screen 5, and the list is emptied."""
    by_det: dict[int, list[str]] = {}
    for name in names:
        det, _, crossings, _ = tabulated(name)
        if crossings <= length:
            by_det.setdefault(det, []).append(name)
    seen = set()
    checks = 0
    for word, product in normal_words(n, length):
        candidates = by_det.get(closure_determinant(product, n))
        if not candidates:
            continue
        form = canonical(word, n)
        if form in seen:
            continue
        seen.add(form)
        braid = BraidWord(n, word)
        alexander = alexander_coefficients(braid)
        candidates = [name for name in candidates if tabulated(name)[1] == alexander]
        if not candidates:
            continue
        checks += 1
        trace = markov_trace_pm_fast(braid, "+", index.evaluator)
        xdeg = x_degree(trace)
        candidates = [name for name in candidates if crossing_screen(name, xdeg)
                      and (name not in CONWAY or plat_screen(
                          trace, rational_plat(CONWAY[name]), index.evaluator))
                      and (name not in PRETZEL or plat_screen(
                          trace, pretzel_plat(PRETZEL[name]), index.evaluator))]
        if not candidates:
            continue
        for name, row_braid in unindexed:
            index.add(name, row_braid)
        unindexed.clear()
        pair = index.key(braid)
        if index.match(pair) or index.factor(pair):
            continue
        key = frozenset((pair, index.key(braid.mirror())))
        for name in candidates:
            knots = found.setdefault(name, {})
            if key in knots:
                continue
            knots[key] = (n, word)
            print(f"HIT {name}: ({n}, {' '.join(map(str, word))!r})  xdeg={xdeg} "
                  f"x2a={inv.value(braid).render()}", flush=True)
    return checks


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--strands", type=int, required=True)
    ap.add_argument("--lengths", required=True, help="comma-separated word lengths")
    ap.add_argument("--names", help="comma-separated rows (default: rows missing a word)")
    args = ap.parse_args()

    records = load_records()
    present = {r.name for r in records}
    names = args.names.split(",") if args.names else [k for k in KNOTS if k not in present]
    index = InvariantIndex()
    unindexed = [(record.name, record.braid()) for record in records
                 if record.kind != "link" and record.name not in names]
    inv = T0Invariant()
    found: dict[str, dict] = {}
    for length in map(int, args.lengths.split(",")):
        if length % 2 != (args.strands - 1) % 2:
            print(f"# length {length} closes to a link on {args.strands} strands; skipped",
                  file=sys.stderr)
            continue
        start = time.time()
        checks = search(args.strands, length, names, index, unindexed, inv, found)
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
