"""Command-line interface.

Subcommands:
  invariant  evaluate one invariant of one braid closure
  table      recompute the x = 2a invariant over the embedded catalog
  verify     run the verification suites

`kauffman+ --at P` prints the point value of `skein.kauffman_at_point`:
the `+` trace at a = 1 and the `-` (Dubrovnik) trace at a = -1, joined
in Q[a]/(a^2-1); `kauffman-` takes no `--at`.

Exit code 0 means every strict comparison passed.  Bad braid or ring input,
an `--at` or `--base` the chosen invariant does not take, more strands than
the Hecke and theorem-trace engines take (`hecke.MAX_STRANDS`), a
`--pit-points` below 1, an unreadable `table --input` file, one without
catalog rows or a malformed row in it exits with code 2 and a one-line
message.  A reader
that closes the output pipe early (`| head`) ends the run quietly with
code 141, as a shell reports a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .braids import BraidError, BraidWord, parity_invariant, parse_braid
from .coxeter import T0Invariant
from .hecke import OcneanuTrace, hecke_trace_qa, parity_tracers
from .knotdata import DataError
from .qa import A
from .rings import RingError
from .skein import kauffman_at_point, markov_trace_pm_fast
from .verify import run_suite, table_report

# the image of x in Q[a]/(a^2-1) named by --at
AT_POINTS = {
    "x2a": 2 * A,
    "xa": A,
    "xm2a": -2 * A,
}


def _braid_from_args(args) -> BraidWord:
    if args.braid is None or args.strands is None:
        raise BraidError("--braid and --strands are required")
    return parse_braid(args.braid, args.strands)


def cmd_invariant(args) -> int:
    braid = _braid_from_args(args)
    which = args.which
    if which in ("t0x2a", "parity", "kauffman-") and args.at is not None:
        raise RingError(f"{which} takes no --at")
    if which != "t0x2a" and args.base is not None:
        raise RingError(f"{which} takes no --base")
    if which == "t0x2a":
        value = T0Invariant(Fraction(args.base or 0)).value(braid)
        print(value.render())
    elif which == "hecke":
        if args.at is None:
            print(OcneanuTrace().of_braid(braid).render())
        elif args.at == "x2a":
            print(hecke_trace_qa(braid, parity_tracers()).render())
        else:
            raise RingError("hecke supports --at x2a only")
    elif which in ("kauffman+", "kauffman-"):
        if args.at is None:
            print(markov_trace_pm_fast(braid, which[-1]).render())
        else:
            print(kauffman_at_point(braid, AT_POINTS[args.at]).render())
    else:  # parity
        print(parity_invariant(braid).render())
    return 0


def cmd_table(args) -> int:
    rep = table_report(path=args.input)
    print(rep.render(timings=args.timings))
    return 0 if rep.ok else 1


def cmd_verify(args) -> int:
    if args.pit_points < 1:
        raise RingError(f"--pit-points must be at least 1, got {args.pit_points}")
    rep = run_suite(args.suite, seed=args.seed, pit_points=args.pit_points)
    print(rep.render(timings=args.timings))
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubictrace", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="evaluate one invariant of a braid closure")
    inv.add_argument("--which", required=True,
                     choices=["t0x2a", "hecke", "kauffman+", "kauffman-", "parity"])
    inv.add_argument("--braid", help="whitespace-separated signed generator indices")
    inv.add_argument("--strands", type=int)
    inv.add_argument("--at", choices=sorted(AT_POINTS), default=None,
                     help="the image of x in Q[a]/(a^2-1); kauffman+ then joins + at "
                          "a = 1 with - at a = -1")
    inv.add_argument("--base", type=int, default=None,
                     help="t0x2a only: base value of the theorem trace, default 0 "
                          "(provably irrelevant)")
    inv.set_defaults(func=cmd_invariant)

    tab = sub.add_parser("table", help="recompute the x = 2a invariant catalog")
    tab.add_argument("--input", default=None, help="alternate TSV path")
    tab.add_argument("--timings", action="store_true")
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", default="all",
                     choices=["h3", "braid", "skein", "hecke", "coxeter", "tl", "all"])
    ver.add_argument("--seed", type=int, default=0,
                     help="seed of the sampled checks; 0 (the default) keeps each "
                          "suite's own seed")
    ver.add_argument("--pit-points", type=int, default=7, dest="pit_points")
    ver.add_argument("--timings", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere, so that
        # the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (BraidError, DataError, OSError, RingError) as exc:
        print(f"cubictrace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
