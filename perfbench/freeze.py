"""Freeze the benchmark inputs and record the reference digests.

    python3 perfbench/freeze.py

Writes, only if they are missing, the frozen inputs under perfbench/inputs/:
`catalog.tsv`, a copy of the library's catalog, and `braids.tsv`, the
braid-stream sample of 60 braids with 3-5 strands and 8-14 letters drawn
from random.Random(0).  Then records their content hashes and the digest of
one pass of every workload in perfbench/reference.json.  Re-running it
re-records the reference from the current program, which only a change
that means to alter the program's outputs should do.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402
from worker import run_pass  # noqa: E402

STREAM_SIZE = 60


def braid_sample(rng: random.Random) -> list[str]:
    lines = ["# strands\tword; the braid-stream sample, drawn by perfbench/freeze.py"]
    for _ in range(STREAM_SIZE):
        n = rng.randint(3, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(8, 14))]
        lines.append(f"{n}\t{' '.join(map(str, letters))}")
    return lines


def main() -> int:
    workloads.INPUTS.mkdir(exist_ok=True)
    catalog = workloads.INPUTS / "catalog.tsv"
    if not catalog.exists():
        shutil.copyfile(ROOT / "src" / "cubictrace" / "data" / "knots.tsv", catalog)
    stream = workloads.INPUTS / "braids.tsv"
    if not stream.exists():
        stream.write_text("\n".join(braid_sample(random.Random(0))) + "\n")
    reference = {"inputs": {p.name: workloads.file_sha256(p) for p in (catalog, stream)},
                 "digests": {}}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    for name, workload in workloads.WORKLOADS.items():
        items = workload.items()
        result = run_pass(workload, items, range(len(items)), NullTracer(), workloads.LAYERS,
                          calibrate=False)
        if result["failed"]:
            print(f"{name}: {result['failed']} items failed; no reference recorded", file=sys.stderr)
            return 1
        reference["digests"][name] = result["digest"]
        print(f"{name}: {result['digest']} ({result['seconds']:.2f} s)")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
