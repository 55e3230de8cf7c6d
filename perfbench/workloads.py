"""The four benchmark workloads and the layer calls each item makes.

Every workload is a fixed list of items.  A pass builds fresh engines
(`start_pass`), runs every item once in the run's seeded order and renders
one result line per item; the lines, in item order, are hashed into the
pass digest that `reference.json` pins.  `run_item` returns the rendered
line and the layers whose output check failed (empty when it passed).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from cubictrace import braids, burau, coxeter, h3, hecke, knotdata, qa, rings, skein

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference.json"

# The modules, grouped into the layers L0 (rings, qa), L1 (skein, coxeter,
# hecke, h3) and L2 (burau, braids, knotdata).
LAYERS = ("rings", "qa", "skein", "coxeter", "hecke", "h3", "burau", "braids", "knotdata")

# Calls made inside the program, routed through spans in traced passes.
INNER_SPANS = (
    (coxeter.ThmTraceEngine, "trace_braid", "coxeter.trace_braid"),
    (coxeter, "hecke_trace_qa", "hecke.hecke_trace_qa"),
    (coxeter, "kauffman_at_point", "skein.kauffman_at_point"),
    # validate_record reaches the Burau pipeline through skein.alexander_det
    (skein, "alexander_determinant", "burau.alexander_determinant"),
)

# Functions whose calls the profiler pass counts.
COUNTED = {
    "skein.canonical_code.calls": skein.canonical_code,
    "skein.piece_value.calls": skein.KauffmanEvaluator._piece_value,
    "coxeter.act_generator.calls": coxeter.act_generator,
    "qa.QA.mul.calls": qa.QA.__mul__,
    "rings.LaurentPolynomial.init.calls": rings.LaurentPolynomial.__init__,
    "fractions.Fraction.new.calls": Fraction.__new__,
}


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def frozen_input(name: str) -> Path:
    """Path of a frozen input file, after checking its content hash."""
    path = INPUTS / name
    want = load_reference()["inputs"][name]
    got = file_sha256(path)
    if got != want:
        raise ValueError(f"{path.name}: content hash {got} differs from the frozen {want}")
    return path


class Catalog:
    """The x = 2a table: validate each row, compute its T0 components."""

    name = "catalog"
    default_layer = "coxeter"

    def items(self):
        return knotdata.load_records(frozen_input("catalog.tsv"))

    def start_pass(self):
        # every `cubictrace table` call builds its own T0Invariant
        return coxeter.T0Invariant()

    def run_item(self, inv, record, tr):
        validation = tr.call("knotdata.validate_record", knotdata.validate_record, record)
        if not validation.ok:
            return f"{record.name}\tinvalid", ["knotdata"]
        comp = tr.call("coxeter.T0Invariant.components", inv.components, record.braid())
        bad = []
        if record.strict and comp.value != record.expected_x2a:
            bad.append("coxeter")
        return (f"{record.name}\tdet={validation.det}\tthm={comp.thm}\thecke={comp.hecke}"
                f"\tkauffman={comp.kauffman}\tvalue={comp.value}"), bad

    def counters(self, inv):
        return {
            "coxeter.thm_memo.entries": len(inv.engine._memo),
            "skein.cache.entries": sum(len(c) for c in inv._kauffman_caches),
        }


class BraidStream:
    """The catalog-search screen and distinctness certificate on random braids."""

    name = "braid-stream"
    default_layer = "coxeter"

    def items(self):
        out = []
        for line in frozen_input("braids.tsv").read_text().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            strands, word = line.split("\t")
            out.append(braids.parse_braid(word, int(strands)))
        return out

    def start_pass(self):
        # evaluators are shared across the stream, fresh for each pass
        return {
            "t0": coxeter.T0Invariant(),
            "+": skein.KauffmanEvaluator("+"),
            "-": skein.KauffmanEvaluator("-"),
            "ocneanu": hecke.OcneanuTrace(),
        }

    def run_item(self, ctx, w, tr):
        ncomp = tr.call("braids.component_count", braids.component_count, w)
        comp = tr.call("coxeter.T0Invariant.components", ctx["t0"].components, w)
        plus = tr.call("skein.markov_trace_pm_fast", skein.markov_trace_pm_fast, w, "+", ctx["+"])
        minus = tr.call("skein.markov_trace_pm_fast", skein.markov_trace_pm_fast, w, "-", ctx["-"])
        homfly = tr.call("hecke.of_braid", ctx["ocneanu"].of_braid, w)
        det = tr.call("burau.alexander_determinant", burau.alexander_determinant, w)
        unit = qa.QA.a_power(ncomp - 1)
        bad = []
        # at y = 1, x = 2a: Ocneanu -> a^(#L-1), Kauffman -> a^(#L-1) det^2
        if comp.hecke != unit:
            bad.append("hecke")
        if comp.kauffman != unit * det * det:
            bad.append("skein")
        # the generic + trace at (a, x) = (1, 2) is the point value at a = +1
        if plus.evaluate({"a": Fraction(1), "x": Fraction(2)}) != comp.kauffman.at(1):
            bad.append("skein")
        return (f"{w.strands}:{w.render()}\tcomponents={ncomp}\tdet={det}\tthm={comp.thm}"
                f"\thecke={comp.hecke}\tkauffman={comp.kauffman}\tvalue={comp.value}"
                f"\t+={plus.render()}\t-={minus.render()}\thomfly={homfly.render()}"), bad

    def counters(self, ctx):
        t0 = ctx["t0"]
        return {
            "coxeter.thm_memo.entries": len(t0.engine._memo),
            "skein.cache.entries": (sum(len(c) for c in t0._kauffman_caches)
                                    + len(ctx["+"]._cache) + len(ctx["-"]._cache)),
        }


class Relations:
    """Braid relations of the extended (-1)-Hecke action, and the non-split proof."""

    name = "relations"
    default_layer = "coxeter"

    def items(self):
        # A_r is S_(r+1); A6 (5,040 basis vectors, about 30 s) does not fit a run
        systems = [(f"A{n - 1}", lambda n=n: coxeter.SymmetricCoxeter(n)) for n in range(3, 7)]
        systems += [(f"I2_{m}", lambda m=m: coxeter.DihedralCoxeter(m)) for m in range(3, 9)]
        return systems + [("nonsplit", None)]

    def start_pass(self):
        return None

    def run_item(self, ctx, item, tr):
        label, make = item
        if make is None:
            ok = tr.call("coxeter.nonsplit_certificate", coxeter.nonsplit_certificate).ok
        else:
            ok = tr.call(f"coxeter.verify_braid_relations.{label}",
                         coxeter.verify_braid_relations, make())
        return f"{label}\t{ok}", ([] if ok else ["coxeter"])

    def counters(self, ctx):
        return {}


def _all_true(result) -> bool:
    if isinstance(result, dict):
        return all(result.values())
    if isinstance(result, h3.TraceEquationReport):
        return result.ok
    return bool(result)


class Identities:
    """The H3 identity checks of the verify suite, with its seeds.

    The sampled checks run on fewer samples than the suite (50 word pairs
    instead of 200, 2 Gram points instead of 7, 1 trace-equation point
    instead of 5), so that a run holds several passes: at the suite's sizes
    one pass took 12-18 s, and with a single pass per run the item times
    spread by up to 0.3 of their median between runs.
    """

    name = "identities"
    default_layer = "h3"

    def items(self):
        return [
            ("check_multiplicativity", lambda: h3.check_multiplicativity(50, 11)),
            ("check_twelve_term_identities", h3.check_twelve_term_identities),
            ("check_schur_identity", h3.check_schur_identity),
            ("gram_determinant_at_points.B0",
             lambda: h3.gram_determinant_at_points("B0", count=2, seed=23)),
            ("gram_determinant_at_points.B1",
             lambda: h3.gram_determinant_at_points("B1", count=2, seed=29)),
            ("trace_equations_check", lambda: h3.trace_equations_check(points=1, seed=97)),
            ("character_and_module_checks", h3.character_and_module_checks),
        ]

    def start_pass(self):
        return None

    def run_item(self, ctx, item, tr):
        label, thunk = item
        result = tr.call(f"h3.{label}", thunk)
        ok = _all_true(result)
        if isinstance(result, dict):
            shown = ";".join(f"{k}={v}" for k, v in sorted(result.items()))
        else:
            shown = repr(result)
        return f"{label}\tok={ok}\t{shown}", ([] if ok else ["h3"])

    def counters(self, ctx):
        return {}


WORKLOADS = {w.name: w for w in (Catalog(), BraidStream(), Relations(), Identities())}
