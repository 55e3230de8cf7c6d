"""Deterministic verification suites behind `cubictrace verify`.

Each suite re-derives a family of identities or invariance properties from
scratch under a fixed seed and reports one line per check.  The checks
mirror the library's mathematical contract: exact symbolic identities in
the three-strand cubic algebra, skein/trace anchors, Markov-move
invariance of every trace, and the structure of the central extensions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from . import h3
from .braids import (
    BraidWord,
    component_count,
    component_trace,
    conjugate,
    markov_move,
    parity_invariant,
    stabilize_neg,
    stabilize_pos,
)
from .coxeter import (
    DihedralCoxeter,
    SymmetricCoxeter,
    T0Invariant,
    ThmTraceEngine,
    act_word,
    nonsplit_certificate,
    verify_braid_relations,
)
from .hecke import (HeckeRing, OcneanuTrace, hecke_normal_form, hecke_trace_qa, parity_tracers,
                    reduced_word)
from .knotdata import DataError, load_records
from .linalg import det_bareiss
from .qa import A, QA
from .rings import AX, LaurentPolynomial
from .report import SuiteReport
from .skein import (
    KauffmanEvaluator,
    alexander_det,
    kauffman_at_point,
    markov_trace_pm_fast,
    variant_sign_relation,
)
from . import tl as tlmod


# -- helpers -------------------------------------------------------------------


def _random_braid(rng: random.Random, max_strands: int, max_len: int,
                  min_strands: int = 2) -> BraidWord:
    n = rng.randint(min_strands, max_strands)
    length = rng.randint(0, max_len)
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(n, tuple(letters))


def _random_letter(rng: random.Random, n: int) -> int:
    i = rng.randint(1, n - 1)
    return i if rng.random() < 0.5 else -i


def _trace_pairs(rng: random.Random, count: int,
                 max_strands: int) -> list[tuple[BraidWord, BraidWord]]:
    """Random pairs (u, v) on a common number of strands, for t(uv) = t(vu)."""
    pairs = []
    for _ in range(count):
        n = rng.randint(2, max_strands)
        pairs.append((_random_braid(rng, n, 6, min_strands=n),
                      _random_braid(rng, n, 6, min_strands=n)))
    return pairs


def _markov_samples(rng: random.Random, count: int, max_strands: int, max_len: int,
                    conjugates: bool = True) -> list[tuple[BraidWord, list[BraidWord]]]:
    """Random braids w, each with the braids a Markov trace must give its value:
    both stabilizations and, with `conjugates`, w conjugated by a random letter."""
    samples = []
    for _ in range(count):
        w = _random_braid(rng, max_strands, max_len)
        moved = [stabilize_pos(w), stabilize_neg(w)]
        if conjugates and w.strands > 1:
            moved.append(conjugate(w, BraidWord(w.strands, (_random_letter(rng, w.strands),))))
        samples.append((w, moved))
    return samples


def _markov_invariant(trace: Callable[[BraidWord], object], samples: list[tuple[BraidWord, list[BraidWord]]]) -> bool:
    """trace gives each sample's moved braids the value of the sample itself."""
    for w, moved in samples:
        t0 = trace(w)
        if any(trace(w2) != t0 for w2 in moved):
            return False
    return True


# -- suites --------------------------------------------------------------------


def suite_h3(seed: int = 11, pit_points: int = 7) -> SuiteReport:
    rep = SuiteReport("h3")

    def each(check) -> None:
        rep.run_each(f"h3/{check.__name__}", check, prefix="h3/")

    each(h3.check_cubic_and_braid)
    rep.run("h3/multiplicative on 200 random pairs",
            lambda: h3.check_multiplicativity(200, seed))
    each(h3.check_r1_images)
    rep.run("h3/index swap of the 6-term relator is the half-twist conjugate",
            h3.check_r2_conjugation)
    each(h3.check_twelve_term_identities)
    each(h3.check_symmetric_difference_identities)
    each(h3.character_and_module_checks)

    def schur() -> tuple[bool, str]:
        verdicts = h3.check_schur_identity()
        return all(verdicts.values()), f"{sum(verdicts.values())}/24"

    rep.run("h3/schur decomposition of t0 on all 24 basis words", schur)
    for basis, seed_shift in (("B0", 0), ("B1", 6)):
        rep.run(f"h3/gram determinant {basis} ({pit_points} seeded points)",
                lambda basis=basis, seed_shift=seed_shift: all(h3.gram_determinant_at_points(
                    basis, count=pit_points, seed=23 + seed_shift).values()),
                f"det = -(abc)^{54 if basis == 'B0' else 2}")

    def trace_equations() -> tuple[bool, str]:
        trace_rep = h3.trace_equations_check(points=5, seed=97)
        return trace_rep.ok, "; ".join(trace_rep.notes[:1])

    rep.run("h3/trace equations at 5 points", trace_equations)
    return rep


def suite_braid(seed: int = 3) -> SuiteReport:
    samples = 500
    rep = SuiteReport("braid")
    rng = random.Random(seed)
    pairs = []  # (w, w after three random Markov moves)
    for _ in range(samples):
        w = _random_braid(rng, 5, 12)
        moved = w
        for _ in range(3):
            move = rng.choice(["conjugate", "stabilize_pos", "stabilize_neg"])
            g = BraidWord(moved.strands, (_random_letter(rng, moved.strands),)) \
                if moved.strands > 1 else None
            if move == "conjugate" and moved.strands == 1:
                move = "stabilize_pos"
            moved = markov_move(moved, move, g)
        pairs.append((w, moved))

    def seq_trace(w: BraidWord) -> Fraction:
        return component_trace(w, lambda k: Fraction(k * k - 1, 2))

    rep.run(f"braid/parity lemma on {samples} random braids",
            lambda: all((w.strands + w.writhe() - component_count(w)) % 2 == 0
                        for w, _ in pairs))
    rep.run("braid/mirror preserves component count",
            lambda: all(component_count(w.mirror()) == component_count(w) for w, _ in pairs))
    rep.run("braid/parity and component traces invariant under Markov moves",
            lambda: all(parity_invariant(moved) == parity_invariant(w)
                        and seq_trace(moved) == seq_trace(w) for w, moved in pairs))
    rep.run("braid/parity invariant equals a^components on the whole table",
            lambda: all(parity_invariant(r.braid()) == QA.a_power(component_count(r.braid()))
                        for r in load_records()))
    return rep


def suite_skein(seed: int = 5) -> SuiteReport:
    markov_braids = 100
    rep = SuiteReport("skein")
    one = LaurentPolynomial.one(AX)
    evs = {v: KauffmanEvaluator(v) for v in "+-"}
    rep.run("skein/t(s1...s_{n-1}) = 1 for n = 2..5, both variants",
            lambda: all(markov_trace_pm_fast(BraidWord(n, tuple(range(1, n))), v, evs[v]) == one
                        for n in (2, 3, 4, 5) for v in "+-"))
    delta_plus = LaurentPolynomial.parse("(a - x + 1)/x", AX)
    delta_minus = LaurentPolynomial.parse("(-a + x + 1)/x", AX)
    rep.run("skein/two-strand loop values",
            lambda: markov_trace_pm_fast(BraidWord(2, ()), "+", evs["+"]) == delta_plus
            and markov_trace_pm_fast(BraidWord(2, ()), "-", evs["-"]) == delta_minus)
    fig8 = BraidWord(3, (1, -2, 1, -2))
    true_plus = LaurentPolynomial.parse(
        "x^3*(a^-2+a^-1) + x^2*(a^-2+2*a^-1+1) - x*(1+a^-1) - (1+a+a^-1)", AX)
    true_minus = LaurentPolynomial.parse(
        "x^3*(a^-1-a^-2) + x^2*(1-2*a^-1+a^-2) + x*(1-a^-1) + (a-1+a^-1)", AX)
    rep.run("skein/figure-eight values (independently derived)",
            lambda: markov_trace_pm_fast(fig8, "+", evs["+"]) == true_plus
            and markov_trace_pm_fast(fig8, "-", evs["-"]) == true_minus)
    printed_plus = LaurentPolynomial.parse(
        "x^3*(a^2+a) + x^2*(a^2+2*a+1) - x*(1+a) - (1+a+a^-1)", AX)

    def printed_display_is_mirror_image() -> bool:
        t_plus = markov_trace_pm_fast(fig8, "+", evs["+"])
        flipped = t_plus.substitute({"a": LaurentPolynomial.var("a", AX, -1)}, AX)
        return flipped == printed_plus

    rep.run("skein/often-quoted + figure-eight display is the a -> a^-1 image",
            printed_display_is_mirror_image,
            "the display cannot hold together with the loop-value anchors")
    samples = _markov_samples(random.Random(seed), markov_braids, 4, 10)
    rep.run(f"skein/markov invariance on {markov_braids} random braids (exact)",
            lambda: all(_markov_invariant(lambda b, v=v: markov_trace_pm_fast(b, v, evs[v]),
                                          samples) for v in "+-"))
    w = BraidWord(3, (1, -2, 1, -2))
    rep.run("skein/memoization transparency",
            lambda: markov_trace_pm_fast(w, "+", KauffmanEvaluator("+", use_cache=True))
            == markov_trace_pm_fast(w, "+", KauffmanEvaluator("+", use_cache=False)))

    records = load_records()
    caches = ({}, {})

    def det_squared() -> bool:
        ok = True
        for r in records:
            braid = r.braid()
            expected = QA.a_power(component_count(braid) - 1) * QA(alexander_det(braid) ** 2)
            if kauffman_at_point(braid, 2 * A, caches) != expected:
                ok = False
        return ok

    rep.run("skein/t^K = a^(#L-1) det^2 at the x = 2a point (independent Burau det)",
            det_squared)
    rep.run("skein/variant sign relation on the whole table",
            lambda: all(variant_sign_relation(r.braid(), (evs["+"], evs["-"])) is not False
                        for r in records))
    return rep


def suite_hecke(seed: int = 7) -> SuiteReport:
    pairs = 200
    rep = SuiteReport("hecke")
    ring = HeckeRing.generic()
    tracer = OcneanuTrace(ring)
    rng = random.Random(seed)
    trace_pairs = _trace_pairs(rng, pairs, 5)
    samples = _markov_samples(rng, pairs, 4, 8, conjugates=False)
    rep.run(f"hecke/trace property on {pairs} random pairs",
            lambda: all(tracer.of_braid(u * v) == tracer.of_braid(v * u) for u, v in trace_pairs))
    rep.run(f"hecke/both Markov conditions on {pairs} random braids",
            lambda: _markov_invariant(tracer.of_braid, samples))
    rep.run("hecke/normalization anchors",
            lambda: tracer.of_braid(BraidWord(1, ())) == LaurentPolynomial.one(("x", "y"))
            and tracer.of_braid(BraidWord(3, ()))
            == LaurentPolynomial.parse("(y+1)^2 * x^-2", ("x", "y"))
            and tracer.of_braid(BraidWord(2, (1, 1, 1)))
            == LaurentPolynomial.parse("x^2 - y^2 - 2*y", ("x", "y")))
    xya = ("x", "y", "a")
    delta_h = LaurentPolynomial.parse("(y+1)/x", xya)
    delta_k = LaurentPolynomial.parse("(y^2 - a*x + y)/(x*y)", xya)
    rep.run("hecke/loop-value difference delta_H - delta_K = a/y",
            lambda: delta_h - delta_k == LaurentPolynomial.parse("a/y", xya))
    parity = parity_tracers()
    rep.run("hecke/value a^(#L-1) at y = 1, x = 2a on the whole table",
            lambda: all(hecke_trace_qa(r.braid(), parity)
                        == QA.a_power(component_count(r.braid()) - 1)
                        for r in load_records()))
    rng2 = random.Random(seed + 1)

    def augmentation() -> bool:
        ok = True
        for _ in range(50):
            e = hecke_normal_form(_random_braid(rng2, 4, 8), ring)
            total = sum((c.evaluate({"x": Fraction(2), "y": Fraction(1)})
                         for c in e.coeffs.values()), Fraction(0))
            if total != 1:
                ok = False
        return ok

    rep.run("hecke/augmentation at (x, y) = (2, 1) is 1 on 50 random braids", augmentation)
    return rep


def suite_coxeter(seed: int = 7) -> SuiteReport:
    markov_braids = 300
    rep = SuiteReport("coxeter")
    for n in (3, 4, 5, 6, 7):
        rep.run(f"coxeter/braid relations A{n - 1}",
                lambda n=n: verify_braid_relations(SymmetricCoxeter(n)))
    for m in (3, 4, 5, 6, 7, 8):
        rep.run(f"coxeter/braid relations I2({m})",
                lambda m=m: verify_braid_relations(DihedralCoxeter(m)))
    rep.run("coxeter/non-splitting certificate", lambda: nonsplit_certificate().ok)

    rng = random.Random(seed)
    engine = ThmTraceEngine()
    trace_pairs = _trace_pairs(rng, 200, 4)
    rep.run("coxeter/theorem trace property on 200 random pairs",
            lambda: all(engine.trace_braid(u * v) == engine.trace_braid(v * u)
                        for u, v in trace_pairs))

    inv = T0Invariant()
    rep.run("coxeter/t0 pin (1, 0, 0) on (1, s1, s1 s2), pin matrix det nonzero at a = +-1",
            lambda: _t0_pin(inv))
    samples = _markov_samples(rng, markov_braids, 5, 12)
    rep.run(f"coxeter/t0 Markov invariance on {markov_braids} random braids",
            lambda: _markov_invariant(inv.value, samples))
    rep.run("coxeter/t0 mirror and reversal invariance",
            lambda: all(inv.value(w.mirror()) == inv.value(w) == inv.value(w.reverse())
                        for w, _ in samples))

    def lambda_independence() -> bool:
        invariants = [T0Invariant(Fraction(lam)) for lam in (0, 1, -1, 5)]
        ok = True
        for _ in range(50):
            w = _random_braid(rng, 4, 10)
            if len({inv_l.value(w) for inv_l in invariants}) != 1:
                ok = False
        return ok

    rep.run("coxeter/t0 independent of the base value lambda in {0, 1, -1, 5}",
            lambda_independence)

    def injectivity() -> bool:
        cox = SymmetricCoxeter(5)
        elements = list(cox.elements())
        ok = True
        start = {cox.identity(): QA(1)}
        for _ in range(100):
            w1, w2 = rng.sample(elements, 2)
            v1, v2 = (act_word(cox, reduced_word(w), start, QA(0))
                      for w in (w1, w2))
            if v1 == v2:
                ok = False
        return ok

    rep.run("coxeter/braid-to-module map separates 100 random element pairs", injectivity)
    rep.run("coxeter/unlink series (n-2) a^(n+1) for n = 2..8",
            lambda: all(inv.value(BraidWord(n, ())) == QA.a_power(n + 1) * QA(n - 2)
                        for n in range(2, 9)))

    def printed_variant_breaks() -> bool:
        printed = ThmTraceEngine(printed_exponent_variant=True)
        w = BraidWord(2, (1,))
        return printed.trace_braid(stabilize_neg(w)) != printed.trace_braid(w)

    rep.run("coxeter/printed level-descent exponent variant breaks the negative Markov move",
            printed_variant_breaks, "the derived exponent is the one used")
    return rep


def _t0_pin(inv: T0Invariant) -> bool:
    """T0 takes the values (1, 0, 0) on (1, s_1, s_1 s_2) at 3 strands, and
    no other weights of its three traces do: the integer matrix of those
    traces on those words has a nonzero determinant at a = 1 and a = -1."""
    comps = [inv.components(BraidWord(3, letters)) for letters in ((), (1,), (1, 2))]
    if [c.value for c in comps] != [QA(1), QA(0), QA(0)]:
        return False
    return all(det_bareiss([[getattr(c, trace).at(a) for c in comps]
                            for trace in ("thm", "hecke", "kauffman")]) != 0
               for a in (1, -1))


def suite_tl(seed: int = 13) -> SuiteReport:
    pairs = 200
    rep = SuiteReport("tl")
    rng = random.Random(seed)

    def random_word(n: int, max_len: int) -> tuple[int, ...]:
        return tuple(rng.randint(0, n - 2) for _ in range(rng.randint(0, max_len)))

    def cyclic() -> bool:
        ok = True
        for _ in range(pairs):
            n = rng.randint(3, 5)
            alg = tlmod.ExtTL(n)
            u = tlmod.TLElement.word(random_word(n, 4))
            v = tlmod.TLElement.word(random_word(n, 4))
            uv = alg.multiply(u, v)
            vu = alg.multiply(v, u)
            for trace in (lambda e: tlmod.trace_xa(e, n), lambda e: tlmod.trace_x2a(e, n)):
                if trace(uv) != trace(vu):
                    ok = False
        return ok

    rep.run(f"tl/both traces cyclic on {pairs} random word pairs", cyclic)

    def relator_sandwiches() -> bool:
        # the sandwiches are traced unreduced: reduced, each is 0
        ok, nonzero = True, False
        for _ in range(100):
            n = rng.randint(3, 5)
            i = rng.randint(0, n - 2)
            left, right = random_word(n, 3), random_word(n, 3)
            for terms in tlmod.relator_sandwich_traces(left, i, right, n):
                ok = ok and sum(terms) == 0
                nonzero = nonzero or any(terms)
        return ok and nonzero

    rep.run("tl/both traces vanish on 100 random relator sandwiches", relator_sandwiches)

    def rotation() -> bool:
        ok = True
        for _ in range(100):
            n = rng.randint(3, 5)
            word = random_word(n, 6)
            if not word:
                continue
            ncomp = tlmod.closure_circles(word, n)
            k = rng.randrange(len(word))
            rotated = word[k:] + word[:k]
            if tlmod.closure_circles(rotated, n) != ncomp:
                ok = False
        return ok

    rep.run("tl/closure component count invariant under cyclic rotation", rotation)

    def associativity() -> bool:
        ok = True
        alg4 = tlmod.ExtTL(4)
        for _ in range(pairs):
            u = tlmod.TLElement.word(random_word(4, 4))
            v = tlmod.TLElement.word(random_word(4, 4))
            t = tlmod.TLElement.word(random_word(4, 4))
            if alg4.multiply(alg4.multiply(u, v), t) != alg4.multiply(u, alg4.multiply(v, t)):
                ok = False
        return ok

    rep.run(f"tl/associativity on {pairs} random triples at rank 4", associativity)
    rep.run("tl/splitting certificates", lambda: tlmod.split_checks().ok)
    rep.run("tl/retraction at x = -2a", lambda: tlmod.retraction_check().ok)

    def rank3_witness() -> bool:
        alg3 = tlmod.ExtTL(3)
        diff = tlmod.TLElement.word((0,)) - tlmod.TLElement.word((1,))
        return all(
            tlmod.trace_x2a(alg3.multiply(diff, tlmod.TLElement.c(1) if b == tlmod.C_WORD
                                          else tlmod.TLElement.word(b)), 3) == QA(0)
            for b in alg3.basis())

    rep.run("tl/(e1 - e2) pairs to zero against the whole rank-3 basis at x = 2a",
            rank3_witness)
    rep.run("tl/trace anchor values",
            lambda: tlmod.trace_xa((0,), 3) == QA(1)
            and tlmod.trace_xa(tlmod.TLElement.c(1), 3) == QA(-1)
            and tlmod.trace_xa((0, 1, 0), 3) == QA(-1)
            and tlmod.trace_x2a((), 3) == QA(1)
            and tlmod.trace_x2a((0,), 3) == -QA.a_power(3)
            and tlmod.trace_x2a((0, 1), 3) == QA(0))
    rep.run("tl/x = 2a trace matches the braid invariant where they overlap",
            _tl_t0_consistency)
    return rep


def _tl_t0_consistency() -> bool:
    """trace_x2a agrees with the braid-algebra invariant through
    e_i = (s_i + s_i^-1)/2 - a on generators (n <= 4), repeated and
    commuting pairs, and adjacent pairs at n = 4.

    At n = 3 the adjacent pair is a genuine mismatch (the invariant gives
    a^(n+1), the diagram trace 0); that anomaly is asserted as such.
    """
    inv = T0Invariant()

    def t0_of_e_word(word: tuple[int, ...], n: int) -> QA:
        # expand prod_i ((s_i + s_i^-1)/2 - a) over braid words
        terms: list[tuple[QA, tuple[int, ...]]] = [(QA(1), ())]
        for i in word:
            new_terms = []
            for coeff, letters in terms:
                half = coeff * QA(Fraction(1, 2))
                new_terms.append((half, letters + (i + 1,)))
                new_terms.append((half, letters + (-(i + 1),)))
                new_terms.append((coeff * QA(0, -1), letters))
            terms = new_terms
        total = QA(0)
        for coeff, letters in terms:
            total = total + coeff * inv.value(BraidWord(n, letters))
        return total

    for n in (3, 4):
        for i in range(n - 1):
            if t0_of_e_word((i,), n) != tlmod.trace_x2a((i,), n):
                return False
            if t0_of_e_word((i, i), n) != tlmod.trace_x2a((i, i), n):
                return False
    if t0_of_e_word((0, 2), 4) != tlmod.trace_x2a((0, 2), 4):
        return False
    for pair in ((0, 1), (1, 2), (1, 0)):
        if t0_of_e_word(pair, 4) != tlmod.trace_x2a(pair, 4):
            return False
    # the rank-3 adjacent anomaly: braid side gives 1, diagram trace 0
    if t0_of_e_word((0, 1), 3) != QA(1) or tlmod.trace_x2a((0, 1), 3) != QA(0):
        return False
    return True


def table_report(path: str | None = None) -> SuiteReport:
    """Compute the x = 2a invariant for every catalog row.

    Knot and composite rows are strict comparisons; link rows are reported
    as diagnostics with their trace decomposition (no assertion; see the
    catalog notes on multi-component normalization).
    """
    from .knotdata import validate_record

    records = load_records(path)
    if not records:
        raise DataError(f"{path}: no catalog rows")
    inv = T0Invariant()
    rep = SuiteReport("table")

    def row(record) -> dict[str, tuple[bool, str]]:
        validation = validate_record(record)
        if not validation.ok:
            return {f"table/{record.name} data integrity": (False, "failed row validation")}
        comp = inv.components(record.braid())
        decomposition = (f"thm={comp.thm.render()} hecke={comp.hecke.render()} "
                         f"kauffman={comp.kauffman.render()}")
        if record.expected_x2a is None:
            return {f"table/{record.name} = {comp.value.render()} (no reference)":
                    (True, decomposition)}
        if record.strict:
            return {f"table/{record.name}": (
                comp.value == record.expected_x2a,
                f"computed {comp.value.render()}, expected "
                f"{record.expected_x2a.render()}; {decomposition}")}
        status = "agrees with" if comp.value == record.expected_x2a else "differs from"
        return {f"table/{record.name} diagnostic": (
            True, f"computed {comp.value.render()} {status} tabulated "
                  f"{record.expected_x2a.render()}; {decomposition}")}

    for record in records:
        rep.run_each(f"table/{record.name}", lambda record=record: row(record))
    return rep


def run_suite(name: str, seed: int = 0, pit_points: int = 7) -> SuiteReport:
    if name == "h3":
        return suite_h3(seed=seed or 11, pit_points=pit_points)
    if name == "braid":
        return suite_braid(seed=seed or 3)
    if name == "skein":
        return suite_skein(seed=seed or 5)
    if name == "hecke":
        return suite_hecke(seed=seed or 7)
    if name == "coxeter":
        return suite_coxeter(seed=seed or 7)
    if name == "tl":
        return suite_tl(seed=seed or 13)
    if name == "all":
        out = SuiteReport("all")
        for sub in ("h3", "braid", "skein", "hecke", "coxeter", "tl"):
            out = out.merged(run_suite(sub, seed=seed, pit_points=pit_points))
        return out
    raise ValueError(f"unknown suite {name!r}")
