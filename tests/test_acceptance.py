"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 3 pins the Kauffman/Dubrovnik convention of `skein.py`
(a = alpha^-2, x = alpha^-1 z, t = alpha^writhe K): it asserts the
two-strand loop values, the figure-eight values obtained from the textbook
F(4_1) and D(4_1) under that substitution, and the often-quoted `+` display
of the figure-eight value through the map a -> a^-1, since that display is
written in the opposite convention a = alpha^2.  The often-quoted `-`
display is not asserted: it is not the a -> a^-1 image of the computed value
and, paired with the quoted `+` display, it violates the variant sign
relation tau^-(-a, -x) = tau^+, so it is a misprint in either convention.
"""

import random
from fractions import Fraction

import pytest

from cubictrace.braids import (
    BraidWord,
    component_count,
    conjugate,
    parity_invariant,
    stabilize_neg,
    stabilize_pos,
)
from cubictrace.coxeter import (
    DihedralCoxeter,
    SymmetricCoxeter,
    T0Invariant,
    nonsplit_certificate,
    verify_braid_relations,
)
from cubictrace.hecke import hecke_trace_qa, parity_tracers
from cubictrace.h3 import (
    character_and_module_checks,
    check_r1_images,
    check_schur_identity,
    check_symmetric_difference_identities,
    check_twelve_term_identities,
    gram_determinant_at_points,
)
from cubictrace.knotdata import load_records
from cubictrace.qa import A, QA
from cubictrace.rings import AX, LaurentPolynomial
from cubictrace.skein import (
    ALPHA_Z,
    KauffmanEvaluator,
    alexander_det,
    kauffman_at_point,
    markov_trace_pm_fast,
    rewrite_alpha_z,
    variant_sign_relation,
)
from cubictrace.tl import ExtTL, TLElement, relator_sandwich_traces, retraction_check, \
    split_checks, trace_x2a, trace_xa


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def records():
    return load_records()


@pytest.fixture(scope="module")
def t0():
    return T0Invariant()


@pytest.fixture(scope="module")
def evaluators():
    return {v: KauffmanEvaluator(v) for v in "+-"}


def test_criterion_1_knot_table(records, t0):
    """Exact reproduction of the x = 2a knot and composite values."""
    failures = []
    checked = 0
    for record in records:
        if not record.strict:
            continue
        checked += 1
        value = t0.value(record.braid())
        if value != record.expected_x2a:
            failures.append((record.name, value.render(), record.expected_x2a.render()))
    names = {r.name for r in records}
    missing = [f"{c}_{k}"
               for c, count in ((3, 1), (4, 1), (5, 2), (6, 3), (7, 7), (8, 21), (9, 49))
               for k in range(1, count + 1) if f"{c}_{k}" not in names]
    complete = not missing
    composites = {"3_1#3_1": 64, "3_1#4_1": 208, "4_1#4_1": 608, "3_1#3_1#3_1": 704}
    comp_ok = all(t0.value(r.braid()) == QA(v)
                  for r in records for n, v in composites.items() if r.name == n)
    eleven = [r for r in records if r.name.startswith("11n_distinct")]
    eleven_ok = {r.expected_x2a for r in eleven if r.expected_x2a is not None} \
        == {QA(22176), QA(22048)} and all(
            t0.value(r.braid()) == r.expected_x2a for r in eleven if r.expected_x2a is not None)
    ok = not failures and complete and comp_ok and eleven_ok
    _verdict(1, ok,
             f"knot table at x = 2a: {checked} strict rows exact"
             + (f"; failures: {failures[:4]}" if failures else "")
             + ("" if complete else f"; table coverage incomplete, {len(missing)} "
                f"rows missing: {', '.join(missing[:5])}" + (", ..." if len(missing) > 5 else ""))
             + ("" if eleven_ok else "; 11-crossing pair mismatch"))


def test_criterion_2_link_rows(records, t0):
    """Link rows reported with decomposition diagnostics (not asserted)."""
    lines = []
    for record in records:
        if record.kind != "link":
            continue
        comp = t0.components(record.braid())
        expected = record.expected_x2a.render() if record.expected_x2a else "unknown"
        agree = record.expected_x2a is not None and comp.value == record.expected_x2a
        lines.append(
            f"{record.name}: computed {comp.value.render()} vs tabulated {expected} "
            f"({'agree' if agree else 'DIFFER'}) "
            f"[thm={comp.thm.render()} hecke={comp.hecke.render()} "
            f"kauffman={comp.kauffman.render()}]")
    ok = len(lines) >= 8
    print()
    for line in lines:
        print("  " + line)
    _verdict(2, ok, f"{len(lines)} link rows computed and reported with decompositions")


def test_criterion_3_kauffman_anchors(evaluators):
    """Two-strand loop values and the figure-eight Kauffman/Dubrovnik values.

    Convention (skein.py): a = alpha^-2, x = alpha^-1 z, t = alpha^writhe K.
    The figure-eight values are the textbook F(4_1) and D(4_1), written in
    (alpha, z) and rewritten into (a, x); the often-quoted `+` display is the
    same value in the a = alpha^2 convention, so it is asserted through the
    explicit map a -> a^-1.
    """
    delta_ok = (
        markov_trace_pm_fast(BraidWord(2, ()), "+", evaluators["+"])
        == LaurentPolynomial.parse("(a - x + 1)/x", AX)
        and markov_trace_pm_fast(BraidWord(2, ()), "-", evaluators["-"])
        == LaurentPolynomial.parse("(-a + x + 1)/x", AX)
    )
    fig8 = BraidWord(3, (1, -2, 1, -2))
    textbook_f = rewrite_alpha_z(LaurentPolynomial.parse(
        "(-alpha^-2 - 1 - alpha^2) + (-alpha^-1 - alpha)*z"
        " + (alpha^-2 + 2 + alpha^2)*z^2 + (alpha^-1 + alpha)*z^3", ALPHA_Z))
    textbook_d = rewrite_alpha_z(LaurentPolynomial.parse(
        "(alpha^-2 - 1 + alpha^2) + (alpha^-1 - alpha)*z"
        " + (alpha^-2 - 2 + alpha^2)*z^2 + (alpha^-1 - alpha)*z^3", ALPHA_Z))
    quoted_plus = LaurentPolynomial.parse(
        "x^3*(a^2+a) + x^2*(a^2+2*a+1) - x*(1+a) - (1+a+a^-1)", AX)
    a_to_a_inv = {"a": LaurentPolynomial.var("a", AX, -1), "x": LaurentPolynomial.var("x", AX)}
    got_plus = markov_trace_pm_fast(fig8, "+", evaluators["+"])
    got_minus = markov_trace_pm_fast(fig8, "-", evaluators["-"])
    textbook_ok = got_plus == textbook_f and got_minus == textbook_d
    quoted_ok = got_plus == quoted_plus.substitute(a_to_a_inv, AX)
    ok = delta_ok and textbook_ok and quoted_ok
    _verdict(3, ok,
             "loop values t_2(1) exact"
             + ("" if delta_ok else " [FAILED]")
             + "; figure-eight equals the textbook F and D"
             + ("" if textbook_ok else " [FAILED]")
             + "; quoted + display matches under a -> a^-1"
             + ("" if quoted_ok else " [FAILED]"))


def test_criterion_4_h3_identity_suite():
    """Lemma identities, both symmetric-difference equations, relator images."""
    twelve = check_twelve_term_identities()
    sym = check_symmetric_difference_identities()
    images = check_r1_images()
    module = character_and_module_checks()
    ok = all(twelve.values()) and all(sym.values()) and all(images.values()) \
        and all(module.values())
    _verdict(4, ok,
             f"12-term identities {sum(twelve.values())}/{len(twelve)}, "
             f"symmetric differences {sum(sym.values())}/{len(sym)}, "
             f"relator images {sum(images.values())}/{len(images)}, "
             f"character+module {sum(module.values())}/{len(module)}")


def test_criterion_5_schur_gram_suite():
    schur = check_schur_identity()
    g0 = gram_determinant_at_points("B0", count=7, seed=23)
    g1 = gram_determinant_at_points("B1", count=7, seed=29)
    ok = all(schur.values()) and all(g0.values()) and all(g1.values())
    _verdict(5, ok,
             f"schur decomposition {sum(schur.values())}/24 words; Gram dets at 7 "
             f"points: B0 -(abc)^54 {all(g0.values())}, B1 -(abc)^2 {all(g1.values())}")


def test_criterion_6_markov_property_suites(t0, evaluators):
    rng = random.Random(2026)
    parity_tracer = parity_tracers()
    lambdas = [T0Invariant(Fraction(b)) for b in (1, -1, 5)]
    bad = []
    for trial in range(300):
        n = rng.randint(2, 5)
        length = rng.randint(0, 12)
        letters = tuple(rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                        for _ in range(length))
        w = BraidWord(n, letters)
        g = BraidWord(n, (rng.choice([i for i in range(1, n)]),))
        moved = [conjugate(w, g), stabilize_pos(w), stabilize_neg(w)]

        base_t0 = t0.value(w)
        if any(t0.value(m) != base_t0 for m in moved):
            bad.append(("t0 markov", w.render()))
        if t0.value(w.mirror()) != base_t0 or t0.value(w.reverse()) != base_t0:
            bad.append(("t0 mirror/reversal", w.render()))
        if trial % 6 == 0 and any(inv.value(w) != base_t0 for inv in lambdas):
            bad.append(("t0 lambda", w.render()))

        base_h = hecke_trace_qa(w, parity_tracer)
        if any(hecke_trace_qa(m, parity_tracer) != base_h for m in moved):
            bad.append(("hecke markov", w.render()))

        base_parity = parity_invariant(w)
        if any(parity_invariant(m) != base_parity for m in moved):
            bad.append(("parity markov", w.render()))

        for v in "+-":
            base_k = markov_trace_pm_fast(w, v, evaluators[v])
            if any(markov_trace_pm_fast(m, v, evaluators[v]) != base_k for m in moved):
                bad.append((f"kauffman{v} markov", w.render()))
    _verdict(6, not bad,
             "300 seeded braids (n <= 5, length <= 12): t0, Ocneanu-at-point, both "
             "Kauffman variants and the parity trace invariant under conjugation and "
             "both stabilizations; t0 also under mirror/reversal and lambda changes"
             + (f"; failures {bad[:3]}" if bad else ""))


def test_criterion_7_unlink_series(t0):
    ok = all(t0.value(BraidWord(n, ())) == QA.a_power(n + 1) * QA(n - 2)
             for n in range(2, 9))
    _verdict(7, ok, "t0 of the trivial braid on n strands is (n-2) a^(n+1), n = 2..8")


def test_criterion_8_cross_pipeline(records, evaluators):
    caches = ({}, {})
    parity_tracer = parity_tracers()
    det_ok = True
    hecke_ok = True
    sign_ok = True
    checked = 0
    for record in records:
        braid = record.braid()
        ncomp = component_count(braid)
        if hecke_trace_qa(braid, parity_tracer) != QA.a_power(ncomp - 1):
            hecke_ok = False
        if not variant_sign_relation(braid, (evaluators["+"], evaluators["-"])):
            sign_ok = False
        checked += 1
        expected = QA.a_power(ncomp - 1) * QA(alexander_det(braid) ** 2)
        if kauffman_at_point(braid, 2 * A, caches) != expected:
            det_ok = False
    assert checked == len(records)
    ok = det_ok and hecke_ok and sign_ok
    _verdict(8, ok,
             f"t^K = a^(#L-1) det^2 via independent Burau pipeline on {checked} rows; "
             f"Ocneanu trace = a^(#L-1) and the variant sign relation hold on the "
             f"whole table")


def test_criterion_9_coxeter_extension():
    rel_a = all(verify_braid_relations(SymmetricCoxeter(n)) for n in (3, 4, 5, 6, 7))
    rel_i = all(verify_braid_relations(DihedralCoxeter(m)) for m in (3, 4, 5, 6, 7, 8))
    cert = nonsplit_certificate()
    ok = rel_a and rel_i and cert.ok
    _verdict(9, ok,
             f"braid relations A2..A6 {rel_a}, I2(3..8) {rel_i}; "
             f"(s + lambda C - a)^2 E_1 = -2aC independent of lambda: {cert.ok}")


def test_criterion_10_extended_tl():
    rng = random.Random(77)
    cyc_ok = rel_ok = True
    for _ in range(200):
        n = rng.randint(3, 5)
        alg = ExtTL(n)
        mk = lambda: TLElement.word(tuple(rng.randint(0, n - 2)
                                          for _ in range(rng.randint(0, 4))))
        u, v = mk(), mk()
        uv, vu = alg.multiply(u, v), alg.multiply(v, u)
        if trace_xa(uv, n) != trace_xa(vu, n) or trace_x2a(uv, n) != trace_x2a(vu, n):
            cyc_ok = False
    nonzero = False
    for _ in range(200):
        # the sandwiches are traced unreduced: reduced, each is 0
        n = rng.randint(3, 5)
        i = rng.randint(0, n - 2)
        mk = lambda: tuple(rng.randint(0, n - 2) for _ in range(rng.randint(0, 3)))
        left, right = mk(), mk()
        for terms in relator_sandwich_traces(left, i, right, n):
            rel_ok = rel_ok and sum(terms) == 0
            nonzero = nonzero or any(terms)
    rel_ok = rel_ok and nonzero
    split = split_checks()
    retract = retraction_check()
    ok = cyc_ok and rel_ok and split.ok and retract.ok
    _verdict(10, ok,
             f"cyclicity {cyc_ok} and relator compatibility {rel_ok} on 200+200 seeded "
             f"samples; splitting certificates {split.ok}; retraction at x = -2a "
             f"{retract.ok}")


def test_criterion_11_writhe_parity(records):
    rng = random.Random(11)
    parity_ok = True
    for _ in range(500):
        n = rng.randint(2, 5)
        length = rng.randint(0, 12)
        letters = tuple(rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
                        for _ in range(length))
        w = BraidWord(n, letters)
        if (w.strands + w.writhe() - component_count(w)) % 2:
            parity_ok = False
    table_ok = all(
        parity_invariant(r.braid()) == QA.a_power(component_count(r.braid()))
        for r in records
    )
    _verdict(11, parity_ok and table_ok,
             "n + writhe = #components mod 2 on 500 seeded braids; the parity trace "
             "equals a^(#L) across the whole table")
