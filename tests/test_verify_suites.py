"""The orchestrated verification suites all pass under their default seeds."""

from pathlib import Path

from cubictrace.report import SuiteReport
from cubictrace.verify import (
    suite_braid,
    suite_coxeter,
    suite_h3,
    suite_hecke,
    suite_skein,
    suite_tl,
    table_report,
)


def _assert_green(rep: SuiteReport):
    failing = [c for c in rep.checks if not c.ok]
    assert not failing, "\n" + "\n".join(f"{c.check_id}: {c.detail}" for c in failing)


def _assert_golden(rep: SuiteReport, name: str):
    # every check and its detail, as first recorded; a golden is independent of PYTHONHASHSEED
    _assert_green(rep)
    golden = Path(__file__).resolve().parent / "golden" / f"verify_{name}.txt"
    assert rep.render() + "\n" == golden.read_text()


def test_h3_suite():
    _assert_golden(suite_h3(), "h3")


def test_braid_suite():
    _assert_golden(suite_braid(), "braid")


def test_skein_suite():
    _assert_golden(suite_skein(), "skein")


def test_hecke_suite():
    _assert_golden(suite_hecke(), "hecke")


def test_coxeter_suite():
    _assert_golden(suite_coxeter(), "coxeter")


def test_tl_suite():
    _assert_golden(suite_tl(), "tl")


def test_table_runner_strict_rows():
    rep = table_report()
    _assert_green(rep)
    assert sum(1 for c in rep.checks if c.check_id.startswith("table/")) >= 90


def test_every_braid_check_is_timed():
    rep = suite_braid()
    assert rep.checks and all(c.elapsed > 0 for c in rep.checks)


def test_a_raising_check_fails_alone():
    rep = SuiteReport("isolation")
    rep.run("before", lambda: True)
    rep.run("raises", lambda: 1 // 0)
    rep.run_each("raises too", lambda: {"never": 1 // 0}, prefix="group/")
    rep.run("after", lambda: True)
    assert [(c.check_id, c.ok) for c in rep.checks] == [
        ("before", True), ("raises", False), ("raises too", False), ("after", True)]
    assert "error:" in rep.checks[1].detail and "error:" in rep.checks[2].detail


def test_a_thunk_without_verdicts_fails():
    rep = SuiteReport("empty")
    rep.run_each("decides nothing", lambda: {}, prefix="group/")
    assert [(c.check_id, c.ok, c.detail) for c in rep.checks] == [
        ("decides nothing", False, "no verdicts")]
    assert not rep.ok and "0/1 checks passed" in rep.render()


def test_reports_render_deterministically():
    a = suite_braid().render()
    b = suite_braid().render()
    assert a == b
    assert "suite braid" in a
