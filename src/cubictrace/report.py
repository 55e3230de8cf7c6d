"""Structured pass/fail reports for the verification suites and tables."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    check_id: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, ok: bool, detail: str, elapsed: float) -> None:
        self.checks.append(CheckResult(check_id, bool(ok), detail, elapsed))

    def run(self, check_id: str, thunk, detail: str = "") -> None:
        """Run one check and record its verdict and elapsed time.

        The thunk returns the verdict, or a (verdict, detail) pair when the
        detail depends on the result.  An exception fails this check alone.
        """
        self.run_each(check_id, lambda: {check_id: thunk()}, detail)

    def run_each(self, check_id: str, thunk, detail: str = "", prefix: str = "") -> None:
        """Run a thunk that decides several checks at once.

        The thunk returns a dict from check name to verdict, or to a
        (verdict, detail) pair; each check is recorded as prefix + name
        with an equal share of the elapsed time, since one call decides
        them all.  An exception records the single failed check `check_id`,
        and so does an empty dict, which decides nothing.
        """
        start = time.perf_counter()
        try:
            results = ({prefix + name: verdict for name, verdict in thunk().items()}
                       or {check_id: (False, "no verdicts")})
        except Exception as exc:  # surfaces as a failure with the message
            results = {check_id: (False, f"{detail + '; ' if detail else ''}error: {exc}")}
        share = (time.perf_counter() - start) / len(results)
        for name, verdict in results.items():
            ok, note = verdict if isinstance(verdict, tuple) else (verdict, detail)
            self.add(name, ok, note, share)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def merged(self, other: "SuiteReport") -> "SuiteReport":
        out = SuiteReport(self.suite)
        out.checks = list(self.checks) + list(other.checks)
        return out

    def render(self, timings: bool = False) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            line = f"  [{status}] {c.check_id}"
            if c.detail:
                line += f" ({c.detail})"
            if timings:
                line += f" [{c.elapsed:.2f}s]"
            lines.append(line)
        passed = sum(1 for c in self.checks if c.ok)
        lines.append(f"  {passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)
