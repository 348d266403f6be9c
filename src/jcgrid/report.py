"""Verification reports: named checks with pass/fail/flagged status."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    residual: float = 0.0
    detail: str = ""


@dataclass
class VerificationReport:
    """Outcome of a verification suite.

    Overall status is fail iff any check fails; flagged checks record
    observations (skipped ambiguous patterns, informational notes) and never
    flip a pass.
    """

    subject: str
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, residual: float = 0.0, detail: str = "") -> None:
        self.checks.append(Check(name, PASS if ok else FAIL, residual, detail))

    def add_counted(self, name: str, ok: bool, checked: int, unit: str,
                    residual: float = 0.0, failure: str = "") -> None:
        """A check run over ``checked`` instances, described as "<checked> <unit>".

        A check over an empty set proves nothing: it is flagged, never passed.
        ``failure`` replaces the count as the detail of a failed check.
        """
        if checked == 0:
            self.flag(name, f"0 {unit}: nothing to check")
        else:
            self.add(name, ok, residual, failure if failure and not ok else f"{checked} {unit}")

    def flag(self, name: str, detail: str) -> None:
        self.checks.append(Check(name, FLAGGED, 0.0, detail))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if c.status == FAIL]

    def render_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            line = f"[{c.status.upper():7s}] {c.name}  residual={c.residual:.3e}"
            if c.detail:
                line += f"  {c.detail}"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "overall": "pass" if self.passed else "fail",
            "checks": [
                {"name": c.name, "status": c.status, "residual": c.residual, "detail": c.detail}
                for c in self.checks
            ],
        }
