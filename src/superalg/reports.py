"""Machine-readable pass/fail reports for verification suites."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def residual_witness(label: str, entries) -> str:
    """``label: [i][j] = entry; ...`` for the first three ``(i, j, entry)``, or ``label: 0``."""
    listing = "; ".join(f"[{i}][{j}] = {entry.to_text()}" for i, j, entry in entries[:3])
    return f"{label}: {listing or '0'}"


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class SuiteReport:
    suite: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    clauses: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name: str, passed: bool, witness: str = "") -> bool:
        self.clauses.append(Clause(name, bool(passed), witness))
        return passed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_json(self, include_timing: bool = True) -> dict:
        data = {
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "pass": self.passed,
            "clauses": [
                {"name": c.name, "pass": c.passed, "witness": c.witness} for c in self.clauses
            ],
        }
        if include_timing:
            data["wall_time"] = self.wall_time
        return data

    def to_json_text(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json(include_timing), indent=2, sort_keys=True)

    def to_text(self, color: bool = False) -> str:
        green, red, reset = ("\x1b[32m", "\x1b[31m", "\x1b[0m") if color else ("", "", "")
        lines = [f"suite {self.suite} {self.params} seed={self.seed}"]
        for c in self.clauses:
            mark = f"{green}PASS{reset}" if c.passed else f"{red}FAIL{reset}"
            line = f"  [{mark}] {c.name}"
            if c.witness:
                line += f"  ({c.witness})"
            lines.append(line)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict}  ({len(self.clauses)} clauses, {self.wall_time:.3f}s)")
        return "\n".join(lines)
