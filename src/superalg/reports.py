"""Machine-readable pass/fail reports for verification suites."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


def residual_witness(label: str, entries) -> str:
    """``label: [i][j] = entry; ...`` for the first three ``(i, j, entry)``, or ``label: 0``."""
    listing = "; ".join(f"[{i}][{j}] = {entry.to_text()}" for i, j, entry in entries[:3])
    return f"{label}: {listing or '0'}"


def _value_text(value) -> str:
    """A trial input as text: elements by ``to_text``, lists and tuples entry by entry."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_value_text(v) for v in value) + "]"
    return value.to_text() if hasattr(value, "to_text") else str(value)


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    witness: str = ""
    seconds: float = 0.0  # since the report's previous clause, or since it was created


@dataclass
class SuiteReport:
    suite: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    clauses: list = field(default_factory=list)
    wall_time: float = 0.0
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def add(self, name: str, passed: bool, witness: str = "") -> bool:
        now = time.perf_counter()
        self.clauses.append(Clause(name, bool(passed), witness, now - self._mark))
        self._mark = now
        return passed

    def trials(self, name: str, witness: str, trials) -> bool:
        """Add the clause ``name`` over ``trials``, an iterable of ``(ok, case)`` pairs.

        ``case`` maps input names to values.  Every trial runs.  The clause
        passes if there is a trial and every trial is ok; else ``witness``
        gains the first failing case, or ``; no trials``.
        """
        count, failure = 0, ""
        for ok, case in trials:
            if not (ok or failure):
                inputs = ", ".join(f"{key} = {_value_text(value)}" for key, value in case.items())
                failure = f"; first failure at trial {count}: {inputs}"
            count += 1
        failure = failure if count else "; no trials"
        return self.add(name, not failure, witness + failure)

    @property
    def passed(self) -> bool:
        """True if the report has a clause and every clause passed."""
        return bool(self.clauses) and all(c.passed for c in self.clauses)

    def to_json(self, include_timing: bool = True) -> dict:
        clauses = [{"name": c.name, "pass": c.passed, "witness": c.witness} for c in self.clauses]
        data = {
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "pass": self.passed,
            "clauses": clauses,
        }
        if include_timing:
            data["wall_time"] = self.wall_time
            for entry, c in zip(clauses, self.clauses):
                entry["seconds"] = c.seconds
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
