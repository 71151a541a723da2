import json

import pytest

from superalg.errors import DomainError
from superalg.reports import SuiteReport
from superalg.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_with_defaults(name):
    rep = run_suite(name)
    assert rep.passed, rep.to_text()
    assert rep.clauses


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("nonsense")


def test_seed_determinism():
    a = run_suite("grassmann-laws", seed=7, count=100).to_json(include_timing=False)
    b = run_suite("grassmann-laws", seed=7, count=100).to_json(include_timing=False)
    assert a == b


def test_report_shape():
    rep = SuiteReport("demo", params={"k": 1}, seed=3)
    rep.add("ok", True, "w")
    rep.add("bad", False)
    assert not rep.passed
    data = json.loads(rep.to_json_text())
    assert data["suite"] == "demo" and data["pass"] is False
    assert [c["name"] for c in data["clauses"]] == ["ok", "bad"]
    text = rep.to_text(color=True)
    assert "\x1b[32mPASS\x1b[0m" in text and "\x1b[31mFAIL\x1b[0m" in text
    assert "\x1b[" not in rep.to_text(color=False)


def test_landi_suite_reports_residual():
    rep = run_suite("landi", n=1)
    idem = next(c for c in rep.clauses if c.name == "idempotent")
    assert "residual p^2 - p: 0" in idem.witness


def test_run_suite_times_the_suite():
    assert run_suite("z6").wall_time > 0
    assert SUITES["z6"]().wall_time == 0.0  # suites no longer time themselves


def test_run_suite_passes_only_the_parameters_a_suite_takes():
    a = run_suite("z6", L=3, seed=None).to_json(include_timing=False)
    b = run_suite("nilpotency", L=4, count=20, n=None, max_n=7).to_json(include_timing=False)
    assert a == run_suite("z6").to_json(include_timing=False)
    assert b["params"] == {"L": 4, "count": 20}
