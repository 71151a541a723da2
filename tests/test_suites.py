import json
import re
from fractions import Fraction

import pytest

from superalg.errors import DomainError
from superalg.expressions import parse_element
from superalg.reports import SuiteReport
from superalg.suites import SUITES, featured_rings, run_suite
from superalg.superring import SuperElement


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


# -- the failure path: a broken law names its first counterexample ---------------

FAILURE = re.compile(r"; first failure at trial (\d+): x = (.*), y = (.*)$")


def break_odd_even_products(monkeypatch, ring):
    """Negate ``x * y`` for odd ``x`` and even ``y`` on ``ring`` only: super-commutativity fails there."""
    product = SuperElement.__mul__

    def wrong_sign(x, y):
        out = product(x, y)
        broken = isinstance(y, SuperElement) and x.ring.odd_names == ring.odd_names
        return -out if broken and x.parity() == 1 and y.parity() == 0 else out

    monkeypatch.setattr(SuperElement, "__mul__", wrong_sign)


def commutes(x, y):
    return x * y == (-(y * x) if x.parity() * y.parity() else y * x)


@pytest.mark.parametrize("label", [label for label, _ in featured_rings()])
def test_broken_law_names_its_counterexample_on_that_ring_only(monkeypatch, label):
    ring = dict(featured_rings())[label]
    break_odd_even_products(monkeypatch, ring)
    rep = run_suite("grassmann-laws", seed=3, count=200)
    failed = [c for c in rep.clauses if not c.passed]
    assert f"super-commutativity[{label}]" in [c.name for c in failed]
    assert all(c.name.endswith(f"[{label}]") for c in failed)
    clause = next(c for c in failed if c.name.startswith("super-commutativity"))
    match = FAILURE.search(clause.witness)
    assert clause.witness.startswith("50 homogeneous pairs; first failure at trial ") and match
    if label == "uosp":
        again = run_suite("grassmann-laws", seed=rep.seed, count=200)
        assert next(c for c in again.clauses if c.name == clause.name).witness == clause.witness
        return
    x, y = (parse_element(text, ring) for text in match.group(2, 3))
    assert not commutes(x, y)
    monkeypatch.undo()
    assert commutes(x, y)


def test_trials_run_every_trial_and_name_the_first_failure():
    seen = []

    def trials():
        for k in range(5):
            seen.append(k)
            yield k not in (2, 4), {"k": k, "pair": (k, Fraction(k, 3))}

    rep = SuiteReport("demo")
    assert not rep.trials("law", "5 cases", trials())
    assert seen == [0, 1, 2, 3, 4]
    assert rep.clauses[0].witness == "5 cases; first failure at trial 2: k = 2, pair = [2, 2/3]"
    assert rep.trials("fine", "3 cases", ((True, {}) for _ in range(3)))
    assert rep.clauses[1].witness == "3 cases"


def test_a_clause_without_trials_fails():
    rep = SuiteReport("demo")
    assert not rep.trials("empty", "every case", iter(()))
    assert not rep.passed and rep.clauses[0].witness == "every case; no trials"
    rep = run_suite("hom-grading", count=0)
    assert not rep.passed
    assert all(c.witness.endswith("; no trials") for c in rep.clauses)
    assert not run_suite("grassmann-laws", count=3).passed  # zero pairs per ring


def test_clause_seconds_are_timing():
    rep = run_suite("nilpotency", count=20)
    timed = rep.to_json()["clauses"]
    assert [c["name"] for c in timed] == [c.name for c in rep.clauses]
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in timed)
    assert sum(c["seconds"] for c in timed) <= rep.wall_time
    assert all("seconds" not in c for c in rep.to_json(include_timing=False)["clauses"])


def test_a_report_without_clauses_fails():
    assert not SuiteReport("empty").passed
    rep = run_suite("example-2-6", max_n=0)
    assert not rep.clauses and not rep.passed
    assert json.loads(rep.to_json_text())["pass"] is False
