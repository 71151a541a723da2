"""Self-test of the benchmark harness at tiny sizes.

Run with ``python3 -m pytest perfbench``.  It runs one cycle of every
workload's case mix untraced, so p50 and p90 are placed on real latencies,
runs a few cases of each workload traced and checks that the counts repeat,
and checks the placement and comparison rules.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SRC = HERE.parent / "src"

TINY_MIXES = {
    "landi": {"n1": 2},
    "grassmann": {"trig-L8": 1, "sqrt-L8": 1, "power-L10": 1},
    "cli": {
        "verify-z6": 1, "verify-tensor-types": 1, "certify-sphere-n1": 1,
        "certify-nonidempotent-n2": 1, "certify-landi-n1": 1, "eval": 3,
    },
}


def tiny(name: str) -> workloads.Workload:
    full = workloads.WORKLOADS[name]
    return workloads.Workload(name, TINY_MIXES[name], full.setup, full.run_case)


@pytest.fixture
def small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_CASES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_cli_defaults_match_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert run.parse_args(["--workload", "landi", "--seed", "0"]).seconds == BENCHMARK["run_seconds"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_cycle_untraced_places_percentiles_inside(name, small_runs):
    """One whole cycle of the real mix: every case verifies, and on the
    measured latencies p50 and p90 lie inside a size class."""
    wl = workloads.WORKLOADS[name]
    result = run.timed_run(wl, 0, 0.0, small_runs, SRC)
    assert result["failures"] == []
    assert result["cycles"] == 1
    assert result["classes"] == wl.mix
    assert result["placement_misses"] == [], result["placement"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _, _ in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_counts_repeat(name, small_runs):
    first = run.traced_run(tiny(name), 0, small_runs)
    second = run.traced_run(tiny(name), 0, small_runs)
    assert first["failures"] == second["failures"] == []
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = [
        {k: v for k, (v, _, _) in r["metrics"].items() if k.endswith(("calls", "products", "ratio", "terms"))}
        for r in (first, second)
    ]
    counts[0].pop("trace.overhead_ratio")
    counts[1].pop("trace.overhead_ratio")
    assert counts[0] == counts[1]
    assert counts[0]["superring.mul.calls"] > 0
    assert (small_runs / first["trace_file"]).exists()


def test_tracer_restores_library():
    import superalg.landi
    import superalg.superring
    from fractions import Fraction
    from tracer import Tracer

    before = (superalg.landi.make_bra, superalg.superring.SuperElement.__mul__, Fraction.__new__)
    tracer = Tracer()
    tracer.install()
    assert superalg.landi.make_bra is not before[0]
    tracer.uninstall()
    assert (superalg.landi.make_bra, superalg.superring.SuperElement.__mul__, Fraction.__new__) == before


def test_failed_case_is_counted_and_reproducible(small_runs, capsys):
    def case(ctx, cls, rng):
        if cls == "bad":
            return ["identity"]
        if cls == "raises":
            raise ValueError("boom")
        return []

    wl = workloads.Workload("landi", {"good": 2, "bad": 1, "raises": 1}, lambda d: {}, case)
    result = run.timed_run(wl, 5, 0.0, small_runs, SRC)
    failed = sorted((f["class"], f["checks"][0]) for f in result["failures"])
    assert failed == [("bad", "identity"), ("raises", "raised: ValueError: boom")]
    run.report(wl, 5, 0.0, False, result, SRC)
    out = capsys.readouterr().out
    assert "--seed 5 --case" in out
    assert "failed_ratio" in out


def test_placement_miss_fails_the_run(small_runs, capsys):
    wl = workloads.Workload("landi", {"a": 1, "b": 1}, lambda d: {}, lambda ctx, cls, rng: [])
    result = run.timed_run(wl, 3, 0.0, small_runs, SRC)
    assert result["failures"] == [] and result["placement_misses"] == ["p50", "p90"]
    record = run.report(wl, 3, 0.0, False, result, SRC)
    assert record["correct"] is False
    assert "PLACEMENT MISS workload landi seed 3 p50" in capsys.readouterr().out


def test_nominal_time_scales_by_local_calibration():
    speed = run.Speed()
    nominal = run.CALIBRATION_NOMINAL_S
    speed.ends, speed.seconds = [1.0, 2.0, 3.0], [2 * nominal, 4 * nominal, 2 * nominal]
    # Between calibrations at half and a quarter of nominal speed.
    assert speed.nominal(1.1, 1.7) == pytest.approx(0.2)
    assert speed.nominal(2.2, 2.5) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        speed.nominal(3.1, 3.2)


def test_placement_inside_and_on_boundary():
    samples = [("a", 1.0)] * 60 + [("b", 10.0)] * 30 + [("c", 100.0)] * 10
    assert run.placement(samples, 0.5) == {"class": "a", "block": [0.0, 0.6], "inside": True}
    on_edge = run.placement(samples, 0.9)
    assert on_edge["class"] == "b" and not on_edge["inside"]
    samples = [("a", 1.0)] * 60 + [("b", 10.0)] * 35 + [("c", 100.0)] * 5
    assert run.placement(samples, 0.9)["inside"]


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.2, 9.8, 10.0, 10.1]
    faster = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "higher", 0.1) == "improved"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1) == "worse"
    assert compare.verdict(parent, list(parent), "higher", 0.1) == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landi", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
