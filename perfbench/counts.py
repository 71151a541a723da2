#!/usr/bin/env python3
"""Deterministic operation counts: check that they repeat, record them, quote deltas.

    python3 perfbench/counts.py [--write]

Runs ``run.py --trace 1`` twice per workload of ``BENCHMARK.json``, each in a
fresh process, on the seed recorded in ``baseline_counts.json``, and
exits 1 if any count (``*.calls``, ``*.term_products``, ``*.useful_ratio``,
``superring.peak_terms``) differs between the two.  ``--write`` stores the
counts in ``baseline_counts.json``; otherwise each count is printed with its
difference from that file.  Counts compare two versions of the program on one
Python version; they are not speed-ups.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline_counts.json"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = (".calls", ".term_products", ".useful_ratio", ".peak_terms")


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed (exit {done.returncode})\n{done.stdout}{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"store the counts in {BASELINE.name}")
    args = parser.parse_args(argv)
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    seed = baseline["seed"]
    counts, status = {}, 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        differ = sorted(k for k in first if first[k] != second[k])
        if differ:
            status = 1
            for key in differ:
                print(f"{workload} {key}: {first[key]} then {second[key]} (not deterministic)")
        counts[workload] = first
        recorded = baseline["counts"].get(workload, {})
        for key, value in first.items():
            base = recorded.get(key)
            delta = "" if base is None else f"  (recorded {base}, delta {value - base:+})"
            print(f"{workload} {key} = {value}{delta}")
    if args.write and status == 0:
        BASELINE.write_text(json.dumps({
            "seed": seed,
            "python": platform.python_version(),
            "counts": counts,
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
