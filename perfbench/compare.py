#!/usr/bin/env python3
"""Compare two sets of benchmark runs: one row per workload.

Run pairs (parent and change alternate which runs first; both use this
benchmark's code, pointed at each tree's ``src`` directory):

    python3 perfbench/compare.py pairs --parent-src P/src --change-src C/src --out OUTDIR

runs every workload of ``BENCHMARK.json`` ``RUNS`` times on each side, with
seeds ``FIRST_SEED``, ``FIRST_SEED + 1``, ...

Compare the records (``run.py --record`` lines) of the two sides:

    python3 perfbench/compare.py report OUTDIR/parent.jsonl OUTDIR/change.jsonl

Each row gives, for every end-to-end metric of ``BENCHMARK.json``, the median
and quartiles of both sides and a verdict.  Runs are paired by seed.

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread.
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound.
* ``unresolved``: the parent's own quartile spread is wider than the bound and
  not every run of the change reads better than every run of the parent.
* ``no worse``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
FIRST_SEED = 100


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict for one metric; ``parent[i]`` and ``change[i]`` are a pair."""
    sign = 1 if better == "higher" else -1
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cmed - pmed)
    if gain > 0 and wins >= 0.9 * len(parent) and abs(cmed - pmed) > p3 - p1:
        return "improved"
    if -gain > bound * abs(pmed):
        return "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pmed) and not all_better:
        return "unresolved"
    return "no worse"


def load(path: Path) -> dict:
    """Untraced records by workload, then by seed."""
    runs = defaultdict(dict)
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if not record["trace"]:
            runs[record["workload"]][record["seed"]] = record
    return runs


def report(parent_path: Path, change_path: Path) -> int:
    parent, change = load(parent_path), load(change_path)
    any_worse = False
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        cells = []
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            v = verdict(p, c, metric["better"], metric["bound"])
            any_worse |= v == "worse"
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            pq, cq = quartiles(p), quartiles(c)
            cells.append(f"{name}: {fmt.format(pq[1], pq[0], pq[2])} -> "
                         f"{fmt.format(cq[1], cq[0], cq[2])} {v}")
        print(f"{workload} ({len(seeds)} pairs): " + " | ".join(cells))
    return 1 if any_worse else 0


def run_pairs(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent_src, "change": args.change_src}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for i in range(RUNS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
                    "--src", str(sides[side]), "--record", str(args.out / f"{side}.jsonl"),
                ]
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    return report(args.out / "parent.jsonl", args.out / "change.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("parent", type=Path)
    rep.add_argument("change", type=Path)
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent-src", type=Path, required=True)
    pairs.add_argument("--change-src", type=Path, required=True)
    pairs.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.change)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
