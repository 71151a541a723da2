#!/usr/bin/env python3
"""The superalg benchmark: closed-loop, exactly verified cases.

    python3 perfbench/run.py --workload {landi,grassmann,cli} --seed N --seconds S --trace {0,1}

One process, one thread, one case in flight: the next case starts only after
the previous one has returned its exact verdict.

``--trace 0`` runs whole cycles of the workload's case mix until ``--seconds``
have passed and at least ``MIN_CASES`` cases ran, and reports the end-to-end
metrics.  Their times are in *nominal* seconds: between cases, at least every
``CALIBRATE_EVERY_S``, the run times a fixed pure-Python calibration loop
that uses no superalg code, and each case's wall time is scaled by
``CALIBRATION_NOMINAL_S`` over the local calibration time (``Speed.nominal``).
On a shared host the speed of the whole machine drifts by up to 2x, in wall
and CPU time alike, and can change within tens of milliseconds; the scaled
times cancel that drift and keep what the library code costs.  The raw wall-time figures are in the
run's ``record`` line.  ``--trace 1`` runs a fixed list of cases (the first
``TRACE_CYCLES`` cycles of the seed's stream, so its counts repeat exactly)
once untraced and once with the wrappers of ``tracer.py`` installed, and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

A failed case (a ``False`` verdict or an exception) is printed with its seed
and case index; ``--case K`` re-runs case K of the seed's stream alone.  An
untraced run also fails when p50 or p90 lies on the boundary between two size
classes (``placement``), since such a percentile flips between classes from
run to run.  The exit code is 0 when the run is correct, 1 when it is not, 2
when the library cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLOCK = time.perf_counter

MIN_CASES = 100  # at least 10 samples beyond p90
SETUP_PROBES = 9
PLACEMENT_MARGIN = 0.03  # a percentile must lie this far inside its class's block
TRACE_CYCLES = 1
CALIBRATE_EVERY_S = 0.05
CALIBRATION_NOMINAL_S = 0.0026  # the calibration loop at its fastest on the 2-core x86-64 VM of the bounds
WORKLOAD_NAMES = ("landi", "grassmann", "cli")


# -- statistics ---------------------------------------------------------------


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(p * n, 9)))


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile: a sample, so its size class is known."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def placement(samples: list, p: float, margin: float = PLACEMENT_MARGIN) -> dict:
    """Which size class the p-th percentile falls in, and whether it is inside.

    Classes are ordered by median latency; each owns the block of ranks its
    share of the cases spans.  The percentile is *inside* when its rank lies
    at least ``margin`` (a share of all cases) from both ends of its class's
    block and its value lies within that class's latency range, so it cannot
    flip to a neighbouring class from run to run.
    """
    by_class = defaultdict(list)
    for cls, latency in samples:
        by_class[cls].append(latency)
    n = len(samples)
    r = rank(p, n)
    value = percentile(sorted(latency for _, latency in samples), p)
    low = 0
    for cls in sorted(by_class, key=lambda c: statistics.median(by_class[c])):
        high = low + len(by_class[cls])
        if r <= high:
            inside = (
                r - low >= margin * n
                and high - r >= margin * n
                and min(by_class[cls]) <= value <= max(by_class[cls])
            )
            return {"class": cls, "block": [round(low / n, 4), round(high / n, 4)], "inside": inside}
        low = high


# -- machine speed ------------------------------------------------------------


def calibration_work():
    """Fixed work in the library's own idiom (``Fraction`` arithmetic, dicts
    keyed by bit masks), written without superalg so no change to the
    library changes its cost."""
    total, table = Fraction(0), {}
    for i in range(1, 350):
        total += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        for j in range(16):
            key = (i * 40503 + j * 2654435761) & 0x3FF
            table[key ^ (key >> 3)] = table.get(key, 0) + j
    return total, len(table)


class Speed:
    """Calibrations interleaved with the measured work: ``(end, seconds)`` each."""

    def __init__(self):
        self.ends, self.seconds = [], []
        self.calibrate()

    def calibrate(self):
        start = CLOCK()
        calibration_work()
        end = CLOCK()
        self.ends.append(end)
        self.seconds.append(end - start)

    def calibrate_if_due(self):
        if CLOCK() - self.ends[-1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def nominal(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` in nominal seconds.

        The machine's local speed is the mean of the calibration that ends
        last before ``start`` and the one that ends first after ``end``.
        The host's speed can change within tens of milliseconds, so the
        nearest calibrations track it best.
        """
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        if before < 0 or after >= len(self.ends):
            raise ValueError("the interval is not bracketed by calibrations")
        local = (self.seconds[before] + self.seconds[after]) / 2
        return (end - start) * CALIBRATION_NOMINAL_S / local


# -- provenance ---------------------------------------------------------------


def _commit(tree: Path) -> str:
    # The ceiling keeps git from reporting the commit of a repository that
    # merely encloses a checkout that is not one itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tree.parent))
    try:
        done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "superalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(src.parent),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# -- running cases ------------------------------------------------------------


def run_case(wl, ctx, cls: str, case_seed: int) -> list:
    """The names of the failed checks; an exception is a failed case too."""
    try:
        return wl.run_case(ctx, cls, random.Random(case_seed))
    except Exception:  # noqa: BLE001 - a raising case is a failed case, reported below
        return ["raised: " + traceback.format_exc().strip().splitlines()[-1]]


def run_cases(wl, ctx, cases, failures: list, samples: list, tracer=None, speed=None):
    """Run ``(index, class, case seed)`` triples one at a time.

    Untraced, each case's ``(class, start, end)`` goes to ``samples``; with
    ``speed``, a calibration runs between cases when one is due.
    """
    for index, cls, case_seed in cases:
        if speed is not None:
            speed.calibrate_if_due()
        if tracer is not None:
            tracer.begin_case(index)
            with tracer.open_span("case"):
                failed = run_case(wl, ctx, cls, case_seed)
            tracer.end_case()
        else:
            start = CLOCK()
            failed = run_case(wl, ctx, cls, case_seed)
            samples.append((cls, start, CLOCK()))
        if failed:
            failures.append({"case": index, "class": cls, "checks": failed})


def cycle_cases(wl, seed: int, cycle: int) -> list:
    cases = wl.cycle(seed, cycle)
    return [(cycle * len(cases) + i, cls, s) for i, (cls, s) in enumerate(cases)]


def setup_seconds(workload: str, workdir: Path, src: Path, speed: Speed) -> tuple:
    """Set-up time of ``SETUP_PROBES`` fresh processes, one after another,
    each between two calibrations: ``(nominal seconds, wall seconds)``."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir), str(src)]
    nominal, wall = [], []
    for _ in range(SETUP_PROBES):
        speed.calibrate()
        start = CLOCK()
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        end = CLOCK()
        speed.calibrate()
        wall.append(float(done.stdout.strip().splitlines()[-1]))
        nominal.append(wall[-1] * speed.nominal(start, end) / (end - start))
    return nominal, wall


def timed_run(wl, seed: int, seconds: float, workdir: Path, src: Path) -> dict:
    speed = Speed()
    setups, setups_wall = setup_seconds(wl.name, workdir, src, speed)
    ctx = wl.setup(workdir)
    runs, failures, cycles = [], [], []
    start = CLOCK()
    while True:
        cases = cycle_cases(wl, seed, len(cycles))
        run_cases(wl, ctx, cases, failures, runs, speed=speed)
        cycles.append(len(cases))
        wall = CLOCK() - start
        if wall >= seconds and len(runs) >= MIN_CASES:
            break
    speed.calibrate()
    samples = [(cls, speed.nominal(s0, s1)) for cls, s0, s1 in runs]
    samples_wall = [(cls, s1 - s0) for cls, s0, s1 in runs]
    n = len(samples)
    where = {"p50": placement(samples, 0.5), "p90": placement(samples, 0.9)}

    def case_metrics(timed: list) -> dict:
        latencies = sorted(latency for _, latency in timed)
        # Per whole cycle, so each rate is at the workload's exact mix.
        bounds = [sum(cycles[:i]) for i in range(len(cycles) + 1)]
        rates = [size / sum(latency for _, latency in timed[lo:lo + size])
                 for lo, size in zip(bounds, cycles)]
        return {
            "cases_per_s": (statistics.median(rates), "1/s", len(rates)),
            "case_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms", n),
            "case_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms", n),
        }

    metrics = {
        **case_metrics(samples),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    wall_metrics = {name: value for name, (value, _, _) in case_metrics(samples_wall).items()}
    wall_metrics["setup_s"] = statistics.median(setups_wall)
    return {
        "metrics": metrics,
        "wall_metrics": wall_metrics,
        "calibration_s": {"median": statistics.median(speed.seconds), "min": min(speed.seconds),
                          "max": max(speed.seconds), "count": len(speed.seconds)},
        "attempted": n,
        "failures": failures,
        "classes": dict(Counter(cls for cls, _ in samples)),
        "cycles": len(cycles),
        "untraced_wall_s": wall,
        "placement": where,
        "placement_misses": sorted(name for name, w in where.items() if not w["inside"]),
    }


def traced_run(wl, seed: int, workdir: Path) -> dict:
    from tracer import PER_LAYER, Tracer

    ctx = wl.setup(workdir)
    cases = [case for cycle in range(TRACE_CYCLES) for case in cycle_cases(wl, seed, cycle)]
    failures = []
    start = CLOCK()
    run_cases(wl, ctx, cases, failures, [])
    untraced = CLOCK() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = CLOCK()
        run_cases(wl, ctx, cases, failures, [], tracer)
        traced = CLOCK() - start
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / untraced
    units = dict(PER_LAYER, **{"trace.overhead_ratio": "ratio"})
    trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "span_fields": ["id", "parent", "case", "name", "start", "end"],
            "spans": tracer.spans,
            "case_counts": tracer.cases,
        }, fh)
    return {
        "metrics": {name: (values[name], units[name], len(cases)) for name in units},
        "attempted": 2 * len(cases),
        "failures": failures,
        "classes": dict(Counter(cls for _, cls, _ in cases)),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tracer.spans),
        "trace_file": trace_file.name,
    }


def repro(wl, seed: int, index: int, workdir: Path) -> int:
    ctx = wl.setup(workdir)
    cycle = index // sum(wl.mix.values())
    _, cls, case_seed = cycle_cases(wl, seed, cycle)[index % sum(wl.mix.values())]
    failed = run_case(wl, ctx, cls, case_seed)
    print(json.dumps({"workload": wl.name, "seed": seed, "case": index, "class": cls, "failed": failed}))
    return 1 if failed else 0


# -- reporting ----------------------------------------------------------------


def report(wl, seed: int, seconds: float, trace: bool, result: dict, src: Path) -> dict:
    failures = result["failures"]
    attempted = result["attempted"]
    classes = ", ".join(f"{c} {k}" for c, k in result["classes"].items())
    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  {attempted} cases attempted ({classes})")
    for name, (value, unit, count) in result["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} n={count}")
    print(f"  {'failed_ratio':44s} {len(failures) / attempted:14.6g} {'ratio':6s} "
          f"n={attempted} ({len(failures)} failed)")
    for name, where in result.get("placement", {}).items():
        state = "inside" if where["inside"] else "ON A CLASS BOUNDARY"
        print(f"  {name} lies in class {where['class']} (rank block {where['block']}): {state}")
    for name in result.get("placement_misses", []):
        print(f"PLACEMENT MISS workload {wl.name} seed {seed} {name}: it lies on the boundary of class "
              f"{result['placement'][name]['class']}, so it can flip between classes from run to run; "
              f"the case mix in workloads.py needs a wider block around it")
    for failure in failures:
        print(f"FAILED workload {wl.name} seed {seed} case {failure['case']} class {failure['class']}: "
              f"{failure['checks']}; re-run with: python3 perfbench/run.py --workload {wl.name} "
              f"--seed {seed} --case {failure['case']}")
    record = {
        **provenance(wl.name, seed, src),
        "trace": int(trace),
        "run_seconds": seconds,
        **{k: v for k, v in result.items() if k not in ("metrics", "failures")},
        "failures": failures,
        "correct": not failures and not result.get("placement_misses"),
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in result["metrics"].items()},
    }
    print("record " + json.dumps(record, sort_keys=True))
    return record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced measuring time, as run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--case", type=int, default=None, help="re-run one case of the seed's stream")
    parser.add_argument("--record", type=Path, default=None, help="append the run's record to this JSONL file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree whose superalg is measured")
    args = parser.parse_args(argv)
    if args.workload == "all" and args.case is not None:
        parser.error("--case needs a single workload")
    return args


def run_all(args) -> int:
    """Each workload in its own process; one summary line over all of them."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [__file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--src", str(args.src)]
        if args.record is not None:
            argv += ["--record", str(args.record)]
        done = subprocess.run([sys.executable] + argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        if done.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = args.src.resolve()
    if not (src / "superalg" / "__init__.py").is_file():
        print(f"perfbench: no superalg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        if args.case is not None:
            return repro(wl, args.seed, args.case, workdir)
        if args.trace:
            result = traced_run(wl, args.seed, workdir)
        else:
            result = timed_run(wl, args.seed, args.seconds, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = report(wl, args.seed, args.seconds, bool(args.trace), result, src)
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
