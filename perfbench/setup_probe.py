"""Time one fresh process's set-up: import superalg and build a workload's rings.

Usage: python3 perfbench/setup_probe.py <workload> <workdir> <src>
Prints the seconds from interpreter start-up being done to the rings being built.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[3])

import workloads  # noqa: E402  (imports superalg)

workloads.WORKLOADS[sys.argv[1]].setup(Path(sys.argv[2]))
print(time.perf_counter() - START)
