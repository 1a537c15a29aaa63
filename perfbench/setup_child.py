"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_child.py <workload> <seed>

The clock starts before numpy and firstroot are imported, so the time covers
the imports, building the problems (F_max of the filters included) and the
curvature oracle for every a1 problem: what a user pays before the first solve.
It prints that time and the time of the speed probe run right after it.
"""

import sys
import time

t0 = time.perf_counter()

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]))
seconds = time.perf_counter() - t0

import run  # noqa: E402

print(repr(seconds), repr(run.probe_seconds()))
