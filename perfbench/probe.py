"""Time one workload's set-up in a fresh interpreter.

Usage: python perfbench/probe.py WORKLOAD   (with the checkout's src on PYTHONPATH)

Prints the seconds from just before ``import rssifit`` until the workload is
ready for its first op: the import plus the workload's one-time work.
Importing the benchmark's own module is not counted.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import rssifit

    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]("full", workloads.PERFBENCH.parent)
    t2 = time.perf_counter()
    workload.setup(rssifit)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


if __name__ == "__main__":
    main()
