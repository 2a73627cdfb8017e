"""Set-up probe: start like a benchmark run, then stop.

    python3 layerbench/probe.py WORKLOAD SEED WORKDIR

Imports the workload (and with it the program), draws its inputs and runs
the warm-up operation, then prints "ready".  The parent times the probe
from process start to that line: the run's set-up time.
"""

import os
import sys

import workloads


def main():
    name, seed, workdir = sys.argv[1:4]
    workload = workloads.make(name, int(seed), workdir)
    workload.op(workload.input(-1))
    print("ready", flush=True)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    main()
