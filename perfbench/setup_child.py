"""Time one workload set-up in a fresh process.

    python3 perfbench/setup_child.py WORKLOAD INPUTS.json

Reads the plain inputs, then times importing the workload's module of
the package and turning the inputs into library objects, and prints the
seconds taken and then the reference kernel's median time in this
process (see refspeed.py).
"""

import importlib
import json
import sys
from time import perf_counter

import refspeed
import workloads


def main():
    workload = workloads.WORKLOADS[sys.argv[1]]
    with open(sys.argv[2], encoding="utf-8") as fh:
        ops = json.load(fh)
    t0 = perf_counter()
    importlib.import_module(workload.module)
    workload.setup(importlib.import_module("leavitt"), ops)
    took = perf_counter() - t0
    print(took, refspeed.median_sample())


if __name__ == "__main__":
    main()
