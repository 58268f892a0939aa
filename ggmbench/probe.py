"""Set-up probe: a fresh process that imports ggm and makes a workload's inputs.

Usage: ``python3 probe.py WORKLOAD SEED WORKDIR``.  Prints the monotonic
clock in nanoseconds once the inputs exist; the caller subtracts the time
at which it started the process.
"""

import sys
import time

import common

common.prepare()
import workloads  # noqa: E402  (imports numpy only after the thread pin)

workloads.setup(sys.argv[1], int(sys.argv[2]), common.Path(sys.argv[3]))
print(time.monotonic_ns())
