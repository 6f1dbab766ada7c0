"""Set-up probe: import geopursuit and build one workload's dictionary and grid.

    python3 perfbench/setup_probe.py <workload>

Prints `ready` when the workload could start its first operation. The
benchmark starts it as a fresh interpreter and times it up to that line.
"""

import sys

import workloads

workload = workloads.WORKLOADS[sys.argv[1]]()
workload.setup()
print("ready", flush=True)
