"""Set-up probe: a fresh interpreter imports bohrcert and builds one workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the ``time.perf_counter()`` reading at which the inputs were ready.
On Linux and macOS that clock is system-wide monotonic, so the parent
subtracts its own reading taken before the spawn to get the set-up time
from a fresh interpreter to validated inputs.
"""

import sys
import time

import bootstrap

bootstrap.use_checkout_sources()

import workloads  # noqa: E402  (needs the checkout's src/ on sys.path)

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter()))
