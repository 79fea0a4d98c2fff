"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED TINY

Prints one JSON line: the time to import phantomfields, and the time from
before that import to the end of the workload's set-up (models built and
every axis length it uses factored, with cold caches).
"""

import json
import sys
import time

t0 = time.perf_counter()
import phantomfields  # noqa: E402,F401

t_import = time.perf_counter() - t0

from workloads import WORKLOADS  # noqa: E402

name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
WORKLOADS[name](seed, tiny).setup()
print(json.dumps({"import_s": t_import, "setup_s": time.perf_counter() - t0}))
