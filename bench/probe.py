"""Set-up probe: a fresh interpreter imports levyhedge.cli, builds one
workload's inputs and prints the monotonic clock, which the parent compares
with its own reading taken just before it started this process.

    python3 bench/probe.py WORKLOAD SEED OUT_DIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import levyhedge.cli  # noqa: E402,F401  (the import is what is timed)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.monotonic()))
