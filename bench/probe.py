"""Set-up probe: time a fresh import of the package plus one warm-up design.

    python3 bench/probe.py <workload>

Prints the seconds as its last line; `run.py` runs it several times per run
and reports the median as `setup_s`.
"""

import time

_START = time.perf_counter()

import envpin  # noqa: E402

envpin.pin()

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        workloads.make(sys.argv[1], 0, Path(scratch)).warm_up()
        print(time.perf_counter() - _START)
