"""Time one fresh-interpreter set-up of a benchmark workload.

Usage, from the root of a checkout:

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds from just before `import rfqkd` until the workload's
configs are built and validated, then the mean time of eight calibration
units run afterwards in the same process (see calibration.py).  `bench/run.py`
runs it several times per run and reports the median scaled time as
`setup_s`.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports rfqkd)

workloads.make_configs(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - t0

import calibration  # noqa: E402

print(f"{elapsed:.9f} {calibration.calibrate(8):.9f}")
