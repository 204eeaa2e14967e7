"""Set-up time of one workload, measured in a fresh process.

    python3 perfbench/setup_time.py WORKLOAD SEED SECONDS

Set-up is importing bmext and bmext.cli and generating the workload's
operation list.  The clock starts before anything they depend on is
imported, so numpy's import counts too; only sys, os and time are loaded
first.  Prints one JSON object: the seconds; which of the timed imports
were already loaded when the clock started (none, in a fresh process); and
the times of a few calibration units run afterwards (see calibration.py).
"""

import os
import sys
import time

TIMED_IMPORTS = ("numpy", "bmext", "fractions", "argparse")
UNITS = 5


def measure(workload: str, seed: int, seconds: float) -> dict:
    preloaded = [name for name in TIMED_IMPORTS if name in sys.modules]
    t0 = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path[:0] = [here, src]
    import bmext
    import bmext.cli  # noqa: F401
    import workloads

    workloads.WORKLOADS[workload](seed, seconds)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(bmext.__file__).startswith(src + os.sep):
        raise SystemExit(f"bmext imported from {bmext.__file__}, not from {src}")
    import calibration

    units = [calibration.unit_seconds() for _ in range(UNITS)]
    return {"setup_s": setup_s, "preloaded": preloaded, "units_s": units}


if __name__ == "__main__":
    import json

    print(json.dumps(measure(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))))
