"""Record the reference outputs of every exact request the benchmark can issue.

    python3 perfbench/record_refs.py

Runs each argv of ``workloads.exact_catalogue()`` in-process against the
bmext sources of this checkout and writes exit codes plus SHA-256 digests of
stdout and of every ``--out`` CSV to ``perfbench/refs/exact.json``.  Record
only from a tree whose outputs are known to be right: later trees are
checked against these bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli = worker.import_bmext()
    os.makedirs(worker.SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="refs-", dir=worker.SCRATCH)
    runner = worker.Runner(cli, tmp, refs={})
    outputs, seconds = {}, {}
    t0 = time.perf_counter()
    try:
        for argv in workloads.exact_catalogue():
            op = workloads.Op(0, "exact", None, argv)
            outcome = runner.call(op)
            if outcome.error:
                raise SystemExit(f"{op.key}: {outcome.error}")
            outputs[op.key] = checks.fingerprint(outcome)
            seconds[op.key] = round(outcome.seconds, 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.dirname(checks.REFS_PATH), exist_ok=True)
    with open(checks.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"outputs": outputs, "seconds_when_recorded": seconds}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"{len(outputs)} references in {time.perf_counter() - t0:.1f}s -> {checks.REFS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
