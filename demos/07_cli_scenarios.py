"""Driving the command line from a scenario file.

Every subcommand also runs in-process through ``bmext.cli.main``, which
is what this script does so the output lands in one place.  The same
calls work from a shell as ``bmext <command> ...`` once the package is
installed.
"""

import json
import sys
import tempfile
from pathlib import Path

from bmext import cli

# A scenario bundles a configuration, named functions on it, and
# pre-baked experiment parameter sets.  Endpoints may be "inf"/"-inf";
# weights may be exact fraction strings.
SCENARIO = {
    "schema": 1,
    "name": "demo-line",
    "config": {
        "intervals": [
            {
                "lo": "-inf",
                "hi": "inf",
                "scale": {"blocks": [{"lo": 0.0, "hi": 1.0, "weight": "1"}]},
            }
        ]
    },
    "functions": {
        "ramp-and-stair": [
            {
                "anchor": 0.0,
                "pieces": [
                    ["-inf", 0, 0, 0],
                    [0, 1, 1, 1],
                    [1, "inf", 0, 0],
                ],
            }
        ]
    },
    "experiments": [
        {
            "command": "simulate",
            "kind": "hitting",
            "x0": 0.3333333333333333,
            "left": 0.0,
            "right": 1.0,
            "samples": 20000,
            "seed": 20260814,
        }
    ],
}


def bmext(*argv: str) -> None:
    """Run one command in-process; stop the demo if it is refused."""
    code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"bmext {' '.join(argv)} exited {code}")


with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.json"
    path.write_text(json.dumps(SCENARIO))

    # bmext validate --scenario demo.json
    # The reported sha256 depends only on the configuration content, so
    # this file hashes identically to the ex215 preset it reproduces.
    print("== validate ==")
    bmext("validate", "--scenario", str(path), "--deterministic")

    # bmext energy --scenario demo.json --function ramp-and-stair
    # unit dx-slope and unit staircase slope on [0, 1]: energy 1/2 + 1/2.
    print("\n== energy ==")
    bmext("energy", "--scenario", str(path), "--function", "ramp-and-stair", "--deterministic")

    # bmext simulate hitting --scenario demo.json --experiment 0
    # parameters come from the experiment entry; flags would override.  The
    # walk kind is named on the command line too, and must match the entry's.
    print("\n== simulate hitting, experiment 0 ==")
    bmext("simulate", "hitting", "--scenario", str(path), "--experiment", "0", "--deterministic")

    # Presets skip the file: bmext darn --preset ex215 --out tables/
    print("\n== darn a preset, with a CSV table ==")
    out = Path(tmp) / "tables"
    bmext("darn", "--preset", "ex215", "--depth", "4", "--out", str(out), "--deterministic")
    print("\nfirst lines of the atom table:")
    for line in (out / "darn_atoms.csv").read_text().splitlines()[:6]:
        print(f"  {line}")
