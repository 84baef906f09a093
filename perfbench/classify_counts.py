"""Exact-count classification: which per-layer counts repeat exactly.

Runs every workload's traced run twice at one seed and compares the
per-layer metrics that are counts or ratios of counts (times and the
benchmark's own health metrics are left out).  Writes the result to
``perfbench/EXACT_COUNTS.json``; a later change may claim a count only
on a metric listed as exact for the workload it names.  Run from the
repository root::

    python3 perfbench/classify_counts.py --seed 1 --seconds 6
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("randpair", "commpair_hot", "churn", "serve")
#: Units of metrics that are counts or ratios of counts.
COUNT_UNITS = {"count", "1", "B", "pairs"}


def traced(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args()
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        first = traced(workload, args.seed, args.seconds)
        second = traced(workload, args.seed, args.seconds)
        exact, varies, unused = {}, {}, []
        for name, m in first.items():
            if m["unit"] not in COUNT_UNITS or name.startswith("bench."):
                continue
            pair = [m["value"], second[name]["value"]]
            if pair == [0, 0]:
                unused.append(name)  # the layer is not on this path
            elif pair[0] == pair[1]:
                exact[name] = pair[0]
            else:
                varies[name] = pair
        doc["workloads"][workload] = {"exact": exact, "varies": varies,
                                      "zero": unused}
        print(workload, "exact:", ", ".join(exact) or "-", flush=True)
    (HERE / "EXACT_COUNTS.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
