"""Repo benchmark: one command, four workloads, every verdict checked.

Run from the repository root::

    python3 perfbench/run.py --workload randpair --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any verdict
was wrong or any operation failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("randpair", "commpair_hot", "churn", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # The program under test is always the checkout's own src/, never
    # an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "serve":
        from perfbench import serve
        return serve.run(args.seed, args.seconds, bool(args.trace))
    from perfbench import inproc
    return inproc.run(args.workload, args.seed, args.seconds,
                      bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
