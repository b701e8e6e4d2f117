"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload pipeline-tree-1m --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (whose spans are also written
to ``perfbench/traces/``).  A wrong verdict or a broken invariant exits
with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent / "src")]

from perfbench import library, wire  # noqa: E402
from perfbench.harness import GateError  # noqa: E402

WORKLOADS = {
    "pipeline-tree-1m": library.pipeline,
    "verify-fixed-300k": library.verify,
    "service-mixed-10k": wire.service,
}

TRACE_DIR = HERE / "traces"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, trace)
        line = outcome.line(trace)
    except GateError as error:
        print(f"{args.workload}: correctness gate failed: {error}", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        outcome.tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
