"""One run of an in-process workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload gram --seed 1 --seconds 10 --trace 0

Set-up is `import qturing`, generating the seeded inputs and one discarded
warm-up op per input shape.  A reference reading (`passes.mark`) follows
each step and each warm-up op, so `run.py` can scale set-up time to the reference host.  The timed
and traced passes are those of `passes.measure`.

The last line of stdout is one JSON object; `run.py` reads it.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys

import qturing  # noqa: F401  (importing the package is part of set-up)

from passes import mark, measure, warm_up
from tracing import spans_json
from workloads import MAKE_WORKLOAD


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKE_WORKLOAD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its marks")
    args = parser.parse_args(argv)

    marks = [mark()]
    workload = MAKE_WORKLOAD[args.workload](args.seed)
    marks.append(mark())
    marks.extend(warm_up(workload))
    out = {"marks": marks}
    if not args.setup_only:
        out.update(measure(workload, args.seed, args.seconds, bool(args.trace)))
        if args.trace:
            out["spans"] = spans_json(out.pop("tracer"))
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
