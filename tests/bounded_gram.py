"""One Gram check on a dense random table, under an address-space limit.

    OPENBLAS_NUM_THREADS=1 python tests/bounded_gram.py LIMIT_MIB RADIUS STATES SYMBOLS [SYMBOLS ...] \
        [--side rows|both] [--golden tests/golden/bounded_gram.json]

The table is `dense_table(STATES, *SYMBOLS)`; the check is the column Gram
check, or the row Gram check with `--side rows`.  With `--side both` the
column check and then the row check run on the one table, as `qturing gram`
runs them by default, so the second reuses the window the first kept on
the table.  Prints one JSON line per check: its repr, its time in seconds
and the process's peak RSS in MiB so far.  A check that does not fit the
limit exits 1 with a MemoryError.  With `--golden`, a check whose repr
differs from the one the JSON file pins for its table, radius and side
(`golden_key`), or that the file does not pin, exits 1 too.  One
OpenBLAS thread keeps the other threads' buffers out of the address space.
"""
import argparse
import json
import sys
import time

import numpy as np

import qturing as qt


def dense_table(*dims: int) -> qt.TransitionTable:
    """Every rule of `simple_frame(*dims)` present, each amplitude a complex
    Gaussian from `np.random.default_rng(3)`."""
    frame = qt.simple_frame(*dims)
    rng = np.random.default_rng(3)
    return qt.TransitionTable(frame, rng.standard_normal(frame.table_shape)
                              + 1j * rng.standard_normal(frame.table_shape))


def golden_key(dims, radius: int, side: str) -> str:
    """The key of one check in a `--golden` file, e.g. "2,2 r=6 columns"."""
    return f"{','.join(map(str, dims))} r={radius} {side}"


if __name__ == "__main__":
    import resource  # Unix only: imported here so that dense_table imports anywhere

    parser = argparse.ArgumentParser(description="one Gram check on a dense table under an address-space limit")
    parser.add_argument("limit", type=int, help="address-space limit in MiB")
    parser.add_argument("radius", type=int)
    parser.add_argument("dims", type=int, nargs="+", help="the states, then the symbols of each tape")
    parser.add_argument("--side", choices=("columns", "rows", "both"), default="columns")
    parser.add_argument("--golden", help="a JSON file of pinned reprs, by `golden_key`")
    args = parser.parse_args()
    golden = None
    if args.golden:
        with open(args.golden, encoding="utf-8") as file:
            golden = json.load(file)
    table = dense_table(*args.dims)
    checks = {"columns": [qt.column_gram_check], "rows": [qt.row_gram_check],
              "both": [qt.column_gram_check, qt.row_gram_check]}[args.side]
    resource.setrlimit(resource.RLIMIT_AS, (args.limit << 20, args.limit << 20))
    for check in checks:
        start = time.perf_counter()
        result = check(table, args.radius)
        print(json.dumps({"repr": repr(result), "seconds": round(time.perf_counter() - start, 3),
                          "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10}), flush=True)
        if golden is not None:
            key = golden_key(args.dims, args.radius, result.side)
            if golden.get(key) != repr(result):
                sys.exit(f"{key}: the repr differs from the one pinned in {args.golden}")
