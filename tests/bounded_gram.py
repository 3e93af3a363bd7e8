"""One column Gram check on a dense random table, under an address-space
limit.

    OPENBLAS_NUM_THREADS=1 python tests/bounded_gram.py LIMIT_MIB RADIUS STATES SYMBOLS [SYMBOLS ...]

The table is `dense_table(STATES, *SYMBOLS)`.  Prints one JSON line: the
check's repr, its time in seconds and the peak RSS in MiB.  A check that
does not fit the limit exits 1 with a MemoryError.  One OpenBLAS thread
keeps the other threads' buffers out of the address space.
"""
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


if __name__ == "__main__":
    import resource  # Unix only: imported here so that dense_table imports anywhere

    limit, radius, *dims = (int(arg) for arg in sys.argv[1:])
    table = dense_table(*dims)
    resource.setrlimit(resource.RLIMIT_AS, (limit << 20, limit << 20))
    start = time.perf_counter()
    check = qt.column_gram_check(table, radius)
    print(json.dumps({"repr": repr(check), "seconds": round(time.perf_counter() - start, 3),
                      "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10}))
