"""Set-up time of the served system, in a fresh interpreter.

Times from before ``import repro`` until the pool is live: registry
built, matrix registered, first pool spawned and its CSR copied. The
matrix arrays are loaded (by NumPy, the benchmark's own input) before
the clock starts, so input generation is not counted. A zero right-hand
side spawns the pool: it is converged at its initial residual check, so
no epoch runs.

Prints ``{"setup_s": ..., "t0": ..., "t1": ...}`` as its only line
(``t0``/``t1`` on ``perf_counter``'s clock, for the driver's speed
reference).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import numpy as np

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--matrix", required=True)
    args = parser.parse_args(argv)
    with np.load(args.matrix) as arrays:
        shape = tuple(int(v) for v in arrays["shape"])
        indptr, indices, data = (
            arrays["indptr"], arrays["indices"], arrays["data"]
        )

    started = perf_counter()
    from repro.sparse import CSRMatrix

    import harness

    A = CSRMatrix(shape, indptr, indices, data)
    registry = harness.make_registry(workloads.SPECS[args.workload], A)
    try:
        registry.submit(np.zeros(shape[0])).result()
        setup = perf_counter() - started
    finally:
        registry.close()
    print(json.dumps({"setup_s": setup, "t0": started,
                      "t1": started + setup}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
