"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload>

Set-up is importing NumPy, SciPy and perturbcq, constructing the problem
and, where the workload uses it, estimating the curvature constants.  Prints
one JSON object with the elapsed seconds.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import workloads

    pq = workloads.load_library()
    workloads.WORKLOADS[sys.argv[1]].setup(pq)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
