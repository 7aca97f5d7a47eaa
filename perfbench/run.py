"""Entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread: one client on one core, and no BLAS threads competing
    # with other processes on a small machine.  Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    from perfbench.harness import main

    sys.exit(main())
