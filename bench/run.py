"""Entry point of the btwmoe benchmark (see harness.py and README.md).

    python3 bench/run.py --workload regress-btw --seed 1 --seconds 30 --trace 0

Run it from any directory; it finds the package sources next to bench/.
"""

import os
import sys
from pathlib import Path

# Pinned before NumPy loads: one BLAS/OpenMP thread per process, so a run
# measures the program and not how many idle cores the machine has.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    missing = [p for p in ("src/btwmoe", "configs") if not (root / p).is_dir()]
    if missing:
        print(f"error: {root} has no {', '.join(missing)}; nothing to benchmark", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
