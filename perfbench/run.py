#!/usr/bin/env python3
"""Run one benchmark workload against the package in ``src/``.

    python3 perfbench/run.py --workload quad_sweeps --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It prints a readable report, writes the
full result to ``perfbench/out/``, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run times the operations once untraced and once with
a span around every public call, and reports the per-layer ones.  Exit code
2 means the package was not found.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# One process and one thread: no BLAS thread pool either.  Set before numpy
# is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "robustpriors" / "__init__.py"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up time starts here: numpy, scipy and the package are imported below.
    t_import = time.perf_counter()
    import robustpriors
    if Path(robustpriors.__file__).resolve() != PACKAGE.resolve():
        print(f"error: imported {robustpriors.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    import bench
    return bench.run(args, time.perf_counter() - t_import)


if __name__ == "__main__":
    sys.exit(main())
