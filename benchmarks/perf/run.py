"""Script entry point for the benchmark driver (``BENCHMARK.json``'s command).

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the root of a checkout.  Puts the checkout on ``sys.path`` so the package
imports by its real name, then hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.perf.cli import main

    sys.exit(main())
