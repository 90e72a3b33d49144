"""Host-time benchmark of the OpenMB reproduction.

Every other ``benchmarks/bench_*.py`` reports *simulated* milliseconds — what
the modelled control plane would take.  This package measures what the Python
itself costs: CPU seconds per chunk, per scenario, per frame, attributed to
the repo's layers, with the simulated figures printed beside them so a
performance change can prove it left the model alone.

Entry points (see ``README.md`` in this directory)::

    PYTHONPATH=src python -m benchmarks.perf run [--trace]
    PYTHONPATH=src python -m benchmarks.perf compare A.json B.json
    python3 benchmarks/perf/run.py --workload bulk_move --seed 12 --seconds 20 --trace 0

The harness drives the system only through its public API and imports nothing
from the sibling ``bench_*.py`` files.
"""
