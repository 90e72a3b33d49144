"""Ablation: linear-scan get vs an indexed per-flow state lookup.

The paper's prototype performs a linear search of the connection table for
every getSupportPerflow, and notes that "techniques used by network switches
for wildcard matches could be adopted for improved performance".  This
ablation compares the default linear-scan store with the indexed store on a
large state table, measuring both the entries scanned (work done) and the
wall-clock time of targeted queries.
"""

from __future__ import annotations

import time

from repro.analysis import format_table, print_block
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.state import PerFlowStateStore

ENTRIES = 20_000
QUERIES = 200


def _key(index: int) -> FlowKey:
    return FlowKey(6, f"10.{(index // 250) % 200}.{index % 250}.{index % 200 + 1}", "192.0.2.10", 1024 + index % 60000, 80)


def run_query_workload(indexed: bool) -> dict:
    store = PerFlowStateStore(indexed=indexed)
    for index in range(ENTRIES):
        store.put(_key(index), {"index": index})
    store.scan_steps = 0
    started = time.perf_counter()
    matched = 0
    for query in range(QUERIES):
        target = _key(query * 97 % ENTRIES)
        matched += len(store.query(FlowPattern(nw_src=target.nw_src)))
    elapsed = time.perf_counter() - started
    return {"indexed": indexed, "scanned": store.scan_steps, "matched": matched, "seconds": elapsed}


def test_ablation_indexed_get(once):
    def run_both():
        return run_query_workload(False), run_query_workload(True)

    linear, indexed = once(run_both)

    rows = [
        ("linear scan (paper prototype)", ENTRIES, QUERIES, linear["scanned"], round(linear["seconds"] * 1000, 1)),
        ("source-address index (ablation)", ENTRIES, QUERIES, indexed["scanned"], round(indexed["seconds"] * 1000, 1)),
    ]
    print_block(
        format_table(
            "Ablation — per-flow state lookup strategy",
            ["strategy", "state entries", "queries", "entries examined", "wall time (ms)"],
            rows,
        )
    )

    # Both strategies return the same matches; the index examines far fewer entries.
    assert linear["matched"] == indexed["matched"] > 0, "§8.3: the indexed get returns what the linear scan returns"
    assert indexed["scanned"] < linear["scanned"] / 50, "§8.3: the index examines 50× fewer entries than a linear scan"
    assert indexed["seconds"] < linear["seconds"], "§8.3: the indexed get is faster than the linear scan"
