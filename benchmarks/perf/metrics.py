"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repo root lists the same names (the harness test
checks the two agree); this module is what the code reads.  ``moves`` on a
layer metric is the prediction written down before measuring: which
end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

WORKLOADS = ("bulk_move", "concurrent_moves", "faulted_moves", "dataplane_fct")


class EndToEnd(NamedTuple):
    """One end-to-end metric: what a user of the system would see."""

    name: str
    unit: str
    better: str


class Layer(NamedTuple):
    """One per-layer metric (reported by the ``--trace`` run; no bound)."""

    name: str
    unit: str
    better: str
    moves: str


#: The bounds live in ``BENCHMARK.json`` only (``compare`` reads them there).
END_TO_END = (
    EndToEnd("setup_s", "s", "lower"),
    EndToEnd("work_per_cpu_s", "1/s", "higher"),
    EndToEnd("peak_rss_mb", "MB", "lower"),
    EndToEnd("sim_op_ms_p50", "ms", "lower"),
    EndToEnd("sim_op_ms_p95", "ms", "lower"),
)

#: The attribution buckets: the repo's modules, plus the stdlib codecs the
#: wire format leans on, plus everything else.
LAYERS = (
    "runtime",
    "core.messages",
    "core.chunks",
    "core.channel",
    "core.state",
    "core.flowspace",
    "core.sharding",
    "core.controller",
    "core.operations",
    "core.southbound",
    "middleboxes",
    "net.links",
    "net.protection",
    "federation",
    "testing.chaos",
    "stdlib.codec",
    "other",
)

_CODEC = (
    "work_per_cpu_s on bulk_move and concurrent_moves; zero calls on dataplane_fct; "
    "wire_bytes_per_unit and every sim_* metric must stay identical"
)
_STATE = (
    "work_per_cpu_s, setup_s and peak_rss_mb on bulk_move; match_prefix/scan_steps move "
    "work_per_cpu_s on concurrent_moves; flat on faulted_moves"
)
_FLOWSPACE = "work_per_cpu_s on concurrent_moves (hash+eq+lt) and, less, bulk_move and dataplane_fct (flow-table match)"
_RUNTIME = (
    "work_per_cpu_s on all four; events_per_unit falling with sim_* unchanged is a kernel "
    "batching win, with sim_* changed a model change"
)
_CONTROL = "work_per_cpu_s, sim_op_ms_p50/p95 and sim_freeze_ms_p50 on concurrent_moves"
_CHANNEL = "work_per_cpu_s and sim_op_ms_p95 on faulted_moves; ARQ is off on bulk_move/concurrent_moves, no change there"
_DATAPLANE = "work_per_cpu_s and sim_op_ms_p50/p95 on dataplane_fct only"
_FEDERATION = "work_per_cpu_s and setup_s on faulted_moves only"
_HARNESS = "none: health of the measurement itself"

_MOVES_BY_LAYER: Dict[str, str] = {
    "runtime": _RUNTIME,
    "core.messages": _CODEC,
    "core.chunks": _CODEC,
    "stdlib.codec": _CODEC,
    "core.state": _STATE,
    "core.flowspace": _FLOWSPACE,
    "core.sharding": _FLOWSPACE,
    "core.controller": _CONTROL,
    "core.operations": _CONTROL,
    "core.southbound": _CONTROL,
    "core.channel": _CHANNEL,
    "middleboxes": "work_per_cpu_s on the three move workloads",
    "net.links": _DATAPLANE,
    "net.protection": _DATAPLANE,
    "federation": _FEDERATION,
    "testing.chaos": _FEDERATION,
    "other": "none: harness-side transport, dataclass plumbing, stdlib",
}


def _layer_of_metric(name: str) -> str:
    """The attribution bucket a layer metric's name starts with."""
    body = name[len("probe.") :] if name.startswith("probe.") else name
    return max((layer for layer in LAYERS if body.startswith(layer + ".")), key=len)


def _counts(*specs) -> List[Layer]:
    return [Layer(name, unit, better, _MOVES_BY_LAYER[_layer_of_metric(name)]) for name, unit, better in specs]


PER_LAYER = tuple(
    [Layer(f"{layer}.cpu_share", "share", "lower", _MOVES_BY_LAYER[layer]) for layer in LAYERS]
    + _counts(
        ("core.messages.encode_calls_per_unit", "count", "lower"),
        ("core.messages.decode_calls_per_unit", "count", "lower"),
        ("core.messages.wire_bytes_per_unit", "B", "lower"),
        ("stdlib.codec.json_dumps_per_unit", "count", "lower"),
        ("stdlib.codec.json_loads_per_unit", "count", "lower"),
        ("core.chunks.seal_calls_per_unit", "count", "lower"),
        ("core.chunks.unseal_calls_per_unit", "count", "lower"),
        ("core.flowspace.hash_calls_per_unit", "count", "lower"),
        ("core.flowspace.compare_calls_per_unit", "count", "lower"),
        ("core.sharding.stable_hash_per_unit", "count", "lower"),
        ("core.state.put_per_unit", "count", "lower"),
        ("core.state.scan_steps_per_unit", "count", "lower"),
        ("core.state.getsizeof_per_unit", "count", "lower"),
        ("core.state.peak_bytes", "B", "lower"),
        ("runtime.events_per_unit", "count", "lower"),
        ("runtime.schedule_calls_per_unit", "count", "lower"),
        ("runtime.cpu_us_per_event", "us", "lower"),
        ("core.channel.msgs_per_unit", "count", "lower"),
        ("core.channel.retransmit_share", "share", "lower"),
        ("core.channel.ack_share", "share", "lower"),
        ("core.channel.dropped_share", "share", "lower"),
        ("core.controller.batches_per_unit", "count", "lower"),
        ("core.controller.coalesced_share", "share", "higher"),
        ("core.sharding.max_shard_share", "share", "lower"),
        ("core.operations.events_buffered_per_unit", "count", "lower"),
        ("core.operations.resent_chunk_share", "share", "lower"),
        ("core.operations.sim_freeze_ms_p50", "ms", "lower"),
        ("net.links.frames_per_unit", "count", "lower"),
        ("net.links.wire_loss_share", "share", "lower"),
        ("net.protection.retransmit_share", "share", "lower"),
        ("net.protection.ctrl_per_data_frame", "count", "lower"),
        ("net.protection.effective_loss_share", "share", "lower"),
        ("federation.gossip_msgs_per_unit", "count", "lower"),
        ("federation.gossip_bytes_per_unit", "B", "lower"),
    )
    + [
        Layer("harness.rate_p50", "1/s", "higher", _HARNESS),
        Layer("harness.rate_iqr_share", "share", "lower", _HARNESS),
        Layer("harness.wall_over_cpu", "ratio", "lower", _HARNESS),
        Layer("harness.import_s", "s", "lower", _HARNESS),
        Layer("harness.calib_s", "s", "lower", _HARNESS),
        Layer("harness.gc_gen2_collections", "count", "lower", _HARNESS),
        Layer("trace.overhead_ratio", "ratio", "lower", _HARNESS),
    ]
    + _counts(
        ("probe.runtime.sim_event_ns", "ns", "lower"),
        ("probe.runtime.sim_lane_submit_ns", "ns", "lower"),
        ("probe.runtime.realtime_lane_handoff_us", "us", "lower"),
        ("probe.core.messages.encode_put_ns", "ns", "lower"),
        ("probe.core.messages.decode_put_ns", "ns", "lower"),
        ("probe.core.messages.encode_batch512_us", "us", "lower"),
        ("probe.core.messages.decode_batch512_us", "us", "lower"),
        ("probe.core.chunks.seal_ns", "ns", "lower"),
        ("probe.core.chunks.unseal_ns", "ns", "lower"),
        ("probe.core.chunks.seal_zlib_ns", "ns", "lower"),
        ("probe.core.chunks.unseal_zlib_ns", "ns", "lower"),
        ("probe.core.state.put_ns", "ns", "lower"),
        ("probe.core.state.get_ns", "ns", "lower"),
        ("probe.core.state.match_exact_ns", "ns", "lower"),
        ("probe.core.state.match_prefix_us", "us", "lower"),
        ("probe.core.state.drain_dirty_ns", "ns", "lower"),
        ("probe.core.sharding.shard_for_key_ns", "ns", "lower"),
        ("probe.core.channel.reliable_msg_us", "us", "lower"),
        ("probe.core.channel.reliable_lossy_msg_us", "us", "lower"),
        ("probe.net.links.bare_frame_us", "us", "lower"),
        ("probe.net.protection.protected_frame_us", "us", "lower"),
        ("probe.federation.gossip_round_us", "us", "lower"),
    )
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}
PER_LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}
PROBE_NAMES = tuple(metric.name for metric in PER_LAYER if metric.name.startswith("probe."))


def metric_value(name: str, value: float, samples: int) -> dict:
    """One reported metric: value, its unit from the tables above, sample count."""
    table = END_TO_END_BY_NAME if name in END_TO_END_BY_NAME else PER_LAYER_BY_NAME
    return {"value": value, "unit": table[name].unit, "samples": samples}
