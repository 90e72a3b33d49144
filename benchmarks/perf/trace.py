"""The per-layer run: profile attribution, boundary call counts, system counters.

Imported only by a ``--trace`` worker — the untraced run never loads a
profiler.  A few iterations run under ``cProfile``; self time is grouped by
source module into the buckets of :data:`~.metrics.LAYERS`; call counts of a
fixed table of boundary functions come from the same ``pstats``; the system's
own public counters are read after each iteration by the workload.

``cProfile`` charges every Python call but not work inside C, so the shares
are for finding where to look, not for claiming a gain: the end-to-end
metrics are measured untraced, and ``trace.overhead_ratio`` is the difference.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
from typing import Dict, List, Optional, Tuple

from .harness import Spans, percentile, run_iterations
from .metrics import LAYERS, metric_value

#: Source path fragment -> layer, most specific first.
_MODULE_LAYERS = (
    ("/repro/runtime/", "runtime"),
    ("/repro/net/simulator.py", "runtime"),
    ("/repro/core/messages.py", "core.messages"),
    ("/repro/core/chunks.py", "core.chunks"),
    ("/repro/core/crypto.py", "core.chunks"),
    ("/repro/core/channel.py", "core.channel"),
    ("/repro/core/state.py", "core.state"),
    ("/repro/core/flowspace.py", "core.flowspace"),
    ("/repro/core/sharding.py", "core.sharding"),
    ("/repro/core/operations.py", "core.operations"),
    ("/repro/core/transfer.py", "core.operations"),
    ("/repro/core/transaction.py", "core.operations"),
    ("/repro/core/northbound.py", "core.operations"),
    ("/repro/core/southbound.py", "core.southbound"),
    ("/repro/core/", "core.controller"),
    ("/repro/middleboxes/", "middleboxes"),
    ("/repro/net/protection.py", "net.protection"),
    ("/repro/net/", "net.links"),
    ("/repro/federation/", "federation"),
    ("/repro/testing/", "testing.chaos"),
    ("/repro/", "other"),
    ("/benchmarks/perf/", "other"),
    ("/json/", "stdlib.codec"),
    ("/base64.py", "stdlib.codec"),
    ("/hmac.py", "stdlib.codec"),
    ("/hashlib.py", "stdlib.codec"),
)
#: C-level codec functions (pstats names them ``<built-in method _json...>``).
_CODEC_BUILTINS = ("_json", "zlib", "binascii", "_hashlib", "_hmac", "_sha", "_operator._compare_digest")
#: Dataclass-generated comparison methods live in ``<string>``; on these
#: workloads they are ``FlowKey``'s.
_FLOWKEY_DUNDERS = ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")

#: Boundary functions whose call counts are reported: (path fragment, name).
_BOUNDARY = {
    "msg_encode": ("/repro/core/messages.py", "encode"),
    "msg_decode": ("/repro/core/messages.py", "decode"),
    "json_dumps": ("/json/__init__.py", "dumps"),
    "json_loads": ("/json/__init__.py", "loads"),
    "seal": ("/repro/core/crypto.py", "seal"),
    "unseal": ("/repro/core/crypto.py", "unseal"),
    "flow_hash": ("<string>", "__hash__"),
    "flow_eq": ("<string>", "__eq__"),
    "flow_lt": ("<string>", "__lt__"),
    "stable_hash": ("/repro/core/sharding.py", "stable_hash"),
    "state_put": ("/repro/core/state.py", "put"),
    "getsizeof": ("~", "<built-in method sys.getsizeof>"),
    "schedule_at": ("/repro/net/simulator.py", "schedule_at"),
}

Func = Tuple[str, int, str]


def _direct_layer(func: Func) -> Optional[str]:
    """The layer a profiled function belongs to by itself, or None when its
    time should follow its callers (builtins, dataclass plumbing, stdlib)."""
    filename, _, name = func
    if filename == "~":
        return "stdlib.codec" if any(marker in name for marker in _CODEC_BUILTINS) else None
    if filename == "<string>":
        return "core.flowspace" if name in _FLOWKEY_DUNDERS else None
    for fragment, layer in _MODULE_LAYERS:
        if fragment in filename:
            return layer
    return None


def cpu_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer as a share of all profiled self time (sums to 1)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, self_time, _, callers) in stats.stats.items():
        layer = _direct_layer(func)
        if layer is not None:
            totals[layer] += self_time
            continue
        for caller, (_, _, from_caller, _) in callers.items():
            totals[_direct_layer(caller) or "other"] += from_caller
            self_time -= from_caller
        totals["other"] += max(0.0, self_time)
    total = sum(totals.values())
    return {layer: value / total for layer, value in totals.items()}


def boundary_calls(stats: pstats.Stats) -> Dict[str, int]:
    """Call counts of the boundary-function table."""
    calls = dict.fromkeys(_BOUNDARY, 0)
    for (filename, _, name), (_, count, _, _, _) in stats.stats.items():
        for key, (fragment, wanted) in _BOUNDARY.items():
            if name == wanted and (filename == fragment or (fragment.startswith("/") and fragment in filename)):
                calls[key] += count
    return calls


class ChaosCapture:
    """Keeps hold of what ``repro.testing.chaos`` builds internally.

    ``run_chaos`` returns a :class:`ChaosResult`, not its controller, channels
    or federation, so their public counters are out of reach.  For the traced
    iterations only, the names the chaos module constructs them by are pointed
    at recording subclasses; nothing is patched in an untraced run.
    """

    def __init__(self) -> None:
        self.controllers: List = []
        self.channels: List = []
        self.federations: List = []

    def clear(self) -> None:
        self.controllers.clear()
        self.channels.clear()
        self.federations.clear()

    @contextlib.contextmanager
    def installed(self):
        from repro.testing import chaos

        def recording(base, sink):
            class Recording(base):
                def __init__(self, *args, **kwargs) -> None:
                    super().__init__(*args, **kwargs)
                    sink.append(self)

            Recording.__name__ = base.__name__
            return Recording

        originals = (chaos.MBController, chaos.ControlChannel, chaos.Federation)
        chaos.MBController = recording(chaos.MBController, self.controllers)
        chaos.ControlChannel = recording(chaos.ControlChannel, self.channels)
        chaos.Federation = recording(chaos.Federation, self.federations)
        try:
            yield self
        finally:
            chaos.MBController, chaos.ControlChannel, chaos.Federation = originals


def _sum_counters(records: List[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for record in records:
        for name, value in record["counters"].items():
            if name.endswith("_peak_bytes"):
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload, seed: int, iterations: int, scale: float, spans: Spans, sampler, *, untraced: List[dict]
) -> Dict[str, dict]:
    """Profile *iterations* iterations and reduce them to the layer metrics.

    The profiled iterations reuse the first iteration seeds of the untraced
    run, so per-unit counts describe the same inputs the timings do.
    """
    profiler = cProfile.Profile()
    with ChaosCapture().installed() as workload.capture, spans.span("profiled", workload=workload.name):
        try:
            records = run_iterations(workload, seed, iterations, scale, spans, sampler, profiler=profiler)
        finally:
            workload.capture = None
    stats = pstats.Stats(profiler)
    calls = boundary_calls(stats)
    counters = _sum_counters(records)
    units = sum(record["units"] for record in records) or 1
    events = sum(record["executed_events"] for record in records)

    def c(name: str) -> float:
        return counters.get(name, 0)

    plain_units = sum(record["units"] for record in untraced) or 1
    plain_cpu = sum(record["run_cal_s"] for record in untraced)
    plain_events = sum(record["executed_events"] for record in untraced)
    freezes = [seconds * 1e3 for record in untraced for seconds in record["sim_freeze_s"]]
    values = {f"{layer}.cpu_share": share for layer, share in cpu_shares(stats).items()}
    values.update(
        {
            "core.messages.encode_calls_per_unit": calls["msg_encode"] / units,
            "core.messages.decode_calls_per_unit": calls["msg_decode"] / units,
            "core.messages.wire_bytes_per_unit": c("channel_bytes") / units,
            "stdlib.codec.json_dumps_per_unit": calls["json_dumps"] / units,
            "stdlib.codec.json_loads_per_unit": calls["json_loads"] / units,
            "core.chunks.seal_calls_per_unit": calls["seal"] / units,
            "core.chunks.unseal_calls_per_unit": calls["unseal"] / units,
            "core.flowspace.hash_calls_per_unit": calls["flow_hash"] / units,
            "core.flowspace.compare_calls_per_unit": (calls["flow_eq"] + calls["flow_lt"]) / units,
            "core.sharding.stable_hash_per_unit": calls["stable_hash"] / units,
            "core.state.put_per_unit": calls["state_put"] / units,
            "core.state.scan_steps_per_unit": c("store_scan_steps") / units,
            "core.state.getsizeof_per_unit": calls["getsizeof"] / units,
            "core.state.peak_bytes": c("store_peak_bytes"),
            "runtime.events_per_unit": events / units,
            "runtime.schedule_calls_per_unit": calls["schedule_at"] / units,
            "runtime.cpu_us_per_event": _ratio(plain_cpu * 1e6, plain_events),
            "core.channel.msgs_per_unit": c("channel_msgs") / units,
            "core.channel.retransmit_share": _ratio(c("channel_retransmits"), c("channel_msgs")),
            "core.channel.ack_share": _ratio(c("channel_acks"), c("channel_msgs")),
            "core.channel.dropped_share": _ratio(c("channel_dropped"), c("channel_msgs")),
            "core.controller.batches_per_unit": c("controller_batches") / units,
            "core.controller.coalesced_share": _ratio(c("controller_coalesced"), c("controller_sent")),
            "core.sharding.max_shard_share": _ratio(c("shard_msgs_max"), c("shard_msgs_total")),
            "core.operations.events_buffered_per_unit": c("events_buffered") / units,
            "core.operations.resent_chunk_share": _ratio(c("resent_chunks"), c("chunks")),
            "core.operations.sim_freeze_ms_p50": percentile(freezes, 50) if freezes else 0.0,
            "net.links.frames_per_unit": c("link_frames") / units,
            "net.links.wire_loss_share": _ratio(c("protected_lost"), c("protected_sent")),
            "net.protection.retransmit_share": _ratio(c("protected_retransmits"), c("protected_sent")),
            "net.protection.ctrl_per_data_frame": _ratio(c("protected_ctrl"), c("protected_sent")),
            "net.protection.effective_loss_share": _ratio(c("transport_timeouts"), c("transport_first_sends")),
            "federation.gossip_msgs_per_unit": c("gossip_msgs") / units,
            "federation.gossip_bytes_per_unit": c("gossip_bytes") / units,
            "trace.overhead_ratio": _ratio(sum(r["run_cal_s"] for r in records) / units, plain_cpu / plain_units),
        }
    )
    return {name: metric_value(name, value, len(records)) for name, value in values.items()}
