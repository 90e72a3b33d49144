"""Isolated layer probes: tight loops over public functions, fixed inputs.

Each probe is a closed loop of at least ``seconds`` of timed CPU, split into
batches of tens of milliseconds.  Every batch is bracketed by readings of the
calibration kernel and expressed in calibrated seconds like every other host
figure; the cost per call is the median over batches.  Inputs
are synthetic and fixed — a probe answers "what does this layer cost by
itself", where the workloads answer "what does it cost in situ".  Untraced.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.core import ControlChannel, FaultPlan, FlowKey, FlowPattern, PerFlowStateStore, ShardRing, StateRole, messages
from repro.core.chunks import ChunkCodec
from repro.federation import VersionedMap
from repro.net import Action, FlowRule, LinkFaultPlan, ProtectionConfig, Simulator, Switch, Topology, tcp_packet
from repro.runtime import RuntimeConfig

from .harness import calibrated, calibration_kernel
from .metrics import PROBE_NAMES, metric_value

#: A batch is one timed inner loop: returns (timed CPU seconds, calls made).
Batch = Callable[[], Tuple[float, int]]

MIN_BATCHES = 8
PAYLOAD = {"index": 7, "data": "x" * 202}
H1_IP = "10.30.0.1"
H2_IP = "10.30.0.2"


def _keys(count: int) -> list:
    return [FlowKey(6, f"10.1.{i // 250 % 250 + 1}.{i % 250 + 1}", "192.0.2.10", 1024 + i % 60_000, 80) for i in range(count)]


def _timed(loop: Callable[[], None], calls: int) -> Tuple[float, int]:
    start = time.thread_time()
    loop()
    return time.thread_time() - start, calls


def _noop() -> None:
    return None


# -- runtime ------------------------------------------------------------------------------


def sim_event() -> Batch:
    def batch():
        sim = Simulator()

        def loop():
            for i in range(20_000):
                sim.schedule(i * 1e-6, _noop)
            sim.run()

        return _timed(loop, 20_000)

    return batch


def sim_lane_submit() -> Batch:
    def batch():
        sim = Simulator()
        lane = sim.lane("probe")

        def loop():
            for _ in range(20_000):
                lane.submit(1e-6, _noop)
            sim.run()

        return _timed(loop, 20_000)

    return batch


def realtime_lane_handoff() -> Batch:
    def batch():
        runtime = RuntimeConfig(mode="realtime", time_scale=1e-3).create()
        try:
            lane = runtime.lane("probe")
            done = runtime.event("probe-done")

            def loop():
                for _ in range(19_999):
                    lane.submit(0.0, _noop)
                lane.submit(0.0, done.succeed)
                runtime.run_until(done, limit=60.0)

            return _timed(loop, 20_000)
        finally:
            runtime.close()

    return batch


# -- wire codec ---------------------------------------------------------------------------


def _chunks(count: int) -> list:
    codec = ChunkCodec.for_mb_type("dummy")
    return [codec.seal_perflow(key, PAYLOAD, StateRole.SUPPORTING) for key in _keys(count)]


def encode_put() -> Batch:
    chunk = _chunks(1)[0]

    def loop():
        for _ in range(2_000):
            messages.put_perflow("mb", chunk, seq=1).encode()

    return lambda: _timed(loop, 2_000)


def decode_put() -> Batch:
    data = messages.put_perflow("mb", _chunks(1)[0], seq=1).encode()

    def loop():
        for _ in range(2_000):
            messages.decode_chunk(messages.Message.decode(data).body["chunk"])

    return lambda: _timed(loop, 2_000)


def encode_batch512() -> Batch:
    chunks = _chunks(512)

    def loop():
        for _ in range(4):
            messages.put_perflow_batch("mb", chunks, seq=1).encode()

    return lambda: _timed(loop, 4)


def decode_batch512() -> Batch:
    data = messages.put_perflow_batch("mb", _chunks(512), seq=1).encode()

    def loop():
        for _ in range(4):
            for body in messages.Message.decode(data).body["chunks"]:
                messages.decode_chunk(body)

    return lambda: _timed(loop, 4)


def _seal(compress: bool) -> Batch:
    codec = ChunkCodec.for_mb_type("dummy", compress=compress)
    key = _keys(1)[0]

    def loop():
        for _ in range(2_000):
            codec.seal_perflow(key, PAYLOAD, StateRole.SUPPORTING)

    return lambda: _timed(loop, 2_000)


def _unseal(compress: bool) -> Batch:
    codec = ChunkCodec.for_mb_type("dummy", compress=compress)
    chunk = codec.seal_perflow(_keys(1)[0], PAYLOAD, StateRole.SUPPORTING)

    def loop():
        for _ in range(2_000):
            codec.unseal_perflow(chunk)

    return lambda: _timed(loop, 2_000)


# -- state store --------------------------------------------------------------------------


def state_put() -> Batch:
    keys = _keys(5_000)

    def batch():
        store = PerFlowStateStore()

        def loop():
            for index, key in enumerate(keys):
                store.put(key, {"index": index, "packets": 0})

        return _timed(loop, len(keys))

    return batch


def _populated(count: int, **kwargs) -> Tuple[PerFlowStateStore, list]:
    store = PerFlowStateStore(**kwargs)
    keys = _keys(count)
    for index, key in enumerate(keys):
        store.put(key, {"index": index, "packets": 0})
    return store, keys


def state_get() -> Batch:
    store, keys = _populated(5_000)

    def loop():
        for key in keys:
            store.get(key)

    return lambda: _timed(loop, len(keys))


def state_match_exact() -> Batch:
    store, keys = _populated(5_000)
    patterns = [FlowPattern.from_flow(key) for key in keys[:200]]

    def loop():
        for pattern in patterns:
            store.query(pattern)

    return lambda: _timed(loop, len(patterns))


def state_match_prefix() -> Batch:
    # The concurrent_moves shape: 400 flows to one server, a /25 of them asked for.
    store, _ = _populated(400, indexed=True)
    pattern = FlowPattern(nw_src="10.1.1.0/25", nw_dst="192.0.2.10")

    def loop():
        for _ in range(20):
            store.query(pattern)

    return lambda: _timed(loop, 20)


def state_drain_dirty() -> Batch:
    store, keys = _populated(5_000)
    store.begin_dirty_tracking()

    def loop():
        for key in keys:
            store.mark_dirty(key)
        store.drain_dirty()

    return lambda: _timed(loop, len(keys))


def shard_for_key() -> Batch:
    ring = ShardRing(4)
    keys = _keys(5_000)

    def loop():
        for key in keys:
            ring.shard_for_key(key)

    return lambda: _timed(loop, len(keys))


# -- control channel ----------------------------------------------------------------------


def _reliable_channel(lossy: bool) -> Batch:
    def batch():
        sim = Simulator()
        faults = FaultPlan.symmetric(7, drop=0.01, jitter=2.0) if lossy else None
        channel = ControlChannel(sim, "probe", faults=faults, reliable=True)
        channel.bind_controller(lambda _message: None)
        channel.bind_middlebox(lambda _message: None)

        def loop():
            for _ in range(1_000):
                # A fresh message each time: the reliable layer stamps its
                # sequence number onto the object it is handed.
                channel.send_to_middlebox(messages.get_config("mb", "probe/key"))
            sim.run()

        return _timed(loop, 1_000)

    return batch


# -- data plane ---------------------------------------------------------------------------


def _frames(protected: bool) -> Batch:
    payload = bytes(1000) if protected else b""

    def batch():
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", H1_IP)
        h2 = topo.add_host("h2", H2_IP)
        s1 = topo.add_node(Switch(sim, "s1"))
        s2 = topo.add_node(Switch(sim, "s2"))
        topo.connect(h1, s1)
        faults = LinkFaultPlan.symmetric(7, corruption=1e-3) if protected else None
        middle = topo.connect(s1, s2, faults=faults)
        topo.connect(s2, h2)
        if protected:
            middle.enable_protection(ProtectionConfig(strict_order=True))
        s1.install_rule(FlowRule(FlowPattern(nw_dst=H2_IP), [Action.output(s1.port_to(s2))]))
        s2.install_rule(FlowRule(FlowPattern(nw_dst=H2_IP), [Action.output(s2.port_to(h2))]))

        def loop():
            for seq in range(2_000):
                h1.send(tcp_packet(H1_IP, H2_IP, 10_000, 80, payload, seq=seq + 1))
            sim.run()

        return _timed(loop, 2_000)

    return batch


# -- federation ---------------------------------------------------------------------------


def gossip_round() -> Batch:
    left, right = VersionedMap(), VersionedMap()
    for index in range(64):
        left.put(f"flow-{index}", "dc0", {"owner": "dc0", "alive": True}, 0.0)
        right.put(f"flow-{index + 32}", "dc1", {"owner": "dc1", "alive": True}, 0.0)

    def loop():
        for round_index in range(100):
            left.put(f"flow-{round_index % 64}", "dc0", {"owner": "dc0", "alive": True}, float(round_index))
            right.merge(left.digest(), float(round_index))
            left.merge(right.digest(), float(round_index))

    return lambda: _timed(loop, 100)


#: name -> (batch factory, multiplier from seconds per call to the metric's unit).
PROBES: Dict[str, Tuple[Callable[[], Batch], float]] = {
    "probe.runtime.sim_event_ns": (sim_event, 1e9),
    "probe.runtime.sim_lane_submit_ns": (sim_lane_submit, 1e9),
    "probe.runtime.realtime_lane_handoff_us": (realtime_lane_handoff, 1e6),
    "probe.core.messages.encode_put_ns": (encode_put, 1e9),
    "probe.core.messages.decode_put_ns": (decode_put, 1e9),
    "probe.core.messages.encode_batch512_us": (encode_batch512, 1e6),
    "probe.core.messages.decode_batch512_us": (decode_batch512, 1e6),
    "probe.core.chunks.seal_ns": (lambda: _seal(False), 1e9),
    "probe.core.chunks.unseal_ns": (lambda: _unseal(False), 1e9),
    "probe.core.chunks.seal_zlib_ns": (lambda: _seal(True), 1e9),
    "probe.core.chunks.unseal_zlib_ns": (lambda: _unseal(True), 1e9),
    "probe.core.state.put_ns": (state_put, 1e9),
    "probe.core.state.get_ns": (state_get, 1e9),
    "probe.core.state.match_exact_ns": (state_match_exact, 1e9),
    "probe.core.state.match_prefix_us": (state_match_prefix, 1e6),
    "probe.core.state.drain_dirty_ns": (state_drain_dirty, 1e9),
    "probe.core.sharding.shard_for_key_ns": (shard_for_key, 1e9),
    "probe.core.channel.reliable_msg_us": (lambda: _reliable_channel(False), 1e6),
    "probe.core.channel.reliable_lossy_msg_us": (lambda: _reliable_channel(True), 1e6),
    "probe.net.links.bare_frame_us": (lambda: _frames(False), 1e6),
    "probe.net.protection.protected_frame_us": (lambda: _frames(True), 1e6),
    "probe.federation.gossip_round_us": (gossip_round, 1e6),
}


def run_probe(name: str, seconds: float) -> dict:
    """Loop one probe for *seconds* of timed CPU; returns its metric."""
    factory, to_unit = PROBES[name]
    batch = factory()
    per_call = []
    spent = 0.0
    after = [calibration_kernel(), calibration_kernel()]
    while spent < seconds or len(per_call) < MIN_BATCHES:
        before = after
        cpu, calls = batch()
        after = [calibration_kernel(), calibration_kernel()]
        spent += cpu
        per_call.append(calibrated(cpu / calls, statistics.fmean(before + after)))
    return metric_value(name, statistics.median(per_call) * to_unit, len(per_call))


def run_all(seconds: float) -> Dict[str, dict]:
    """Every probe, in the order ``BENCHMARK.json`` lists them."""
    return {name: run_probe(name, seconds) for name in PROBE_NAMES}
