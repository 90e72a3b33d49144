"""Ablation: compressing state before transfer (paper section 8.3).

The paper profiles its controller and observes that socket reads dominate when
many chunks move, suggesting compression: in their experiment a 500-chunk move
compresses state by ~38 % and drops from 110 ms to 70 ms.  This ablation moves
the same per-flow state with and without chunk compression over a deliberately
constrained control channel and reports the bytes transferred and the
simulated operation time.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.core.chunks import ChunkCodec
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator

CHUNKS = 500
CHUNK_BYTES = 4000
#: A constrained control channel (100 Mbit/s) so transfer size matters.
CHANNEL_BANDWIDTH = 12_500_000.0


def run_move(compress: bool) -> dict:
    sim = Simulator()
    config = ControllerConfig(quiescence_timeout=0.1, channel_bandwidth=CHANNEL_BANDWIDTH)
    controller = MBController(sim, config)
    northbound = NorthboundAPI(controller)
    src = DummyMiddlebox(sim, "src", chunk_count=CHUNKS, chunk_bytes=CHUNK_BYTES)
    dst = DummyMiddlebox(sim, "dst")
    if compress:
        codec = ChunkCodec.for_mb_type(DummyMiddlebox.MB_TYPE, compress=True)
        src.codec = codec
        dst.codec = codec
    controller.register(src)
    controller.register(dst)
    handle = northbound.move_internal("src", "dst", None)
    record = sim.run_until(handle.completed, limit=500)
    return {
        "compress": compress,
        "chunks": record.chunks_transferred,
        "bytes": record.bytes_transferred,
        "duration": record.duration,
    }


def test_ablation_state_compression(once):
    def run_both():
        return run_move(False), run_move(True)

    plain, compressed = once(run_both)

    reduction = 100.0 * (1.0 - compressed["bytes"] / plain["bytes"])
    speedup = 100.0 * (1.0 - compressed["duration"] / plain["duration"])
    rows = [
        ("uncompressed chunks", plain["chunks"], plain["bytes"], round(plain["duration"] * 1000, 1)),
        ("compressed chunks", compressed["chunks"], compressed["bytes"], round(compressed["duration"] * 1000, 1)),
    ]
    print_block(
        format_table(
            "Ablation — state compression before transfer (100 Mbit/s control channel)",
            ["configuration", "chunks moved", "bytes transferred", "move time (ms)"],
            rows,
        )
    )
    print_block(
        format_table(
            "Ablation — compression effect",
            ["metric", "value"],
            [("state size reduction (%)", round(reduction, 1)), ("operation time reduction (%)", round(speedup, 1))],
        )
    )

    assert compressed["chunks"] == plain["chunks"], "§8.3: compression moves the same chunks"
    # Compression shrinks the transferred state substantially and shortens the move.
    assert compressed["bytes"] < plain["bytes"] * 0.8, "§8.3: compression shrinks the moved state by more than 20 %"
    assert compressed["duration"] < plain["duration"], "§8.3: compression shortens the move (110 ms → 70 ms)"
