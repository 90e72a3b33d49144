"""Synthetic workload generators.

The paper evaluates OpenMB with three captured traces: enterprise traffic to
cloud providers, a university data-center trace, and a high-redundancy campus
trace.  Captured traces are not redistributable, so these generators produce
synthetic equivalents that preserve the properties the evaluation relies on:

* :func:`enterprise_cloud_trace` — a mix of HTTP flows to a "cloud" subnet and
  other (non-HTTP) flows, each a full TCP conversation (handshake, requests,
  responses, close), so an IDS sees realistic connection lifecycles and a
  monitor sees realistic per-flow counters.
* :func:`datacenter_flow_durations` — flow durations that follow a
  heavy-tailed distribution with ≈9 % of flows longer than 1500 s (Figure 8).
* :func:`redundancy_trace` — packets whose payloads repeat content blocks with
  a configurable redundancy ratio, exercising the RE encoder/decoder.
* :func:`constant_rate_trace` — packets at a fixed aggregate rate across a set
  of flows (used for the event-generation experiments of Figure 9c/d).

All generators are deterministic given their ``seed``.  Alternatively a
pre-seeded ``numpy`` generator can be threaded through several calls via the
``rng`` parameter — the idiom the chaos harness uses to derive *every* random
decision of a scenario from one master seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..net.packet import ACK, FIN, SYN
from .distributions import FlowDurationModel, FlowSizeModel
from .records import Trace, TraceRecord

#: Maximum payload bytes carried by one generated packet.
MAX_SEGMENT = 512


@dataclass
class FlowSpec:
    """Specification of one synthetic TCP flow."""

    client: str
    server: str
    client_port: int
    server_port: int
    start: float
    duration: float
    #: For HTTP flows: (uri, response_bytes) per request.  Empty for raw flows.
    requests: List[Tuple[str, int]] = field(default_factory=list)
    #: For non-HTTP flows: total application bytes in each direction.
    upload_bytes: int = 0
    download_bytes: int = 0


def _chunks(total: int, chunk: int = MAX_SEGMENT) -> List[int]:
    """Split *total* bytes into segment sizes."""
    if total <= 0:
        return []
    full, rest = divmod(total, chunk)
    sizes = [chunk] * full
    if rest:
        sizes.append(rest)
    return sizes


def http_flow_records(spec: FlowSpec, *, close: bool = True) -> List[TraceRecord]:
    """Expand an HTTP flow spec into its packet records (both directions)."""
    records: List[TraceRecord] = []
    c, s = spec.client, spec.server
    cp, sp = spec.client_port, spec.server_port
    events = max(1, 3 + sum(2 + len(_chunks(size)) for _, size in spec.requests) + (3 if close else 0))
    step = spec.duration / events if spec.duration > 0 else 1e-3
    t = spec.start

    def add(src, dst, tp_src, tp_dst, payload=b"", flags=()):
        nonlocal t
        records.append(
            TraceRecord(
                time=t, nw_src=src, nw_dst=dst, tp_src=tp_src, tp_dst=tp_dst, payload=payload, flags=list(flags)
            )
        )
        t += step

    # three-way handshake
    add(c, s, cp, sp, flags=[SYN])
    add(s, c, sp, cp, flags=[SYN, ACK])
    add(c, s, cp, sp, flags=[ACK])
    # requests / responses
    for uri, response_size in spec.requests:
        request = f"GET {uri} HTTP/1.1\r\nHost: {s}\r\nUser-Agent: repro\r\n\r\n".encode()
        add(c, s, cp, sp, payload=request, flags=[ACK])
        header = b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n"
        first = True
        for size in _chunks(response_size):
            body = bytes((size * b"d"))
            payload = header + body if first else body
            add(s, c, sp, cp, payload=payload, flags=[ACK])
            first = False
        if first:
            add(s, c, sp, cp, payload=header, flags=[ACK])
    if close:
        add(c, s, cp, sp, flags=[FIN, ACK])
        add(s, c, sp, cp, flags=[FIN, ACK])
        add(c, s, cp, sp, flags=[ACK])
    return records


def raw_flow_records(spec: FlowSpec, *, close: bool = True) -> List[TraceRecord]:
    """Expand a non-HTTP flow spec into packet records (generic TCP data)."""
    records: List[TraceRecord] = []
    c, s = spec.client, spec.server
    cp, sp = spec.client_port, spec.server_port
    up = _chunks(spec.upload_bytes)
    down = _chunks(spec.download_bytes)
    events = max(1, 3 + len(up) + len(down) + (3 if close else 0))
    step = spec.duration / events if spec.duration > 0 else 1e-3
    t = spec.start

    def add(src, dst, tp_src, tp_dst, payload=b"", flags=()):
        nonlocal t
        records.append(
            TraceRecord(
                time=t, nw_src=src, nw_dst=dst, tp_src=tp_src, tp_dst=tp_dst, payload=payload, flags=list(flags)
            )
        )
        t += step

    add(c, s, cp, sp, flags=[SYN])
    add(s, c, sp, cp, flags=[SYN, ACK])
    add(c, s, cp, sp, flags=[ACK])
    for upload, download in itertools.zip_longest(up, down):
        if upload:
            add(c, s, cp, sp, payload=b"u" * upload, flags=[ACK])
        if download:
            add(s, c, sp, cp, payload=b"v" * download, flags=[ACK])
    if close:
        add(c, s, cp, sp, flags=[FIN, ACK])
        add(s, c, sp, cp, flags=[FIN, ACK])
        add(c, s, cp, sp, flags=[ACK])
    return records


def enterprise_cloud_trace(
    *,
    http_flows: int = 100,
    other_flows: int = 40,
    duration: float = 60.0,
    client_subnet: str = "10.1.1",
    cloud_subnet: str = "172.16.1",
    mean_requests: float = 2.0,
    seed: int = 1,
    leave_open_fraction: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Synthetic equivalent of the paper's campus-to-cloud trace.

    ``leave_open_fraction`` flows are generated without a close, so a fraction
    of connections remain in progress at the end of the trace (useful for
    migration experiments where live flows must keep working).  ``rng``
    overrides ``seed`` with an externally threaded generator.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    size_model = FlowSizeModel()
    records: List[TraceRecord] = []
    specs: List[FlowSpec] = []
    for index in range(http_flows):
        client = f"{client_subnet}.{index % 200 + 1}"
        server = f"{cloud_subnet}.{index % 20 + 1}"
        n_requests = max(1, int(rng.poisson(mean_requests)))
        sizes = size_model.sample(n_requests, rng)
        spec = FlowSpec(
            client=client,
            server=server,
            client_port=20_000 + index,
            server_port=80,
            start=float(rng.uniform(0, duration * 0.6)),
            duration=float(rng.uniform(duration * 0.05, duration * 0.4)),
            requests=[(f"/object/{index}/{i}", int(min(size, 4 * MAX_SEGMENT))) for i, size in enumerate(sizes)],
        )
        specs.append(spec)
        close = rng.random() >= leave_open_fraction
        records.extend(http_flow_records(spec, close=close))
    for index in range(other_flows):
        client = f"{client_subnet}.{index % 200 + 1}"
        server = f"{cloud_subnet}.{index % 20 + 101}"
        port = int(rng.choice([22, 443, 25, 3306]))
        spec = FlowSpec(
            client=client,
            server=server,
            client_port=40_000 + index,
            server_port=port,
            start=float(rng.uniform(0, duration * 0.6)),
            duration=float(rng.uniform(duration * 0.05, duration * 0.5)),
            upload_bytes=int(size_model.sample(1, rng)[0] // 4),
            download_bytes=int(size_model.sample(1, rng)[0]),
        )
        specs.append(spec)
        close = rng.random() >= leave_open_fraction
        records.extend(raw_flow_records(spec, close=close))
    return Trace.from_records(
        records,
        kind="enterprise-cloud",
        http_flows=http_flows,
        other_flows=other_flows,
        duration=duration,
        seed=seed,
        client_subnet=client_subnet,
        cloud_subnet=cloud_subnet,
    )


def datacenter_flow_durations(
    count: int = 5000,
    *,
    seed: int = 3,
    model: Optional[FlowDurationModel] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Flow durations for the data-center workload (Figure 8)."""
    model = model or FlowDurationModel()
    rng = rng if rng is not None else np.random.default_rng(seed)
    return model.sample(count, rng)


def redundancy_trace(
    *,
    packets: int = 500,
    payload_bytes: int = 1024,
    redundancy: float = 0.5,
    unique_blocks: int = 32,
    client_subnet: str = "10.3.1",
    server_subnet: str = "1.1.1",
    flows: int = 10,
    interval: float = 0.002,
    seed: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Packets whose payloads repeat earlier content with probability *redundancy*.

    Payloads are assembled from 64-byte blocks: each block is drawn from a small
    pool of repeating blocks with probability ``redundancy`` and is otherwise
    fresh random content, giving the RE encoder approximately that fraction of
    encodable bytes once the cache has warmed up.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    block = 64
    pool = [rng.integers(0, 256, size=block, dtype=np.uint8).tobytes() for _ in range(unique_blocks)]
    records: List[TraceRecord] = []
    fresh_counter = itertools.count()
    for index in range(packets):
        flow = index % flows
        blocks: List[bytes] = []
        for _ in range(max(1, payload_bytes // block)):
            if rng.random() < redundancy:
                blocks.append(pool[int(rng.integers(0, unique_blocks))])
            else:
                marker = next(fresh_counter).to_bytes(8, "big")
                filler = rng.integers(0, 256, size=block - 8, dtype=np.uint8).tobytes()
                blocks.append(marker + filler)
        records.append(
            TraceRecord(
                time=index * interval,
                nw_src=f"{client_subnet}.{flow + 1}",
                nw_dst=f"{server_subnet}.{flow % 25 + 1}",
                tp_src=50_000 + flow,
                tp_dst=80,
                payload=b"".join(blocks),
                flags=[ACK],
            )
        )
    return Trace.from_records(
        records,
        kind="redundancy",
        packets=packets,
        redundancy=redundancy,
        seed=seed,
        server_subnet=server_subnet,
    )


def constant_rate_trace(
    *,
    rate: float = 1000.0,
    duration: float = 1.0,
    flows: int = 250,
    client_subnet: str = "10.5",
    server: str = "192.0.2.20",
    payload_bytes: int = 200,
    seed: int = 9,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Packets at a fixed aggregate rate, spread round-robin over *flows* flows.

    Used by the Figure 9c/d experiments: the number of re-process events raised
    during a move is driven by how many packets arrive for the moved flows while
    the transfer window is open, i.e. by the packet rate.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    total = int(rate * duration)
    interval = 1.0 / rate if rate > 0 else duration
    records: List[TraceRecord] = []
    for index in range(total):
        flow = index % flows
        records.append(
            TraceRecord(
                time=index * interval,
                nw_src=f"{client_subnet}.{flow // 250 + 1}.{flow % 250 + 1}",
                nw_dst=server,
                tp_src=1024 + flow,
                tp_dst=80,
                payload=bytes(rng.integers(0, 256, size=payload_bytes, dtype=np.uint8)),
                flags=[ACK],
            )
        )
    return Trace.from_records(
        records, kind="constant-rate", rate=rate, duration=duration, flows=flows, seed=seed
    )
