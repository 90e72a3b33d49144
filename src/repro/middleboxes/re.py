"""Redundancy elimination (RE) encoder and decoder middleboxes (SmartRE-like).

The paper's live-migration scenario (section 6.1) uses an RE encoder at a
remote site and an RE decoder in each data center:

* the **encoder** maintains, per decoder, a packet cache (a ring buffer of
  recently seen content) and a fingerprint table (hashes of content chunks to
  cache offsets).  Redundant regions of a packet are replaced by small *shims*
  that reference the cache offset where the content was previously stored.
* the **decoder** maintains a packet cache that must stay byte-for-byte
  synchronised with the encoder's cache for that decoder: it reconstructs each
  packet by copying shim-referenced regions out of its own cache, and inserts
  the same raw regions into its cache in the same order as the encoder did.

Both caches are *shared supporting* state — the class of state that must be
cloned (never started empty) when a decoder is migrated, and the reason the
configuration+routing baseline leaves every encoded byte undecodable
(Table 3): once the caches diverge, shims point at content the decoder does
not have.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import MiddleboxError, StateError
from ..core.flowspace import IPv4Prefix
from ..core.southbound import ProcessingCosts
from ..core.state import SharedStateSlot, StateRole, StateScope
from ..net.packet import Packet
from ..net.simulator import Simulator
from .base import Middlebox, ProcessResult, Verdict

#: Content chunk size the encoder fingerprints (bytes).
CHUNK_SIZE = 64

#: Wire size of one shim: cache id (1) + offset (4) + length (2) + checksum (4).
SHIM_BYTES = 11

#: Default packet-cache capacity (bytes).  The paper uses 500 MB caches; the
#: simulated default is smaller so tests run quickly, and benchmarks scale it up.
DEFAULT_CACHE_CAPACITY = 256 * 1024

#: Largest capacity a packet-cache payload may name: the paper's 500 MB cache,
#: rounded up.  A decoder refuses anything larger before allocating a byte.
MAX_CACHE_CAPACITY = 512 * 1024 * 1024


def _checksum(data: bytes) -> int:
    """A 32-bit checksum of a content region, carried in each shim."""
    return int.from_bytes(hashlib.sha1(data).digest()[:4], "big")


def _fingerprint(data: bytes) -> str:
    """Fingerprint used to index content chunks in the fingerprint table."""
    return hashlib.sha1(data).hexdigest()[:16]


class PacketCache:
    """A ring buffer of packet content, addressed by byte offset."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._buffer = bytearray(capacity)
        self.current_pos = 0
        self.max_reached = False

    def insert(self, content: bytes) -> int:
        """Store *content* at the current position and return its offset.

        Content that would run past the end of the buffer wraps to offset 0,
        mirroring the ring-buffer behaviour of the paper's implementation.
        """
        if len(content) > self.capacity:
            raise MiddleboxError("content larger than the packet cache")
        if self.current_pos + len(content) > self.capacity:
            self.current_pos = 0
            self.max_reached = True
        offset = self.current_pos
        self._buffer[offset : offset + len(content)] = content
        self.current_pos += len(content)
        return offset

    def read(self, offset: int, length: int) -> Optional[bytes]:
        """Read *length* bytes at *offset*; None when the region was never written."""
        if offset < 0 or length < 0 or offset + length > self.capacity:
            return None
        written_extent = self.capacity if self.max_reached else self.current_pos
        if offset + length > written_extent:
            return None
        return bytes(self._buffer[offset : offset + length])

    def clone(self) -> "PacketCache":
        duplicate = PacketCache(self.capacity)
        duplicate._buffer = bytearray(self._buffer)
        duplicate.current_pos = self.current_pos
        duplicate.max_reached = self.max_reached
        return duplicate

    @property
    def used_bytes(self) -> int:
        return self.capacity if self.max_reached else self.current_pos

    def to_payload(self) -> dict:
        return {
            "capacity": self.capacity,
            "buffer": bytes(self._buffer[: self.used_bytes]),
            "current_pos": self.current_pos,
            "max_reached": self.max_reached,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PacketCache":
        capacity, content, position, wrapped = (
            payload[name] for name in ("capacity", "buffer", "current_pos", "max_reached")
        )
        if type(capacity) is not int or type(position) is not int or not isinstance(content, bytes) or type(wrapped) is not bool:
            raise StateError("ill-typed packet cache field")
        if not 0 < capacity <= MAX_CACHE_CAPACITY:
            raise StateError(f"packet cache capacity is outside 1..{MAX_CACHE_CAPACITY}")
        if not 0 <= position <= capacity or len(content) != (capacity if wrapped else position):
            raise StateError("packet cache content does not fit its geometry")
        cache = cls(capacity)  # allocated only once the payload is known to describe a possible cache
        cache._buffer[: len(content)] = content
        cache.current_pos = position
        cache.max_reached = wrapped
        return cache


@dataclass
class DecoderCacheState:
    """The decoder's shared supporting state: its packet cache."""

    cache: PacketCache = field(default_factory=PacketCache)


@dataclass
class EncoderCacheState:
    """The encoder's shared supporting state: one cache + fingerprint table per decoder."""

    caches: Dict[int, PacketCache] = field(default_factory=dict)
    fingerprints: Dict[int, Dict[str, int]] = field(default_factory=dict)


def _chunk_regions(payload: bytes) -> List[Tuple[int, bytes]]:
    """Split a payload into fixed-size regions: (start offset in payload, content)."""
    return [(start, payload[start : start + CHUNK_SIZE]) for start in range(0, len(payload), CHUNK_SIZE)]


class REEncoder(Middlebox):
    """The RE encoder middlebox."""

    MB_TYPE = "re-encoder"
    STATE = {(StateRole.SUPPORTING, StateScope.SHARED): EncoderCacheState}

    DEFAULT_COSTS = ProcessingCosts(packet_processing=180e-6)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        costs: Optional[ProcessingCosts] = None,
    ) -> None:
        super().__init__(sim, name, costs=costs or ProcessingCosts(**vars(self.DEFAULT_COSTS)))
        self.cache_capacity = cache_capacity
        state = EncoderCacheState(caches={1: PacketCache(cache_capacity)}, fingerprints={1: {}})
        self.shared_support = SharedStateSlot(state)
        self.config.set("NumCaches", [1])
        self.config.set("CacheFlows", ["0.0.0.0/0"])
        self.config.set("CacheSize", [cache_capacity])
        # When true, newly added caches start empty instead of being cloned from the
        # first cache — the behaviour of the configuration+routing baseline, which has
        # no way to clone decoder state and therefore must start afresh (section 8.1.2).
        self.config.set("NewCachesEmpty", [False])
        #: Total payload bytes seen and bytes eliminated by shims (per cache id).
        self.total_bytes = 0
        self.encoded_bytes = 0
        self.encoded_bytes_by_cache: Dict[int, int] = {1: 0}

    # -- configuration behaviour --------------------------------------------------------------

    def on_config_changed(self, key: str) -> None:
        if key in ("NumCaches", "*"):
            self._sync_cache_count()

    def _sync_cache_count(self) -> None:
        desired = int(self.config.get_scalar("NumCaches", 1))
        start_empty = bool(self.config.get_scalar("NewCachesEmpty", False))
        state: EncoderCacheState = self.shared_support.value
        while len(state.caches) < desired:
            new_id = max(state.caches) + 1
            template_id = min(state.caches)
            if start_empty:
                # Baseline behaviour: a brand-new, empty cache for the new decoder.
                state.caches[new_id] = PacketCache(state.caches[template_id].capacity)
                state.fingerprints[new_id] = {}
            else:
                # A new cache starts as a clone of the first cache (paper section 6.1,
                # step 3: "the encoder will clone its original cache to create a new
                # second cache"), so it is in sync with a decoder cloned from the
                # original decoder.
                state.caches[new_id] = state.caches[template_id].clone()
                state.fingerprints[new_id] = dict(state.fingerprints[template_id])
            self.encoded_bytes_by_cache.setdefault(new_id, 0)

    def _cache_for_packet(self, packet: Packet) -> int:
        """Choose the cache id for a packet from the CacheFlows prefix list."""
        prefixes = [str(value) for value in self.config.get_values("CacheFlows")]
        for index, prefix in enumerate(prefixes, start=1):
            try:
                if IPv4Prefix.parse(prefix).contains_ip(packet.nw_dst):
                    state: EncoderCacheState = self.shared_support.value
                    return index if index in state.caches else min(state.caches)
            except ValueError:
                continue
        state = self.shared_support.value
        return min(state.caches)

    # -- packet processing --------------------------------------------------------------------

    def process_packet(self, packet: Packet) -> ProcessResult:
        if not packet.payload:
            return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[packet.flow_key()])
        cache_id = self._cache_for_packet(packet)
        state: EncoderCacheState = self.shared_support.value
        cache = state.caches[cache_id]
        table = state.fingerprints[cache_id]
        segments: List[dict] = []
        encoded_payload_size = 0
        saved = 0
        for _, region in _chunk_regions(packet.payload):
            fp = _fingerprint(region)
            offset = table.get(fp)
            cached = cache.read(offset, len(region)) if offset is not None else None
            if cached is not None and cached == region:
                segments.append(
                    {"type": "shim", "offset": offset, "length": len(region), "checksum": _checksum(region)}
                )
                encoded_payload_size += SHIM_BYTES
                saved += len(region) - SHIM_BYTES
            else:
                new_offset = cache.insert(region)
                table[fp] = new_offset
                segments.append({"type": "raw", "data": region})
                encoded_payload_size += len(region)
        self.total_bytes += packet.payload_size
        self.encoded_bytes += max(saved, 0)
        self.encoded_bytes_by_cache[cache_id] = self.encoded_bytes_by_cache.get(cache_id, 0) + max(saved, 0)
        encoded = packet.copy()
        encoded.annotations["re_segments"] = segments
        encoded.annotations["re_cache_id"] = cache_id
        encoded.encoded_size = encoded_payload_size
        return ProcessResult(
            verdict=Verdict.FORWARD,
            packet=encoded,
            updated_flows=[packet.flow_key()],
            updated_shared=True,
        )


class REDecoder(Middlebox):
    """The RE decoder middlebox."""

    MB_TYPE = "re-decoder"
    STATE = {(StateRole.SUPPORTING, StateScope.SHARED): DecoderCacheState}

    DEFAULT_COSTS = ProcessingCosts(packet_processing=150e-6)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        costs: Optional[ProcessingCosts] = None,
    ) -> None:
        super().__init__(sim, name, costs=costs or ProcessingCosts(**vars(self.DEFAULT_COSTS)))
        self.cache_capacity = cache_capacity
        self.shared_support = SharedStateSlot(DecoderCacheState(cache=PacketCache(cache_capacity)))
        self.config.set("CacheSize", [cache_capacity])
        #: Accounting used by Table 3.
        self.decoded_packets = 0
        self.decoded_bytes = 0
        self.undecodable_packets = 0
        self.undecodable_bytes = 0
        self.passthrough_packets = 0

    @property
    def cache(self) -> PacketCache:
        return self.shared_support.value.cache

    # -- packet processing ---------------------------------------------------------------------

    def process_packet(self, packet: Packet) -> ProcessResult:
        segments = packet.annotations.get("re_segments")
        if not segments:
            self.passthrough_packets += 1
            return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[packet.flow_key()])
        cache = self.cache
        reconstructed = bytearray()
        failed_bytes = 0
        for segment in segments:
            if segment["type"] == "raw":
                data = segment["data"]
                cache.insert(data)
                reconstructed.extend(data)
            else:
                content = cache.read(int(segment["offset"]), int(segment["length"]))
                if content is None or _checksum(content) != segment["checksum"]:
                    failed_bytes += int(segment["length"])
                    reconstructed.extend(b"\x00" * int(segment["length"]))
                else:
                    reconstructed.extend(content)
        decoded = packet.copy()
        decoded.payload = bytes(reconstructed)
        decoded.encoded_size = None
        decoded.annotations.pop("re_segments", None)
        if failed_bytes:
            self.undecodable_packets += 1
            self.undecodable_bytes += failed_bytes
            decoded.annotations["re_decode_failed"] = failed_bytes
        else:
            self.decoded_packets += 1
            self.decoded_bytes += len(reconstructed)
        return ProcessResult(
            verdict=Verdict.FORWARD,
            packet=decoded,
            updated_flows=[packet.flow_key()],
            updated_shared=True,
        )
