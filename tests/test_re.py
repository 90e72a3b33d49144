"""Unit tests for the redundancy-elimination encoder and decoder."""

import pytest

from repro.core.state import StateRole
from repro.middleboxes.re import (
    CHUNK_SIZE,
    SHIM_BYTES,
    EncoderCacheState,
    PacketCache,
    REDecoder,
    REEncoder,
)
from repro.net import Simulator, tcp_packet


def packet_to(dst, payload, src="10.3.1.1", sport=50000):
    return tcp_packet(src, dst, sport, 80, payload)


class TestPacketCache:
    def test_insert_and_read(self):
        cache = PacketCache(1024)
        offset = cache.insert(b"hello world")
        assert cache.read(offset, 11) == b"hello world"

    def test_sequential_inserts_advance_position(self):
        cache = PacketCache(1024)
        first = cache.insert(b"a" * 10)
        second = cache.insert(b"b" * 10)
        assert second == first + 10
        assert cache.current_pos == 20

    def test_read_unwritten_region_returns_none(self):
        cache = PacketCache(1024)
        cache.insert(b"abc")
        assert cache.read(100, 10) is None
        assert cache.read(-1, 4) is None
        assert cache.read(1020, 10) is None

    def test_wraparound(self):
        cache = PacketCache(100)
        cache.insert(b"x" * 60)
        offset = cache.insert(b"y" * 60)  # does not fit -> wraps to 0
        assert offset == 0
        assert cache.max_reached
        assert cache.read(0, 60) == b"y" * 60

    def test_content_larger_than_cache_rejected(self):
        from repro.core.errors import MiddleboxError

        with pytest.raises(MiddleboxError):
            PacketCache(10).insert(b"z" * 20)

    def test_clone_is_independent(self):
        cache = PacketCache(256)
        cache.insert(b"original")
        clone = cache.clone()
        clone.insert(b"extra")
        assert cache.current_pos != clone.current_pos

    def test_payload_roundtrip(self):
        cache = PacketCache(256)
        cache.insert(b"some content here")
        restored = PacketCache.from_payload(cache.to_payload())
        assert restored.read(0, 17) == b"some content here"
        assert restored.current_pos == cache.current_pos

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PacketCache(0)


class TestEncoder:
    def test_first_occurrence_is_raw_second_is_shim(self):
        encoder = REEncoder(Simulator(), "enc", cache_capacity=64 * 1024)
        payload = b"A" * CHUNK_SIZE
        first = encoder.process_packet(packet_to("1.1.1.1", payload))
        second = encoder.process_packet(packet_to("1.1.1.1", payload))
        assert first.packet.annotations["re_segments"][0]["type"] == "raw"
        assert second.packet.annotations["re_segments"][0]["type"] == "shim"
        assert second.packet.wire_size < first.packet.wire_size

    def test_encoded_bytes_accounting(self):
        encoder = REEncoder(Simulator(), "enc")
        payload = b"B" * CHUNK_SIZE
        encoder.process_packet(packet_to("1.1.1.1", payload))
        encoder.process_packet(packet_to("1.1.1.1", payload))
        assert encoder.encoded_bytes == CHUNK_SIZE - SHIM_BYTES
        assert encoder.total_bytes == 2 * CHUNK_SIZE

    def test_empty_payload_passthrough(self):
        encoder = REEncoder(Simulator(), "enc")
        result = encoder.process_packet(packet_to("1.1.1.1", b""))
        assert result.packet is None

    def test_cache_selection_by_prefix(self):
        encoder = REEncoder(Simulator(), "enc")
        encoder.set_config("NumCaches", [2])
        encoder.set_config("CacheFlows", ["1.1.1.0/24", "1.1.2.0/24"])
        payload = b"C" * CHUNK_SIZE
        a = encoder.process_packet(packet_to("1.1.1.5", payload))
        b = encoder.process_packet(packet_to("1.1.2.5", payload))
        assert a.packet.annotations["re_cache_id"] == 1
        assert b.packet.annotations["re_cache_id"] == 2

    def test_num_caches_clones_existing_cache(self):
        encoder = REEncoder(Simulator(), "enc")
        encoder.process_packet(packet_to("1.1.1.1", b"D" * CHUNK_SIZE))
        encoder.set_config("NumCaches", [2])
        state: EncoderCacheState = encoder.shared_support.value
        assert state.caches[2].to_payload() == state.caches[1].to_payload()
        assert state.fingerprints[2] == state.fingerprints[1]

    def test_num_caches_empty_mode(self):
        encoder = REEncoder(Simulator(), "enc")
        encoder.process_packet(packet_to("1.1.1.1", b"E" * CHUNK_SIZE))
        encoder.set_config("NewCachesEmpty", [True])
        encoder.set_config("NumCaches", [2])
        state: EncoderCacheState = encoder.shared_support.value
        assert state.caches[2].current_pos == 0
        assert state.fingerprints[2] == {}

    def test_encoder_shared_state_roundtrip(self):
        encoder = REEncoder(Simulator(), "enc")
        encoder.process_packet(packet_to("1.1.1.1", b"F" * CHUNK_SIZE * 2))
        chunk = encoder.get_shared(StateRole.SUPPORTING)
        peer = REEncoder(Simulator(), "peer")
        peer.put_shared(chunk)
        restored = peer.shared_support.value
        assert isinstance(restored, EncoderCacheState) and restored is not encoder.shared_support.value
        assert restored.caches[1].current_pos == encoder.shared_support.value.caches[1].current_pos
        assert restored.fingerprints == encoder.shared_support.value.fingerprints


class TestDecoder:
    def _pair(self, capacity=64 * 1024):
        sim = Simulator()
        return REEncoder(sim, "enc", cache_capacity=capacity), REDecoder(sim, "dec", cache_capacity=capacity)

    def test_decodes_encoded_packet(self):
        encoder, decoder = self._pair()
        payload = b"payload-" * 32
        for _ in range(3):
            encoded = encoder.process_packet(packet_to("1.1.1.1", payload)).packet
            decoded = decoder.process_packet(encoded).packet
            assert decoded.payload == payload
        assert decoder.undecodable_bytes == 0
        assert decoder.decoded_packets == 3

    def test_caches_stay_synchronised(self):
        encoder, decoder = self._pair()
        import numpy as np

        rng = np.random.default_rng(1)
        for index in range(50):
            if index % 3 == 0:
                payload = b"R" * 256
            else:
                payload = rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()
            encoded = encoder.process_packet(packet_to("1.1.1.1", payload)).packet
            decoder.process_packet(encoded)
        enc_cache = encoder.shared_support.value.caches[1]
        assert decoder.cache.to_payload() == enc_cache.to_payload()
        assert decoder.undecodable_bytes == 0

    def test_empty_cache_cannot_decode_shims(self):
        encoder, decoder = self._pair()
        payload = b"G" * CHUNK_SIZE
        encoder.process_packet(packet_to("1.1.1.1", payload))
        encoded = encoder.process_packet(packet_to("1.1.1.1", payload)).packet
        fresh = REDecoder(Simulator(), "fresh", cache_capacity=64 * 1024)
        result = fresh.process_packet(encoded)
        assert fresh.undecodable_bytes == CHUNK_SIZE
        assert result.packet.annotations.get("re_decode_failed") == CHUNK_SIZE

    def test_desynchronised_cache_detected_by_checksum(self):
        encoder, decoder = self._pair()
        payload = b"H" * CHUNK_SIZE
        encoder.process_packet(packet_to("1.1.1.1", payload))
        # Corrupt the decoder's view by inserting different content at offset 0.
        decoder.cache.insert(b"Z" * CHUNK_SIZE)
        encoded = encoder.process_packet(packet_to("1.1.1.1", payload)).packet
        decoder.process_packet(encoded)
        assert decoder.undecodable_bytes == CHUNK_SIZE

    def test_unencoded_packets_pass_through(self):
        _, decoder = self._pair()
        result = decoder.process_packet(packet_to("1.1.1.1", b"plain"))
        assert decoder.passthrough_packets == 1
        assert result.packet is None

    def test_decoder_cache_clone_to_new_instance(self):
        encoder, decoder = self._pair()
        payload = b"I" * CHUNK_SIZE
        encoded = encoder.process_packet(packet_to("1.1.1.1", payload)).packet
        decoder.process_packet(encoded)
        new_decoder = REDecoder(Simulator(), "dec-b", cache_capacity=64 * 1024)
        new_decoder.put_shared(decoder.get_shared(StateRole.SUPPORTING))
        # The cloned decoder can now decode shims referencing the original cache.
        encoded2 = encoder.process_packet(packet_to("1.1.1.1", payload)).packet
        decoded = new_decoder.process_packet(encoded2).packet
        assert decoded.payload == payload
        assert new_decoder.undecodable_bytes == 0

