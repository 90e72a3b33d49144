"""Unit tests for chunk sealing (crypto) and chunk serialisation."""

import hashlib
import hmac

import pytest

from repro.core import crypto
from repro.core.chunks import ChunkCodec, deserialize_payload, serialize_payload
from repro.core.errors import SealError, StateError
from repro.core.flowspace import FlowKey
from repro.core.state import StateRole


class TestSealingKey:
    def test_derive_is_deterministic(self):
        a = crypto.SealingKey.derive("monitor")
        b = crypto.SealingKey.derive("monitor")
        assert a == b

    def test_derive_differs_per_secret(self):
        assert crypto.SealingKey.derive("monitor") != crypto.SealingKey.derive("ids")


class TestSealUnseal:
    key = crypto.SealingKey.derive("test")

    def test_roundtrip(self):
        plaintext = b"the quick brown fox" * 10
        assert crypto.unseal(self.key, crypto.seal(self.key, plaintext)) == plaintext

    def test_empty_plaintext(self):
        assert crypto.unseal(self.key, crypto.seal(self.key, b"")) == b""

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"x" * 64
        sealed = crypto.seal(self.key, plaintext)
        assert plaintext not in sealed

    def test_tamper_detection(self):
        sealed = bytearray(crypto.seal(self.key, b"secret state"))
        sealed[20] ^= 0xFF
        with pytest.raises(SealError):
            crypto.unseal(self.key, bytes(sealed))

    def test_wrong_key_rejected(self):
        sealed = crypto.seal(self.key, b"secret state")
        other = crypto.SealingKey.derive("other")
        with pytest.raises(SealError):
            crypto.unseal(other, sealed)

    def test_too_short_blob_rejected(self):
        with pytest.raises(SealError):
            crypto.unseal(self.key, b"short")

    def test_nonce_must_be_correct_length(self):
        with pytest.raises(ValueError):
            crypto.seal(self.key, b"data", nonce=b"short")

    def test_deterministic_with_fixed_nonce(self):
        nonce = b"n" * 16
        assert crypto.seal(self.key, b"data", nonce=nonce) == crypto.seal(self.key, b"data", nonce=nonce)


class TestSealConstruction:
    """The blob is nonce || SHAKE-256-keystream ciphertext || keyed BLAKE2b-256 tag."""

    key = crypto.SealingKey(bytes(range(32)), bytes(range(32, 64)))
    nonce = bytes(range(16))
    plaintext = b"per-flow state"

    def test_known_answer(self):
        blob = crypto.seal(self.key, self.plaintext, nonce=self.nonce)
        assert blob.hex() == (
            "000102030405060708090a0b0c0d0e0f"
            "f5d4219bf2840ab5d00ffb2d6b3f"
            "79a5db580efa905e80fec1bf455d1ca2401aa9a65e18fd03120d066153c8465f"
        )
        ciphertext = blob[16:-32]
        keystream = hashlib.shake_256(self.key.enc_key + self.nonce).digest(len(self.plaintext))
        assert ciphertext == bytes(p ^ k for p, k in zip(self.plaintext, keystream))
        assert blob[-32:] == hashlib.blake2b(self.nonce + ciphertext, key=self.key.mac_key, digest_size=32).digest()
        assert crypto.unseal(self.key, blob) == self.plaintext

    def test_hmac_sha256_tag_refused(self):
        body = crypto.seal(self.key, self.plaintext, nonce=self.nonce)[:-32]
        blob = body + hmac.new(self.key.mac_key, body, hashlib.sha256).digest()
        with pytest.raises(SealError):
            crypto.unseal(self.key, blob)


class TestPayloadSerialisation:
    def test_scalar_roundtrip(self):
        for payload in (1, 1.5, "text", True, None):
            assert deserialize_payload(serialize_payload(payload)) == payload

    def test_nested_structure_roundtrip(self):
        payload = {"a": [1, 2, {"b": "c"}], "d": None}
        assert deserialize_payload(serialize_payload(payload)) == payload

    def test_bytes_roundtrip(self):
        payload = {"blob": b"\x00\x01\xff" * 10}
        assert deserialize_payload(serialize_payload(payload)) == payload

    def test_tuple_roundtrip(self):
        payload = {"pair": (1, "two")}
        assert deserialize_payload(serialize_payload(payload)) == payload

    def test_flowkey_roundtrip(self):
        key = FlowKey(6, "10.0.0.1", "192.0.2.1", 1, 2)
        payload = {"key": key}
        assert deserialize_payload(serialize_payload(payload))["key"] == key

    @pytest.mark.parametrize(
        "payload",
        [{"__bytes__": "\x80"}, {"__tuple__": [1]}, {"__flowkey__": {}}, {"__dict__": 5}, {"a": {"__bytes__": b"x"}}],
    )
    def test_a_dict_keyed_by_a_marker_stays_a_dict(self, payload):
        """A one-key dict spelled like the codec's bytes / tuple / key markers is not read as one."""
        assert deserialize_payload(serialize_payload(payload)) == payload

    def test_compression_reduces_size_for_repetitive_payloads(self):
        payload = {"data": "A" * 5000}
        raw = serialize_payload(payload, compress=False)
        compressed = serialize_payload(payload, compress=True)
        assert len(compressed) < len(raw)
        assert deserialize_payload(compressed) == payload

    def test_unserialisable_object_rejected(self):
        class Opaque:
            pass

        with pytest.raises(StateError):
            serialize_payload({"x": Opaque()})

    def test_unknown_marker_rejected(self):
        with pytest.raises(StateError):
            deserialize_payload(b"Xgarbage")

    def test_empty_payload_rejected(self):
        with pytest.raises(StateError):
            deserialize_payload(b"")


class TestChunkCodec:
    key = FlowKey(6, "10.0.0.1", "192.0.2.1", 1000, 80)

    def test_perflow_roundtrip(self):
        codec = ChunkCodec.for_mb_type("monitor")
        chunk = codec.seal_perflow(self.key, {"packets": 5}, StateRole.REPORTING)
        assert chunk.key == self.key
        assert chunk.role is StateRole.REPORTING
        assert codec.unseal_perflow(chunk) == {"packets": 5}

    def test_same_type_codecs_interoperate(self):
        """State sealed by one instance must be readable by a peer of the same type."""
        chunk = ChunkCodec.for_mb_type("monitor").seal_perflow(self.key, {"x": 1}, StateRole.SUPPORTING)
        assert ChunkCodec.for_mb_type("monitor").unseal_perflow(chunk) == {"x": 1}

    def test_cross_type_unsealing_fails(self):
        chunk = ChunkCodec.for_mb_type("monitor").seal_perflow(self.key, {"x": 1}, StateRole.SUPPORTING)
        with pytest.raises(SealError):
            ChunkCodec.for_mb_type("ids").unseal_perflow(chunk)

    def test_blob_is_opaque(self):
        codec = ChunkCodec.for_mb_type("monitor")
        chunk = codec.seal_perflow(self.key, {"secret": "internal-structure"}, StateRole.SUPPORTING)
        assert b"internal-structure" not in chunk.blob

    def test_shared_roundtrip(self):
        codec = ChunkCodec.for_mb_type("re-decoder")
        chunk = codec.seal_perflow(None, {"cache": b"\x01" * 100}, StateRole.SUPPORTING)
        assert chunk.key is None
        assert codec.unseal_perflow(chunk)["cache"] == b"\x01" * 100

    def test_compressed_codec_roundtrip(self):
        codec = ChunkCodec.for_mb_type("monitor", compress=True)
        chunk = codec.seal_perflow(self.key, {"data": "z" * 1000}, StateRole.REPORTING)
        assert codec.unseal_perflow(chunk)["data"] == "z" * 1000

    def test_compressed_chunks_are_smaller(self):
        payload = {"data": "z" * 2000}
        plain = ChunkCodec.for_mb_type("monitor").seal_perflow(self.key, payload, StateRole.REPORTING)
        packed = ChunkCodec.for_mb_type("monitor", compress=True).seal_perflow(self.key, payload, StateRole.REPORTING)
        assert packed.size < plain.size
