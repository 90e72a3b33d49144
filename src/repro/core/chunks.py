"""Encoding and sealing of state chunks.

Per-flow and shared state cross the southbound API as *sealed chunks*: the
middlebox serialises its native state object to bytes, encrypts it with its
type-wide sealing key, and hands the controller an opaque blob tagged only
with the flow key (for per-flow state) and the state role.  This module holds
the serialisation format (a JSON envelope with explicit support for ``bytes``,
tuples and flow keys) and the helpers that turn native objects into
:class:`~repro.core.state.StateChunk` /
:class:`~repro.core.state.SharedChunk` instances and back.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from . import crypto
from .errors import SealError, StateError
from .flowspace import FlowKey
from .state import SharedChunk, StateChunk, StateRole


def encode_value(value: Any) -> Any:
    """Recursively convert a payload value to JSON-encodable form."""
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, FlowKey):
        return {"__flowkey__": value.as_dict()}
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    if isinstance(value, (list,)):
        return [encode_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise StateError(f"cannot serialise value of type {type(value).__name__} in a state chunk")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "__bytes__" in value and len(value) == 1:
            return base64.b64decode(value["__bytes__"])
        if "__tuple__" in value and len(value) == 1:
            return tuple(decode_value(item) for item in value["__tuple__"])
        if "__flowkey__" in value and len(value) == 1:
            return FlowKey.from_dict(value["__flowkey__"])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def serialize_payload(payload: Any, *, compress: bool = False) -> bytes:
    """Serialise a native state payload to bytes (optionally zlib-compressed).

    Compression reproduces the paper's section 8.3 optimisation where state is
    compressed by roughly 38 % to reduce controller-side transfer time.
    """
    raw = json.dumps(encode_value(payload), sort_keys=True, separators=(",", ":")).encode("utf-8")
    if compress:
        return b"Z" + zlib.compress(raw, level=6)
    return b"R" + raw


def deserialize_payload(data: bytes) -> Any:
    """Reconstruct a native state payload from its serialised form."""
    if not data:
        raise StateError("empty state payload")
    marker, body = data[:1], data[1:]
    if marker == b"Z":
        body = zlib.decompress(body)
    elif marker != b"R":
        raise StateError(f"unknown payload marker {marker!r}")
    return decode_value(json.loads(body.decode("utf-8")))


@dataclass
class ChunkCodec:
    """Seals and unseals state chunks for one middlebox type.

    Instances of the same middlebox type share a sealing key (derived from the
    type name), so state exported by one instance can only be imported by a
    peer of the same type — the controller in between sees ciphertext.
    """

    key: crypto.SealingKey
    compress: bool = False

    @classmethod
    def for_mb_type(cls, mb_type: str, *, compress: bool = False) -> "ChunkCodec":
        return cls(crypto.SealingKey.derive(f"openmb-mb-type:{mb_type}"), compress=compress)

    # -- per-flow chunks -------------------------------------------------------

    def seal_perflow(
        self,
        flow_key: FlowKey,
        payload: Any,
        role: StateRole,
        metadata: Optional[dict] = None,
        *,
        compress: Optional[bool] = None,
    ) -> StateChunk:
        """Serialise and encrypt one per-flow state object.

        *compress* overrides the codec-wide default for this one chunk —
        transfers negotiate compression per :class:`TransferSpec`, so a get
        serving a compressing transfer passes ``True`` here without flipping
        the codec every other caller shares.
        """
        use_compress = self.compress if compress is None else compress
        blob = crypto.seal(self.key, serialize_payload(payload, compress=use_compress))
        return StateChunk(key=flow_key, role=role, blob=blob, metadata=dict(metadata or {}))

    def unseal_perflow(self, chunk: StateChunk) -> Any:
        """Decrypt and deserialise one per-flow chunk."""
        try:
            raw = crypto.unseal(self.key, chunk.blob)
        except crypto.SealError as exc:
            raise SealError(str(exc)) from exc
        return deserialize_payload(raw)

    # -- shared chunks ---------------------------------------------------------

    def seal_shared(
        self,
        payload: Any,
        role: StateRole,
        metadata: Optional[dict] = None,
        *,
        compress: Optional[bool] = None,
    ) -> SharedChunk:
        """Serialise and encrypt one shared state object.

        *compress* overrides the codec-wide default for this one chunk, as in
        :meth:`seal_perflow`.
        """
        use_compress = self.compress if compress is None else compress
        blob = crypto.seal(self.key, serialize_payload(payload, compress=use_compress))
        return SharedChunk(role=role, blob=blob, metadata=dict(metadata or {}))

    def unseal_shared(self, chunk: SharedChunk) -> Any:
        """Decrypt and deserialise one shared chunk."""
        try:
            raw = crypto.unseal(self.key, chunk.blob)
        except crypto.SealError as exc:
            raise SealError(str(exc)) from exc
        return deserialize_payload(raw)
