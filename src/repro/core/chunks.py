"""Encoding and sealing of state chunks.

Per-flow and shared state cross the southbound API as *sealed chunks*: the
middlebox serialises its native state object to bytes, encrypts it with its
type-wide sealing key, and hands the controller an opaque blob tagged only
with the flow key (for per-flow state) and the state role.  This module holds
the whole payload format: the one native object <-> payload codec
(:func:`payload_codec`, derived from a dataclass's fields), the serialisation
envelope (JSON with explicit support for ``bytes``, tuples and flow keys) and
the helpers that turn payloads into :class:`~repro.core.state.StateChunk`
instances and back.  It also holds the one canonical JSON codec
(:func:`canonical_json` / :func:`parse_json`) under every payload and every
southbound message.
"""

from __future__ import annotations

import base64
import dataclasses
import json.encoder
import json.scanner
import sys
import typing
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from . import crypto
from .errors import StateError
from .flowspace import FlowKey
from .state import StateChunk, StateRole

#: ``(encode, decode)``: native value -> payload value and back.
Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]


# -- the canonical JSON codec ---------------------------------------------------------
#
# One C encoder and one C scanner, built at import: ``json.dumps`` with
# non-default arguments builds a fresh encoder per call and ``json.loads`` runs
# Python wrapper frames, a fixed cost every message and payload used to pay.
# Both are stateless between calls (no cycle markers; the scanner clears its
# key memo after each call), so threads may share them.


def _unencodable(value: Any) -> Any:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


if json.encoder.c_make_encoder is None or json.scanner.c_make_scanner is None:
    raise ImportError("the canonical JSON codec needs CPython's _json accelerator")
_ENCODE = json.encoder.c_make_encoder(
    None, _unencodable, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True
)
_SCAN = json.scanner.c_make_scanner(json.JSONDecoder())


def canonical_json(value: Any) -> str:
    """What ``json.dumps`` writes for *value* with ``sort_keys=True, separators=(",", ":")``, byte for byte.

    Raises TypeError for a value JSON cannot carry and ValueError for one
    nested too deeply or containing itself.
    """
    try:
        return "".join(_ENCODE(value, 0))
    except RecursionError:
        raise ValueError("value nested too deeply (or circular) for JSON") from None


def parse_json(text: str) -> Any:
    """The one JSON document that is all of *text*; ValueError for anything else.

    Stricter than ``json.loads`` in one respect: whitespace around the
    document is refused (the encoder never writes it).
    """
    try:
        value, end = _SCAN(text, 0)
    except StopIteration:
        raise ValueError("expecting a JSON value at offset 0") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if end != len(text):
        raise ValueError(f"extra data after the JSON value at offset {end}")
    return value


def _identity(value: Any) -> Any:
    return value


def _or_none(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else convert(value)


def _checked(hint: type, accepted: Tuple[type, ...]) -> Codec:
    """A leaf codec: passes instances of *accepted* through, rejects the rest.

    ``bool`` is only ever accepted as ``bool`` (it is an ``int`` to Python, not to a
    counter); the one coercion is a JSON integer read into the ``float`` that equals it.
    """

    def decode(raw: Any) -> Any:
        if not isinstance(raw, accepted) or (isinstance(raw, bool) and hint is not bool):
            raise StateError(f"expected {hint.__name__}, got {raw!r:.40}")
        if hint is float and type(raw) is not float and (abs(raw) > sys.float_info.max or float(raw) != raw):
            raise StateError(f"expected float, got an integer no float equals: {raw!r:.40}")
        return float(raw) if hint is float else raw

    return _identity, decode


_LEAVES = {
    hint: _checked(hint, accepted)
    for hint, accepted in (
        (int, (int,)),
        (float, (int, float)),
        (bool, (bool,)),
        (str, (str,)),
        (bytes, (bytes,)),
        (FlowKey, (FlowKey,)),
    )
}


def _hint_codec(hint: Any) -> Codec:
    """The codec of one field, read from its type hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _LEAVES:
        return _LEAVES[hint]
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        encode, decode = _hint_codec(args[0] if args[1] is type(None) else args[1])
        return _or_none(encode), _or_none(decode)
    if origin is list and len(args) == 1:
        encode, decode = _hint_codec(args[0])

        def decode_list(raw: Any) -> list:
            if not isinstance(raw, list):
                raise StateError(f"expected a list, got {type(raw).__name__}")
            return [decode(item) for item in raw]

        return (lambda value: [encode(item) for item in value]), decode_list
    if origin is dict and len(args) == 2 and args[0] in (str, int):
        restore_key, (encode, decode) = args[0], _hint_codec(args[1])

        def decode_dict(raw: Any) -> dict:
            if not isinstance(raw, dict):
                raise StateError(f"expected a dict, got {type(raw).__name__}")
            try:  # JSON object keys are strings; ``Dict[int, V]`` gets its ints back
                return {restore_key(key): decode(item) for key, item in raw.items()}
            except ValueError as exc:
                raise StateError(f"bad {restore_key.__name__} key: {exc}") from None

        return (lambda value: {str(key): encode(item) for key, item in value.items()}), decode_dict
    if isinstance(hint, type):
        return payload_codec(hint)
    raise StateError(f"no state payload codec for a field of type {hint!r}")


def payload_codec(native: Optional[type]) -> Codec:
    """``(encode, decode)`` between instances of *native* and chunk payloads.

    The one place the payload format of typed middlebox state is decided.  A
    dataclass is encoded field by field from its type hints (resolved here,
    once): ``int`` / ``float`` / ``bool`` / ``str`` / ``bytes`` /
    :class:`FlowKey` leaves, ``Optional[X]``, ``List[X]``, ``Dict[str | int,
    V]`` and nested types.  Decoding is strict: the payload must be a dict with
    exactly the encoder's fields — an absent, unknown or ill-typed one raises
    :class:`StateError`, which the southbound agent answers with ``ERROR``.  A
    class whose wire form is not its fields defines ``to_payload()`` /
    ``from_payload(payload)`` instead; whatever its ``from_payload`` trips over
    is reported the same way.  ``None`` (an undeclared cell) is the identity
    pair: the payload *is* the stored object.
    """
    if native is None:
        return _identity, _identity
    if hasattr(native, "to_payload") and hasattr(native, "from_payload"):

        def decode_explicit(payload: Any) -> Any:
            try:
                return native.from_payload(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise StateError(f"malformed {native.__name__} payload: {exc!r}") from None

        return native.to_payload, decode_explicit
    if not dataclasses.is_dataclass(native):
        raise StateError(f"no state payload codec for {native.__name__}: not a dataclass, no to_payload/from_payload")
    try:
        hints = typing.get_type_hints(native)
    except NameError as exc:
        raise StateError(f"cannot resolve the type hints of {native.__name__}: {exc}") from None
    plan = [(field.name, *_hint_codec(hints[field.name])) for field in dataclasses.fields(native)]
    names = {name for name, _, _ in plan}

    def encode(value: Any) -> dict:
        if not isinstance(value, native):
            raise StateError(f"expected a {native.__name__}, got {type(value).__name__}")
        return {name: encode_field(getattr(value, name)) for name, encode_field, _ in plan}

    def decode(payload: Any) -> Any:
        if not isinstance(payload, dict) or payload.keys() != names:
            got = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
            raise StateError(f"a {native.__name__} payload has exactly the fields {sorted(names)}, got {got}")
        fields = {}
        for name, _, decode_field in plan:
            try:
                fields[name] = decode_field(payload[name])
            except StateError as exc:
                raise StateError(f"{native.__name__}.{name}: {exc}") from None
        return native(**fields)

    return encode, decode


#: Exactly these types are JSON scalars as they stand; most payload leaves are.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def encode_value(value: Any) -> Any:
    """Recursively convert a payload value to JSON-encodable form."""
    if type(value) in _SCALARS:
        return value
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
    if type(value) in _SCALARS:
        return value
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
    raw = canonical_json(encode_value(payload)).encode("utf-8")
    if compress:
        return b"Z" + zlib.compress(raw, level=6)
    return b"R" + raw


def deserialize_payload(data: bytes) -> Any:
    """Reconstruct a native state payload from its serialised form.

    Raises :class:`StateError` — and nothing else — for bytes that are not a
    serialised payload (a peer of the right type can seal anything).
    """
    if not data:
        raise StateError("empty state payload")
    marker, body = data[:1], data[1:]
    if marker not in (b"Z", b"R"):
        raise StateError(f"unknown payload marker {marker!r}")
    try:
        if marker == b"Z":
            body = zlib.decompress(body)
        return decode_value(parse_json(body.decode("utf-8")))
    except (ValueError, KeyError, TypeError, RecursionError, zlib.error) as exc:
        raise StateError(f"malformed state payload: {exc!r}") from None


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

    def seal_perflow(
        self,
        flow_key: Optional[FlowKey],
        payload: Any,
        role: StateRole,
        *,
        compress: Optional[bool] = None,
    ) -> StateChunk:
        """Serialise and encrypt one state object; ``flow_key=None`` seals shared state.

        *compress* overrides the codec-wide default for this one chunk —
        transfers negotiate compression per :class:`TransferSpec`, so a get
        serving a compressing transfer passes ``True`` here without flipping
        the codec every other caller shares.
        """
        use_compress = self.compress if compress is None else compress
        blob = crypto.seal(self.key, serialize_payload(payload, compress=use_compress))
        return StateChunk(key=flow_key, role=role, blob=blob)

    def unseal_perflow(self, chunk: StateChunk) -> Any:
        """Decrypt and deserialise one chunk (per-flow or shared)."""
        return deserialize_payload(crypto.unseal(self.key, chunk.blob))
