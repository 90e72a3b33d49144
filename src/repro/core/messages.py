"""Southbound wire protocol.

The paper's prototype exchanges JSON messages between the MB controller and
middleboxes over UNIX sockets to invoke operations, carry state, raise events,
and acknowledge puts.  This module defines that message schema and its JSON
encoding.  The controller/MB channel (:mod:`repro.core.channel`) models the
transfer time of each encoded message, so message sizes directly influence the
controller-performance results (Figures 10a/10b).
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from .chunks import canonical_json, decode_value, encode_value, parse_json
from .errors import ProtocolError
from .flowspace import FlowKey, FlowPattern
from .state import StateChunk, StateRole


# -- the wire encoder ---------------------------------------------------------------
#
# A message's wire form is canonical JSON: keys sorted, no whitespace, ASCII
# only.  It is assembled by splicing.  Text this module has already built (a
# chunk, an array of chunks, a BATCH's inner frames) is a :class:`_Json`
# fragment and is concatenated as is; everything else goes through
# :func:`_json`, whose fallback is the one canonical encoder
# (:func:`~repro.core.chunks.canonical_json`).  ``tests/test_messages_channel.py``
# holds the oracle: for every constructor the bytes equal one ``json.dumps`` of
# the plain nested dict.


class _Json(str):
    """Canonical JSON text of one value, built here; :func:`_json` passes it through unparsed."""

    __slots__ = ()


def _json(value: Any) -> str:
    """Canonical JSON text of *value* (what ``json.dumps`` gives, by construction)."""
    kind = type(value)
    if kind is _Json:
        return value
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is dict and not value:
        return "{}"
    return canonical_json(value)


def _array(items: Iterable[str]) -> _Json:
    """The JSON array of already-encoded *items*."""
    return _Json("[" + ",".join(items) + "]")


def _body_json(body: Any) -> str:
    """A body that holds a fragment is joined member by member, in key order; any other is one :func:`_json`.

    Fragments are spliced at the top level of a body only: nested inside a
    generic value one would be encoded as the string it subclasses.
    """
    if type(body) is dict:
        for value in body.values():
            if type(value) is _Json:
                parts: list = []
                for name in sorted(body):
                    parts += (",", _quote(name), ":", _json(body[name]))
                parts[0] = "{"
                parts.append("}")
                return "".join(parts)
    return _json(body)


class MessageType:
    """Message type tags used on the wire."""

    # controller -> middlebox requests
    #: Framed batch of several southbound requests delivered as one channel
    #: message (the batched-dispatch optimization); each inner message keeps
    #: its own xid and is ACKed/answered individually.
    BATCH = "batch"
    GET_CONFIG = "get_config"
    SET_CONFIG = "set_config"
    DEL_CONFIG = "del_config"
    GET_PERFLOW = "get_perflow"
    #: Pre-copy delta round: export only the flows dirtied since the last
    #: drain; with ``final`` set, additionally freeze (mark-transfer) the
    #: pattern and stop dirty tracking (the stop-and-copy round).
    GET_PERFLOW_DELTA = "get_perflow_delta"
    PUT_PERFLOW = "put_perflow"
    PUT_PERFLOW_BATCH = "put_perflow_batch"
    DEL_PERFLOW = "del_perflow"
    #: Install order-preserving packet holds for a list of flows without
    #: resending their chunks (the pre-copy stop-and-copy covers flows whose
    #: state is already current at the destination).
    TRANSFER_HOLD = "transfer_hold"
    TRANSFER_RELEASE = "transfer_release"
    GET_SHARED = "get_shared"
    PUT_SHARED = "put_shared"
    GET_STATS = "get_stats"
    ENABLE_EVENTS = "enable_events"
    DISABLE_EVENTS = "disable_events"
    TRANSFER_END = "transfer_end"
    REPROCESS_PACKET = "reprocess_packet"

    # middlebox -> controller responses
    CONFIG_VALUE = "config_value"
    STATE_CHUNK = "state_chunk"
    SHARED_STATE = "shared_state"
    GET_COMPLETE = "get_complete"
    STATS_REPLY = "stats_reply"
    ACK = "ack"
    ERROR = "error"

    # middlebox -> controller notifications
    EVENT = "event"
    #: Periodic liveness beacon (middlebox -> controller); carries no body.
    #: The controller refreshes the sender's last-seen clock and drops it.
    HEARTBEAT = "heartbeat"

    # channel-level control (never dispatched to the controller or agent)
    #: Cumulative acknowledgement of the reliable channel layer: ``body.cum``
    #: is the highest channel sequence number (``cseq``) delivered in order.
    CHAN_ACK = "chan_ack"

    # controller <-> controller federation (inter-domain channels only; these
    # never appear on a middlebox control channel, so the single-domain wire
    # stays byte-identical to the seed protocol)
    #: Anti-entropy gossip digest: membership, instance liveness, and the
    #: versioned flow-ownership directory of the sending domain.
    FED_GOSSIP = "fed_gossip"
    #: Ask a peer domain to lend an instance as a cross-domain move destination.
    FED_MOVE_REQUEST = "fed_move_request"
    #: Grant (or refuse) a pending FED_MOVE_REQUEST.
    FED_MOVE_GRANT = "fed_move_grant"
    #: The borrowing domain finished (or aborted) the move; the instance
    #: returns to its home domain.
    FED_MOVE_DONE = "fed_move_done"


def _ill_typed(name: str, want: str, value: Any) -> ProtocolError:
    return ProtocolError(f"message field {name!r} must be {want}, got {value!r:.40}")


@dataclass(slots=True)
class Message:
    """One southbound protocol message."""

    type: str
    xid: int = 0  # numbered by the endpoint that sends it: unique per sender
    #: xid of the request this message responds to (for responses/acks).
    reply_to: Optional[int] = None
    mb: str = ""
    body: Dict[str, Any] = field(default_factory=dict)
    #: Channel sequence number stamped by the reliable delivery layer
    #: (:class:`~repro.core.channel.ControlChannel` with ``reliable=True``).
    #: Omitted from the wire when None, so the seed protocol is byte-identical
    #: whenever reliability is off.
    cseq: Optional[int] = None

    def stamped(self, cseq: int) -> "Message":
        """A shallow copy numbered *cseq*; this message stays as it is."""
        return Message(self.type, self.xid, self.reply_to, self.mb, self.body, cseq)

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "Message":
        """Rebuild a message from its wire dict; raises ProtocolError when malformed.

        The envelope is exactly typed (a bool is not an int here): ``type``
        and ``xid`` are required, ``mb`` and ``body`` default to ``""`` and
        ``{}``, ``reply_to`` and ``cseq`` are an int or absent.
        """
        if type(wire) is not dict:
            raise ProtocolError(f"a message is a JSON object, got {type(wire).__name__}")
        try:
            kind, xid = wire["type"], wire["xid"]
        except KeyError as exc:
            raise ProtocolError(f"message missing field {exc}") from None
        mb, body, reply_to, cseq = wire.get("mb", ""), wire.get("body", {}), wire.get("reply_to"), wire.get("cseq")
        if type(kind) is not str:
            raise _ill_typed("type", "str", kind)
        if type(xid) is not int:
            raise _ill_typed("xid", "int", xid)
        if type(mb) is not str:
            raise _ill_typed("mb", "str", mb)
        if type(body) is not dict:
            raise _ill_typed("body", "dict", body)
        if type(reply_to) is not int and "reply_to" in wire:
            raise _ill_typed("reply_to", "int", reply_to)
        if type(cseq) is not int and "cseq" in wire:
            raise _ill_typed("cseq", "int", cseq)
        return cls(kind, xid, reply_to, mb, body, cseq)  # positionally: the field order, half the cost of keywords

    def wire_text(self) -> str:
        """The wire form as text: the fixed envelope, in key order, around the body.

        ``reply_to`` and ``cseq`` are omitted when None.  Raises ProtocolError
        — and nothing else — for a value JSON cannot carry.
        """
        try:
            cseq = "" if self.cseq is None else f'"cseq":{_json(self.cseq)},'
            reply_to = "" if self.reply_to is None else f'"reply_to":{_json(self.reply_to)},'
            return (
                f'{{"body":{_body_json(self.body)},{cseq}"mb":{_json(self.mb)},{reply_to}'
                f'"type":{_json(self.type)},"xid":{_json(self.xid)}}}'
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"cannot encode message {self.type}: {exc}") from exc

    def encode(self) -> bytes:
        """Encode to the JSON wire form."""
        return self.wire_text().encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Decode a message from its JSON wire form."""
        try:
            wire = parse_json(data.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError included
            raise ProtocolError(f"malformed message: {exc}") from exc
        return cls.from_wire(wire)


# -- body encoding helpers -------------------------------------------------------


def _key_json(key: FlowKey) -> str:
    """``key.as_dict()`` as wire text; the scalars of a well-typed key are placed directly."""
    proto, src, dst, sport, dport = key.nw_proto, key.nw_src, key.nw_dst, key.tp_src, key.tp_dst
    if type(proto) is type(sport) is type(dport) is int and type(src) is type(dst) is str:
        return f'{{"nw_dst":{_quote(dst)},"nw_proto":{proto},"nw_src":{_quote(src)},"tp_dst":{dport},"tp_src":{sport}}}'
    return _json(key.as_dict())


def encode_chunk(chunk: StateChunk) -> _Json:
    """The wire text of a chunk, built once per hop and spliced into whichever message carries it.

    ``{"blob":…,"key":…,"role":…}``; a shared chunk (``key is None``) carries
    no ``key``.  Base64 text needs no escaping, so no member costs a generic
    encode.
    """
    try:
        blob = base64.b64encode(chunk.blob).decode("ascii")
        key = "" if chunk.key is None else f'"key":{_key_json(chunk.key)},'
        return _Json(f'{{"blob":"{blob}",{key}"role":{_json(chunk.role.value)}}}')
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"cannot encode state chunk: {exc}") from exc


_ROLES = {role.value: role for role in StateRole}


def _role(raw: Any) -> StateRole:
    try:
        return _ROLES[raw]
    except (KeyError, TypeError):
        raise ValueError(f"{raw!r} is not a valid StateRole") from None


def decode_chunk(body: dict, *, shared: bool = False) -> StateChunk:
    """Inverse of :func:`encode_chunk` (parsed): per-flow messages require the ``key``, *shared* ones carry none."""
    try:
        return StateChunk(
            key=None if shared else FlowKey.from_dict(body["key"]),
            role=_role(body["role"]),
            blob=base64.b64decode(body["blob"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed state chunk: {exc}") from exc


# -- request constructors -----------------------------------------------------------


def get_config(mb: str, key: str) -> Message:
    return Message(MessageType.GET_CONFIG, mb=mb, body={"key": key})


def set_config(mb: str, key: str, values: list) -> Message:
    return Message(MessageType.SET_CONFIG, mb=mb, body={"key": key, "values": values})


def del_config(mb: str, key: str) -> Message:
    return Message(MessageType.DEL_CONFIG, mb=mb, body={"key": key})


def get_perflow(
    mb: str,
    role: StateRole,
    pattern: FlowPattern,
    *,
    transfer: bool = False,
    track_dirty: bool = False,
    compress: bool = False,
) -> Message:
    """Request per-flow state; ``transfer=True`` marks exported chunks for re-process events.

    ``track_dirty=True`` is the pre-copy bulk round: instead of marking the
    flows (freezing them behind event buffering), the source arms dirty-key
    tracking at the snapshot instant and keeps processing packets normally.
    ``compress=True`` asks the source to seal each exported chunk with its
    payload zlib-compressed (the :class:`~repro.core.transfer.TransferSpec`
    negotiation).  Both fields are omitted from the wire when False so
    plain snapshot transfers stay byte-identical to the seed protocol.
    """
    body: Dict[str, Any] = {"role": role.value, "pattern": pattern.as_dict(), "transfer": transfer}
    if track_dirty:
        body["track_dirty"] = True
    if compress:
        body["compress"] = True
    return Message(MessageType.GET_PERFLOW, mb=mb, body=body)


def get_perflow_delta(
    mb: str,
    role: StateRole,
    pattern: FlowPattern,
    *,
    final: bool = False,
    compress: bool = False,
) -> Message:
    """Request the chunks dirtied since the last drain (one pre-copy round).

    The source is not told which round this is: the *controller* stamps the
    round tags onto the round's put messages, where the destination uses them
    to discard installs a newer round superseded.  With ``final=True`` this
    is the stop-and-copy round: the source additionally marks every
    pattern-matching flow for re-process events and stops dirty tracking, so
    updates from that instant on surface as events.  The reply is a chunk
    stream followed by GET_COMPLETE carrying the number of pattern-matching
    flows re-dirtied while the round was being exported (the controller's
    signal for whether another round is worthwhile).  ``compress=True`` asks
    the source to seal the round's chunks zlib-compressed, as in
    :func:`get_perflow`.
    """
    body: Dict[str, Any] = {"role": role.value, "pattern": pattern.as_dict()}
    if final:
        body["final"] = True
    if compress:
        body["compress"] = True
    return Message(MessageType.GET_PERFLOW_DELTA, mb=mb, body=body)


def put_perflow(
    mb: str,
    chunk: StateChunk,
    *,
    hold: bool = False,
    seq: Optional[int] = None,
    round: Optional[Sequence[int]] = None,
) -> Message:
    """Install one per-flow chunk; ``hold=True`` (order-preserving transfers)
    makes the destination queue fresh packets for the flow until its
    TRANSFER_RELEASE arrives.  ``round`` is the pre-copy round tag —
    (operation id, round index) — the destination uses to discard puts
    superseded by a newer round; omitted for snapshot transfers."""
    body: Dict[str, Any] = {"chunk": encode_chunk(chunk)}
    if hold:
        body["hold"] = True
    if seq is not None:  # written for the codec probes in benchmarks/perf/probes.py only; no receiver reads it
        body["seq"] = seq
    if round is not None:
        body["round"] = list(round)
    return Message(MessageType.PUT_PERFLOW, mb=mb, body=body)


def put_perflow_batch(
    mb: str,
    chunks: list,
    *,
    hold: bool = False,
    seq: Optional[int] = None,
    round: Optional[Sequence[int]] = None,
) -> Message:
    """Install several per-flow chunks with a single message and a single ACK.

    Batching amortises the controller's per-message handling cost across
    ``len(chunks)`` chunks — the bulk-transfer optimization of the
    :class:`~repro.core.transfer.TransferSpec` pipeline.  ``round`` is the
    pre-copy round tag applied to every chunk in the batch.  Whether a chunk's
    payload is compressed is its own marker byte's business, not the batch's.
    """
    body: Dict[str, Any] = {"chunks": _array([encode_chunk(chunk) for chunk in chunks])}
    if hold:
        body["hold"] = True
    if seq is not None:  # written for the codec probes in benchmarks/perf/probes.py only; no receiver reads it
        body["seq"] = seq
    if round is not None:
        body["round"] = list(round)
    return Message(MessageType.PUT_PERFLOW_BATCH, mb=mb, body=body)


def transfer_hold(mb: str, keys: list) -> Message:
    """Install per-flow packet holds for *keys* at a destination middlebox.

    Used by order-preserving pre-copy transfers at the stop-and-copy freeze:
    flows that are clean at the freeze get no final-round put (which is how
    snapshot transfers install holds), yet their fresh packets must still
    queue behind the ordered replay of post-freeze events.  Every held flow
    is later lifted by its ``TRANSFER_RELEASE``.
    """
    return Message(
        MessageType.TRANSFER_HOLD,
        mb=mb,
        body={"keys": [key.as_dict() for key in keys]},
    )


def transfer_release(mb: str, keys: list) -> Message:
    """Release per-flow transfer involvement for *keys* at a middlebox.

    At a move destination this lifts the order-preserving hold (queued packets
    are processed in arrival order); at a source it clears the per-flow
    transfer marker so the flow stops raising re-process events
    (the early-release optimization).  Unlike TRANSFER_END this is per-flow,
    not whole-middlebox.
    """
    return Message(
        MessageType.TRANSFER_RELEASE,
        mb=mb,
        body={"keys": [key.as_dict() for key in keys]},
    )


def del_perflow(mb: str, role: StateRole, pattern: FlowPattern) -> Message:
    return Message(
        MessageType.DEL_PERFLOW,
        mb=mb,
        body={"role": role.value, "pattern": pattern.as_dict()},
    )


def get_shared(mb: str, role: StateRole, *, transfer: bool = False) -> Message:
    return Message(MessageType.GET_SHARED, mb=mb, body={"role": role.value, "transfer": transfer})


def put_shared(mb: str, chunk: StateChunk) -> Message:
    return Message(MessageType.PUT_SHARED, mb=mb, body={"chunk": encode_chunk(chunk)})


def get_stats(mb: str, pattern: FlowPattern) -> Message:
    return Message(MessageType.GET_STATS, mb=mb, body={"pattern": pattern.as_dict()})


def enable_events(mb: str, code: str, pattern: Optional[FlowPattern] = None, until: Optional[float] = None) -> Message:
    body: Dict[str, Any] = {"code": code}
    if pattern is not None:
        body["pattern"] = pattern.as_dict()
    if until is not None:
        body["until"] = until
    return Message(MessageType.ENABLE_EVENTS, mb=mb, body=body)


def disable_events(mb: str, code: str, pattern: Optional[FlowPattern] = None) -> Message:
    body: Dict[str, Any] = {"code": code}
    if pattern is not None:
        body["pattern"] = pattern.as_dict()
    return Message(MessageType.DISABLE_EVENTS, mb=mb, body=body)


def transfer_end(mb: str, *, dirty_only: bool = False, shared_only: bool = False) -> Message:
    """Tell a middlebox an in-progress transfer has ended (scoped resets).

    The unscoped form is the app-facing whole-middlebox reset (clear every
    per-flow transfer marker and the shared-transfer flag).  Two scoped
    variants keep concurrent operations' state intact: ``shared_only=True``
    is what a finalizing clone/merge sends — those operations only ever arm
    the shared-transfer flag, so they must not clear per-flow markers owned
    by a concurrent move; ``dirty_only=True`` is the cleanup a failed
    pre-copy move owes its source — stop dirty tracking, touch nothing else.
    The flags are omitted from the wire when False.
    """
    body: Dict[str, Any] = {}
    if dirty_only:
        body["dirty_only"] = True
    if shared_only:
        body["shared_only"] = True
    return Message(MessageType.TRANSFER_END, mb=mb, body=body)


def chan_ack(channel_name: str, cumulative: int) -> Message:
    """Channel-layer cumulative ack: every cseq up to *cumulative* was delivered.

    Consumed by the :class:`~repro.core.channel.ControlChannel` itself — the
    controller and southbound agent never see these frames.
    """
    return Message(MessageType.CHAN_ACK, mb=channel_name, body={"cum": cumulative})


def heartbeat(mb: str) -> Message:
    """Liveness beacon a middlebox agent sends on its heartbeat interval."""
    return Message(MessageType.HEARTBEAT, mb=mb)


# -- reply constructors: each carries ``reply_to``, the xid of the request it answers ---------


def ack(mb: str, reply_to: int, removed: Optional[int] = None) -> Message:
    """Acknowledge a request; a DEL_PERFLOW's carries the number of entries it ``removed``."""
    return Message(MessageType.ACK, reply_to=reply_to, mb=mb, body={} if removed is None else {"removed": removed})


def error(mb: str, reply_to: int, reason: str) -> Message:
    """Refuse a request: it was malformed, unsupported, or the middlebox call failed."""
    return Message(MessageType.ERROR, reply_to=reply_to, mb=mb, body={"reason": reason})


def config_value(mb: str, reply_to: int, values: dict) -> Message:
    return Message(MessageType.CONFIG_VALUE, reply_to=reply_to, mb=mb, body={"values": values})


def stats_reply(mb: str, reply_to: int, stats: dict) -> Message:
    return Message(MessageType.STATS_REPLY, reply_to=reply_to, mb=mb, body={"stats": stats})


def state_chunk(mb: str, reply_to: int, chunk: StateChunk) -> Message:
    return Message(MessageType.STATE_CHUNK, reply_to=reply_to, mb=mb, body={"chunk": encode_chunk(chunk)})


def shared_state(mb: str, reply_to: int, chunk: StateChunk) -> Message:
    return Message(MessageType.SHARED_STATE, reply_to=reply_to, mb=mb, body={"chunk": encode_chunk(chunk)})


def get_complete(mb: str, reply_to: int, role: StateRole, dirty: Optional[int] = None) -> Message:
    """End of a chunk stream; ``dirty`` (pre-copy rounds only) is omitted when None."""
    body: Dict[str, Any] = {"role": role.value}
    if dirty is not None:
        body["dirty"] = dirty
    return Message(MessageType.GET_COMPLETE, reply_to=reply_to, mb=mb, body=body)


# -- batched southbound dispatch ------------------------------------------------------

#: Request types the controller's batched dispatcher may coalesce into one
#: BATCH frame per destination channel per tick.  These are the hot-path
#: messages of a state transfer (state installs, replays, releases, deletes);
#: control-plane requests with streamed replies (gets, stats) stay unframed.
BATCHABLE_REQUESTS = frozenset(
    {
        MessageType.PUT_PERFLOW,
        MessageType.PUT_PERFLOW_BATCH,
        MessageType.REPROCESS_PACKET,
        MessageType.TRANSFER_RELEASE,
        MessageType.DEL_PERFLOW,
    }
)


def batch_message(mb: str, frames: list) -> Message:
    """Frame several southbound requests as one BATCH channel message.

    The frame pays the channel's per-message latency once for ``len(frames)``
    requests; each inner message keeps its own xid, so replies and ACKs route
    exactly as they would have unbatched.
    """
    return Message(MessageType.BATCH, mb=mb, body={"frames": _array([frame.wire_text() for frame in frames])})


# -- packet and event codecs ----------------------------------------------------------

from ..net.packet import Packet  # noqa: E402  (placed here to keep the dependency local)
from .events import Event  # noqa: E402


def encode_packet(packet: Packet) -> dict:
    """Encode a full packet (payload, flags, and middlebox annotations) for transport."""
    wire = {
        "nw_src": packet.nw_src,
        "nw_dst": packet.nw_dst,
        "nw_proto": packet.nw_proto,
        "tp_src": packet.tp_src,
        "tp_dst": packet.tp_dst,
        "payload": base64.b64encode(packet.payload).decode("ascii"),
        "flags": sorted(packet.flags),
        "seq": packet.seq,
        "created_at": packet.created_at,
    }
    if packet.annotations:
        wire["annotations"] = encode_value(dict(packet.annotations))
    if packet.encoded_size is not None:
        wire["encoded_size"] = packet.encoded_size
    return wire


def _exactly(name: str, value: Any, *types: type) -> Any:
    """*value* when its type is exactly one of *types* (a bool is not an int); TypeError otherwise."""
    if type(value) not in types:
        raise TypeError(f"packet member {name!r} must be {types[0].__name__}, got {value!r:.40}")
    return value


def decode_packet(body: dict) -> Packet:
    """Inverse of :func:`encode_packet`, exactly typed as the envelope is: nothing is coerced.

    Addresses are ``str``; ``nw_proto``, the ports, ``seq`` and
    ``encoded_size`` are ints and not bools; ``flags`` is a list of ``str``;
    ``created_at`` is an int or a float.  Anything else is a ProtocolError.
    """
    try:
        flags = _exactly("flags", body.get("flags", []), list)
        for flag in flags:
            _exactly("flags", flag, str)
        packet = Packet(
            nw_src=_exactly("nw_src", body["nw_src"], str),
            nw_dst=_exactly("nw_dst", body["nw_dst"], str),
            nw_proto=_exactly("nw_proto", body["nw_proto"], int),
            tp_src=_exactly("tp_src", body["tp_src"], int),
            tp_dst=_exactly("tp_dst", body["tp_dst"], int),
            payload=base64.b64decode(_exactly("payload", body.get("payload", ""), str)),
            flags=frozenset(flags),
            seq=_exactly("seq", body.get("seq", 0), int),
            created_at=float(_exactly("created_at", body.get("created_at", 0.0), int, float)),
        )
        if "encoded_size" in body:
            packet.encoded_size = _exactly("encoded_size", body["encoded_size"], int)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed packet encoding: {exc!r}") from exc
    if "annotations" in body:
        packet.annotations = decode_value(body["annotations"])
    return packet


def event_message(event: Event) -> Message:
    """Build the EVENT message a middlebox sends to the controller."""
    body: Dict[str, Any] = {
        "code": event.code,
        "raised_at": event.raised_at,
        "shared": event.shared,
        "values": dict(event.values),
    }
    if event.key is not None:
        body["key"] = event.key.as_dict()
    if event.packet is not None:
        body["packet"] = encode_packet(event.packet)
    return Message(MessageType.EVENT, mb=event.mb_name, body=body)


def decode_event(message: Message) -> Event:
    """Reconstruct an :class:`Event` from an EVENT message; the receiver numbers it."""
    return Event(mb_name=message.mb, **parse(message))


def reprocess_message(mb: str, event: Event, *, shared: Optional[bool] = None) -> Message:
    """Build the message the controller sends to the destination MB to replay a packet.

    The packet carries its own five-tuple, so the event's key stays behind.
    ``shared`` overrides the event's own shared flag: a *re*-replay issued
    because a later state chunk overwrote the flow's per-flow state must not
    re-apply the shared-state component a previous replay already applied
    (shared puts merge, so that component survived).
    """
    body: Dict[str, Any] = {"shared": event.shared if shared is None else shared}
    if event.packet is not None:
        body["packet"] = encode_packet(event.packet)
    return Message(MessageType.REPROCESS_PACKET, mb=mb, body=body)


# -- controller <-> controller federation ---------------------------------------------
#
# The inter-domain link a frame arrives on names its sender, so no frame names
# its own domain.


def fed_gossip(
    peer: str,
    sent_at: float,
    *,
    heard: float,
    summary: Sequence[str],
    membership: Sequence[Dict[str, Any]],
    liveness: Sequence[Dict[str, Any]],
    ownership: Sequence[Dict[str, Any]],
    resync: bool = False,
) -> Message:
    """Build one anti-entropy gossip digest for an inter-domain channel.

    ``sent_at`` is the sender's (shared simulated) clock at transmission time;
    the receiver turns it into a one-way delay sample that feeds the smoothed
    WAN latency/jitter estimate used for cross-domain precopy pacing, and
    echoes the latest one back as ``heard``.  The three sections carry the
    entries of the sender's versioned maps the peer is not known to have
    (:class:`repro.federation.gossip.VersionedMap`), ``summary`` each whole
    map's constant-size count + checksum in section order; ``resync`` (on
    the wire only when set) asks the peer for its differing maps in full.
    """
    body = {"sent_at": sent_at, "heard": heard, "summary": list(summary)}
    body.update(membership=list(membership), liveness=list(liveness), ownership=list(ownership))
    if resync:
        body["resync"] = True
    return Message(MessageType.FED_GOSSIP, mb=peer, body=body)


def fed_move_request(peer: str, instance: str) -> Message:
    """Ask *peer* to lend *instance* as the destination of a cross-domain move."""
    return Message(MessageType.FED_MOVE_REQUEST, mb=peer, body={"instance": instance})


def fed_move_grant(request: Message, peer: str, *, granted: bool, reason: str = "") -> Message:
    """Answer a FED_MOVE_REQUEST (matched by ``reply_to``); ``reason`` is omitted from the wire when empty."""
    body: Dict[str, Any] = {"granted": granted}
    if reason:
        body["reason"] = reason
    return Message(MessageType.FED_MOVE_GRANT, reply_to=request.xid, mb=peer, body=body)


def fed_move_done(peer: str, instance: str) -> Message:
    """Return a lent instance to its home domain after the move finished or aborted."""
    return Message(MessageType.FED_MOVE_DONE, mb=peer, body={"instance": instance})


# -- body parsers -------------------------------------------------------------------------
#
# The one description of every message body: type -> ((field, converter,
# default), ...).  A converter turns the wire value into the typed field and
# raises on an ill-typed one; an absent (or null) optional field takes its
# default through the same converter, so mutable defaults are never shared.

REQUIRED = object()


def _typed(*types: type) -> Callable[[Any], Any]:
    """A converter that passes values of exactly one of *types* through and rejects the rest.

    Exactly: a bool is not an int here, and nothing is read out of a string.
    """

    def check(value: Any) -> Any:
        if type(value) not in types:
            raise TypeError(f"expected {types[0].__name__}, got {value!r}")
        return value

    return check


_str, _flag, _int, _number, _list = _typed(str), _typed(bool), _typed(int), _typed(int, float), _typed(list)


def _copied(kind: type) -> Callable[[Any], Any]:
    """A converter that copies a value of exactly *kind*, so a default is never shared."""
    check = _typed(kind)
    return lambda raw: kind(check(raw))


def _each(convert: Callable[[Any], Any]) -> Callable[[Any], list]:
    return lambda raw: [convert(item) for item in _list(raw)]


def _round(raw: Any) -> Tuple[int, ...]:
    """A pre-copy round tag: a list of ints, compared as a tuple."""
    if any(type(part) is not int for part in _list(raw)):
        raise TypeError(f"expected a list of ints, got {raw!r}")
    return tuple(raw)


def _seconds(raw: Any) -> float:
    """A time in seconds: exactly an int or a float, read as a float."""
    return float(_number(raw))


_ROLE = ("role", _role, REQUIRED)
_PATTERN = ("pattern", FlowPattern.parse, {})
_OPTIONAL_PATTERN = ("pattern", FlowPattern.parse, None)
_COMPRESS = ("compress", _flag, False)
_KEY = ("key", FlowKey.from_dict, None)
_KEYS = (("keys", _each(FlowKey.from_dict), []),)
_PACKET = ("packet", decode_packet, None)
_SHARED = ("shared", _flag, False)
_SHARED_CHUNK = ("chunk", partial(decode_chunk, shared=True), REQUIRED)
_PUT_TAGS = (("hold", _flag, False), ("round", _round, None))
_INSTANCE = (("instance", _str, ""),)


_DIGEST_ENTRY = (("key", str), ("origin", str), ("version", int), ("value", dict), ("at", int, float))


def _digest_entry(raw: Any) -> Dict[str, Any]:
    """One gossip digest entry, passed through uncopied once every field is exactly typed."""
    if type(raw) is not dict or any(type(raw.get(name)) not in types for name, *types in _DIGEST_ENTRY) or raw["version"] < 1:
        raise TypeError(f"malformed digest entry {raw!r}")
    return raw


def _summaries(raw: Any) -> list:
    if type(raw) is not list or len(raw) != len(_DIGEST) or any(type(item) is not str for item in raw):
        raise TypeError(f"expected one summary string per digest section, got {raw!r}")
    return raw


_DIGEST = tuple((section, _each(_digest_entry), []) for section in ("membership", "liveness", "ownership"))
_GOSSIP = (("sent_at", _number, REQUIRED), ("heard", _number, REQUIRED), ("summary", _summaries, REQUIRED), ("resync", _flag, False))

SCHEMAS: Dict[str, tuple] = {
    MessageType.BATCH: (("frames", _each(Message.from_wire), []),),
    MessageType.GET_CONFIG: (("key", _str, "*"),),
    MessageType.SET_CONFIG: (("key", _str, REQUIRED), ("values", _copied(list), [])),
    MessageType.DEL_CONFIG: (("key", _str, REQUIRED),),
    MessageType.GET_PERFLOW: (_ROLE, _PATTERN, ("transfer", _flag, False), ("track_dirty", _flag, False), _COMPRESS),
    MessageType.GET_PERFLOW_DELTA: (_ROLE, _PATTERN, ("final", _flag, False), _COMPRESS),
    MessageType.PUT_PERFLOW: (("chunk", decode_chunk, REQUIRED), *_PUT_TAGS),
    MessageType.PUT_PERFLOW_BATCH: (("chunks", _each(decode_chunk), []), *_PUT_TAGS),
    MessageType.DEL_PERFLOW: (_ROLE, _PATTERN),
    MessageType.TRANSFER_HOLD: _KEYS,
    MessageType.TRANSFER_RELEASE: _KEYS,
    MessageType.GET_SHARED: (_ROLE, ("transfer", _flag, False)),
    MessageType.PUT_SHARED: (_SHARED_CHUNK,),
    MessageType.GET_STATS: (_PATTERN,),
    MessageType.ENABLE_EVENTS: (("code", _str, REQUIRED), _OPTIONAL_PATTERN, ("until", _number, None)),
    MessageType.DISABLE_EVENTS: (("code", _str, REQUIRED), _OPTIONAL_PATTERN),
    MessageType.TRANSFER_END: (("dirty_only", _flag, False), ("shared_only", _flag, False)),
    MessageType.REPROCESS_PACKET: (_PACKET, _SHARED),
    MessageType.CONFIG_VALUE: (("values", _copied(dict), {}),),
    MessageType.STATE_CHUNK: (("chunk", decode_chunk, REQUIRED),),
    MessageType.SHARED_STATE: (_SHARED_CHUNK,),
    MessageType.GET_COMPLETE: (("role", _str, None), ("dirty", _int, None)),
    MessageType.STATS_REPLY: (("stats", _copied(dict), {}),),
    MessageType.ACK: (("removed", _int, 0),),
    MessageType.ERROR: (("reason", _str, ""),),
    MessageType.EVENT: (("code", _str, ""), ("raised_at", _seconds, 0.0), _SHARED, ("values", _copied(dict), {}), _KEY, _PACKET),
    MessageType.HEARTBEAT: (),
    MessageType.CHAN_ACK: (("cum", _int, 0),),
    MessageType.FED_GOSSIP: (*_GOSSIP, *_DIGEST),
    MessageType.FED_MOVE_REQUEST: _INSTANCE,
    MessageType.FED_MOVE_GRANT: (("granted", _flag, False), ("reason", _str, "denied")),
    MessageType.FED_MOVE_DONE: _INSTANCE,
}


def parse(message: Message, *only: str) -> Dict[str, Any]:
    """Return *message*'s body as typed fields, one per schema entry (or just those named in *only*).

    Raises ProtocolError for a type with no schema, a missing required field,
    or a field its converter rejects — the only exception a body can cause.
    """
    schema, body = SCHEMAS.get(message.type), message.body
    if schema is None or not isinstance(body, dict):
        raise ProtocolError(f"cannot parse a {message.type!r} message")
    fields: Dict[str, Any] = {}
    for name, convert, default in schema:
        if only and name not in only:
            continue
        raw = body.get(name)
        if raw is None:
            raw = default
        if raw is REQUIRED:
            raise ProtocolError(f"{message.type} is missing field {name!r}")
        try:
            fields[name] = None if raw is None else convert(raw)
        except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
            raise ProtocolError(f"{message.type} has a malformed {name!r}: {exc!r}") from exc
    return fields


def parse_reply(reply: Message) -> tuple:
    """``(type, typed fields)`` of a reply; one whose body is malformed reads as an ERROR saying so.

    What lets a reply handler fail its future or operation on a garbage body
    exactly as it does on a refusal, with no exception to catch.
    """
    try:
        return reply.type, parse(reply)
    except ProtocolError as exc:
        return MessageType.ERROR, {"reason": f"malformed {reply.type} reply: {exc}"}
