"""Unit tests for the southbound wire protocol and control channels."""

import base64
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ControllerConfig, MBController, NorthboundAPI, TransferSpec, chunks, messages
from repro.core.channel import ControlChannel
from repro.core.chunks import canonical_json, deserialize_payload, encode_value, parse_json
from repro.core.errors import ProtocolError, StateError
from repro.core.events import Event, EventCode
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.messages import BATCHABLE_REQUESTS, SCHEMAS, Message, MessageType
from repro.core.state import StateChunk, StateRole
from repro.middleboxes import DummyMiddlebox
from repro.net.packet import Packet, tcp_packet
from repro.net.simulator import Simulator

KEY = FlowKey(6, "10.0.0.1", "192.0.2.1", 1000, 80)


class TestMessageEncoding:
    def test_roundtrip(self):
        message = messages.get_perflow("mb1", StateRole.SUPPORTING, FlowPattern(tp_dst=80), transfer=True)
        decoded = Message.decode(message.encode())
        assert decoded.type == MessageType.GET_PERFLOW
        assert decoded.mb == "mb1"
        assert decoded.body["transfer"] is True
        assert decoded.xid == message.xid

    def test_reply_to_preserved(self):
        ack = Message(MessageType.ACK, reply_to=42, mb="mb1")
        assert Message.decode(ack.encode()).reply_to == 42

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError):
            Message.decode(b"{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(ProtocolError):
            Message.decode(b'{"type": "ack"}')

    def test_unencodable_body_rejected(self):
        message = Message(MessageType.ACK, body={"bad": object()})
        with pytest.raises(ProtocolError):
            message.encode()

    def test_wire_size_is_encoded_length(self):
        message = messages.get_config("mb1", "*")
        assert message.wire_size == len(message.encode())

    def test_xids_are_numbered_by_their_sender(self):
        """Two controllers in one process both start at 1; no sender (controller or agent) repeats an xid."""
        for _ in range(2):
            sim, replies = Simulator(), []
            controller = MBController(sim, ControllerConfig())
            controller.register(DummyMiddlebox(sim, "mb"))
            assert [controller.send("mb", messages.get_config("mb", "*"), on_reply=replies.append) for _ in range(4)] == [1, 2, 3, 4]
            sim.run()
            assert sorted(reply.reply_to for reply in replies) == [1, 2, 3, 4] and len({reply.xid for reply in replies}) == 4


class TestChunkCodecs:
    def test_perflow_chunk_roundtrip(self):
        chunk = StateChunk(key=KEY, role=StateRole.SUPPORTING, blob=b"\x00\x01binary")
        wire = json.loads(messages.encode_chunk(chunk))
        assert sorted(wire) == ["blob", "key", "role"]
        assert messages.decode_chunk(wire) == chunk

    def test_shared_chunk_roundtrip(self):
        """A shared chunk is the keyless case: no ``key`` on the wire, none after decoding."""
        chunk = StateChunk(key=None, role=StateRole.REPORTING, blob=b"shared-bytes")
        wire = json.loads(messages.encode_chunk(chunk))
        assert sorted(wire) == ["blob", "role"]
        decoded = messages.decode_chunk(wire, shared=True)
        assert decoded.key is None
        assert decoded.role is StateRole.REPORTING
        assert decoded.blob == b"shared-bytes"

    def test_perflow_message_requires_the_key_a_shared_one_ignores_it(self):
        keyless = messages.put_perflow("mb", StateChunk(key=None, role=StateRole.SUPPORTING, blob=b"x"))
        with pytest.raises(ProtocolError):
            messages.parse(Message.decode(keyless.encode()))
        keyed = messages.put_shared("mb", StateChunk(key=KEY, role=StateRole.SUPPORTING, blob=b"x"))
        assert messages.parse(Message.decode(keyed.encode()))["chunk"].key is None

    def test_malformed_chunk_rejected(self):
        with pytest.raises(ProtocolError):
            messages.decode_chunk({"role": "supporting"})

    def test_pattern_roundtrip(self):
        pattern = FlowPattern(nw_src="10.0.0.0/8", tp_dst=80)
        request = Message.decode(messages.get_stats("mb", pattern).encode())
        assert messages.parse(request)["pattern"] == pattern


# =========================================================================================
# The spliced encoder against its oracle
# =========================================================================================
#
# ``Message.encode`` assembles the wire text by splicing pre-encoded fragments.
# The reference encoding lives here: every constructor's body written out as
# the plain nested dict it stands for, encoded by one ``json.dumps``.  The two
# must agree byte for byte, for well-typed values (which must also parse back
# to what was put in) and for *wild* ones (a bool, float or huge int where an
# int belongs, a number where a string does) that the receiver will refuse.

T = MessageType
CANONICAL = {"sort_keys": True, "separators": (",", ":")}

texts = st.text(max_size=12)  # any code point but a surrogate: quotes, backslashes, controls, non-ASCII
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=3)
patterns = st.sampled_from(
    [FlowPattern(), FlowPattern(nw_src="10.0.0.0/8", tp_dst=80), FlowPattern(6, "10.0.0.1", "192.0.2.1/32", 1000, 80)]
)
roles = st.sampled_from(list(StateRole))
#: What turns up where an int belongs: exact ints of any size when well typed, anything numeric when wild.
wild_numbers = st.one_of(st.integers(), st.booleans(), st.floats(), st.integers(min_value=2**53), st.integers(max_value=-1))


class Draw:
    """The strategies one example draws from; *wild* swaps scalars for ill-typed look-alikes."""

    def __init__(self, draw, wild: bool) -> None:
        self.draw, self.wild = draw, wild

    def __call__(self, strategy):
        return self.draw(strategy)

    def int(self):
        return self.draw(wild_numbers if self.wild else st.integers())

    def flag(self):
        return self.draw(st.one_of(st.booleans(), st.integers(0, 1)) if self.wild else st.booleans())

    def text(self):
        return self.draw(st.one_of(texts, st.integers()) if self.wild else texts)

    def maybe(self, value):
        """*value* or None: an optional field present and absent."""
        return value if self.draw(st.booleans()) else None

    def key(self) -> FlowKey:
        return FlowKey(self.int(), self.text(), self.text(), self.int(), self.int())

    def keys(self) -> list:
        return [self.key() for _ in range(self.draw(st.integers(0, 3)))]

    def chunk(self, *, shared: bool = False) -> StateChunk:
        return StateChunk(
            key=None if shared else self.key(),
            role=self.draw(roles),
            blob=self.draw(st.binary(max_size=40)),
        )

    def packet(self) -> Packet:
        packet = Packet(
            nw_src=self.draw(texts),
            nw_dst=self.draw(texts),
            nw_proto=self.draw(st.integers()),
            tp_src=self.draw(st.integers()),
            tp_dst=self.draw(st.integers()),
            payload=self.draw(st.binary(max_size=20)),
            flags=frozenset(self.draw(st.lists(texts, max_size=3))),
            seq=self.draw(st.integers()),
            created_at=self.draw(st.floats(allow_nan=False)),
            encoded_size=self.maybe(self.draw(st.integers())),
        )
        packet.annotations = self.draw(st.dictionaries(texts, st.one_of(json_leaves, st.binary(max_size=6)), max_size=2))
        return packet

    def round(self):
        return self.maybe((self.int(), self.int()))


def plain_chunk(chunk: StateChunk) -> dict:
    plain = {"role": chunk.role.value, "blob": base64.b64encode(chunk.blob).decode("ascii")}
    if chunk.key is not None:
        plain["key"] = chunk.key.as_dict()
    return plain


def plain_packet(packet: Packet) -> dict:
    plain = {
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
        plain["annotations"] = encode_value(dict(packet.annotations))
    if packet.encoded_size is not None:
        plain["encoded_size"] = packet.encoded_size
    return plain


def present(**members) -> dict:
    """The optional members a constructor puts on the wire: those that are not None."""
    return {name: value for name, value in members.items() if value is not None}


def raised(**flags) -> dict:
    """The flags a constructor puts on the wire: ``True`` for each one set, nothing for the rest."""
    return {name: True for name, flag in flags.items() if flag}


def plain_wire(message: Message, body) -> dict:
    """The whole message as the nested dict ``json.dumps`` is the reference encoder of."""
    wire = {"type": message.type, "xid": message.xid, "mb": message.mb, "body": body}
    wire.update(present(reply_to=message.reply_to, cseq=message.cseq))
    return wire


# One case per message type: (message built by the constructor, its plain body, the fields parse() returns).


def case_get_config(d):
    key = d.text()
    return messages.get_config(d.text(), key), {"key": key}, {"key": key}


def case_set_config(d):
    key, values = d.text(), d(st.lists(json_values, max_size=3))
    return messages.set_config(d.text(), key, values), {"key": key, "values": values}, {"key": key, "values": values}


def case_del_config(d):
    key = d.text()
    return messages.del_config(d.text(), key), {"key": key}, {"key": key}


def case_get_perflow(d):
    role, pattern, transfer, track_dirty, compress = d(roles), d(patterns), d.flag(), d(st.booleans()), d(st.booleans())
    message = messages.get_perflow(d.text(), role, pattern, transfer=transfer, track_dirty=track_dirty, compress=compress)
    body = {"role": role.value, "pattern": pattern.as_dict(), "transfer": transfer}
    body.update(raised(track_dirty=track_dirty, compress=compress))
    return message, body, dict(role=role, pattern=pattern, transfer=transfer, track_dirty=track_dirty, compress=compress)


def case_get_perflow_delta(d):
    role, pattern, final, compress = d(roles), d(patterns), d(st.booleans()), d(st.booleans())
    message = messages.get_perflow_delta(d.text(), role, pattern, final=final, compress=compress)
    body = {"role": role.value, "pattern": pattern.as_dict(), **raised(final=final, compress=compress)}
    return message, body, dict(role=role, pattern=pattern, final=final, compress=compress)


def case_put_perflow(d):
    chunk, hold, round_ = d.chunk(), d(st.booleans()), d.round()
    message = messages.put_perflow(d.text(), chunk, hold=hold, round=round_)
    body = {"chunk": plain_chunk(chunk), **raised(hold=hold), **present(round=None if round_ is None else list(round_))}
    return message, body, dict(chunk=chunk, hold=hold, round=round_)


def case_put_perflow_batch(d):
    chunks = [d.chunk() for _ in range(d(st.integers(0, 3)))]
    hold, round_ = d(st.booleans()), d.round()
    message = messages.put_perflow_batch(d.text(), chunks, hold=hold, round=round_)
    tags = {**raised(hold=hold), **present(round=None if round_ is None else list(round_))}
    body = {"chunks": [plain_chunk(chunk) for chunk in chunks], **tags}
    return message, body, dict(chunks=chunks, hold=hold, round=round_)


def case_del_perflow(d):
    role, pattern = d(roles), d(patterns)
    body = {"role": role.value, "pattern": pattern.as_dict()}
    return messages.del_perflow(d.text(), role, pattern), body, dict(role=role, pattern=pattern)


def _case_keys(constructor):
    def case(d):
        keys = d.keys()
        return constructor(d.text(), keys), {"keys": [key.as_dict() for key in keys]}, {"keys": keys}

    return case


def case_get_shared(d):
    role, transfer = d(roles), d.flag()
    message = messages.get_shared(d.text(), role, transfer=transfer)
    return message, {"role": role.value, "transfer": transfer}, dict(role=role, transfer=transfer)


def case_put_shared(d):
    chunk = d.chunk(shared=True)
    return messages.put_shared(d.text(), chunk), {"chunk": plain_chunk(chunk)}, {"chunk": chunk}


def case_get_stats(d):
    pattern = d(patterns)
    return messages.get_stats(d.text(), pattern), {"pattern": pattern.as_dict()}, {"pattern": pattern}


def case_enable_events(d):
    code, pattern, until = d.text(), d.maybe(d(patterns)), d.maybe(d(st.floats(allow_nan=False)))
    message = messages.enable_events(d.text(), code, pattern, until)
    body = {"code": code, **present(pattern=None if pattern is None else pattern.as_dict(), until=until)}
    return message, body, dict(code=code, pattern=pattern, until=until)


def case_disable_events(d):
    code, pattern = d.text(), d.maybe(d(patterns))
    body = {"code": code, **present(pattern=None if pattern is None else pattern.as_dict())}
    return messages.disable_events(d.text(), code, pattern), body, dict(code=code, pattern=pattern)


def case_transfer_end(d):
    dirty_only, shared_only = d(st.booleans()), d(st.booleans())
    message = messages.transfer_end(d.text(), dirty_only=dirty_only, shared_only=shared_only)
    return message, raised(dirty_only=dirty_only, shared_only=shared_only), dict(dirty_only=dirty_only, shared_only=shared_only)


def case_reprocess_packet(d):
    event = Event("src", EventCode.REPROCESS, key=d.maybe(d.key()), packet=d.maybe(d.packet()), shared=d(st.booleans()))
    shared = d.maybe(d.flag())
    message = messages.reprocess_message(d.text(), event, shared=shared)
    sent_shared = event.shared if shared is None else shared
    body = {"shared": sent_shared}  # the event's key stays behind: the packet carries its own five-tuple
    if event.packet is not None:
        body["packet"] = plain_packet(event.packet)
    return message, body, dict(packet=event.packet, shared=sent_shared)


def case_config_value(d):
    values = d(json_objects)
    return messages.config_value(d.text(), d.int(), values), {"values": values}, {"values": values}


def _case_chunk_reply(constructor, *, shared):
    def case(d):
        chunk = d.chunk(shared=shared)
        return constructor(d.text(), d.int(), chunk), {"chunk": plain_chunk(chunk)}, {"chunk": chunk}

    return case


def case_get_complete(d):
    role, dirty = d(roles), d.maybe(d.int())
    message = messages.get_complete(d.text(), d.int(), role, dirty)
    return message, {"role": role.value, **present(dirty=dirty)}, dict(role=role.value, dirty=dirty)


def case_stats_reply(d):
    stats = d(json_objects)
    return messages.stats_reply(d.text(), d.int(), stats), {"stats": stats}, {"stats": stats}


def case_ack(d):
    removed = d.maybe(d.int())
    body = present(removed=removed)
    return messages.ack(d.text(), d.int(), removed), body, {"removed": 0, **body}


def case_error(d):
    reason = d.text()
    return messages.error(d.text(), d.int(), reason), {"reason": reason}, {"reason": reason}


def case_event(d):
    event = Event(
        d(texts),
        d.text(),
        key=d.maybe(d.key()),
        packet=d.maybe(d.packet()),
        values=d(json_objects),
        raised_at=d(st.floats(allow_nan=False)),
        shared=d.flag(),
    )
    body = {"code": event.code, "raised_at": event.raised_at, "shared": event.shared}
    body["values"] = event.values
    if event.key is not None:
        body["key"] = event.key.as_dict()
    if event.packet is not None:
        body["packet"] = plain_packet(event.packet)
    fields = dict(code=event.code, raised_at=event.raised_at, shared=event.shared, values=event.values)
    return messages.event_message(event), body, dict(fields, key=event.key, packet=event.packet)


def case_heartbeat(d):
    return messages.heartbeat(d.text()), {}, {}


def case_chan_ack(d):
    cumulative = d.int()
    return messages.chan_ack(d.text(), cumulative), {"cum": cumulative}, {"cum": cumulative}


def case_fed_gossip(d):
    def entry():
        version = d.int() if d.wild else d(st.integers(min_value=1))
        return {"key": d.text(), "origin": d.text(), "version": version, "value": d(json_objects), "at": d(st.floats(allow_nan=False))}

    sent_at, heard, resync = d(st.floats(allow_nan=False)), d(st.floats(allow_nan=False)), d.flag()
    summary = [d.text() for _ in range(3)]
    sections = {name: [entry() for _ in range(d(st.integers(0, 2)))] for name in ("membership", "liveness", "ownership")}
    message = messages.fed_gossip(d.text(), sent_at, heard=heard, summary=summary, resync=resync, **sections)
    body = {"sent_at": sent_at, "heard": heard, "summary": summary, **sections}
    if resync:
        body["resync"] = True  # on the wire only when set
    return message, body, dict(body, resync=resync)


def _case_instance(constructor):
    def case(d):
        instance = d.text()
        return constructor(d.text(), instance), {"instance": instance}, {"instance": instance}

    return case


def case_fed_move_grant(d):
    request = messages.fed_move_request("peer", d(texts))
    granted, reason = d.flag(), d(texts)
    message = messages.fed_move_grant(request, d.text(), granted=granted, reason=reason)
    body = {"granted": granted, **present(reason=reason or None)}
    assert message.reply_to == request.xid
    return message, body, dict(granted=granted, reason=reason or "denied")


BATCHABLE_CASES = {
    T.PUT_PERFLOW: case_put_perflow,
    T.PUT_PERFLOW_BATCH: case_put_perflow_batch,
    T.REPROCESS_PACKET: case_reprocess_packet,
    T.TRANSFER_RELEASE: _case_keys(messages.transfer_release),
    T.DEL_PERFLOW: case_del_perflow,
}


def case_batch(d):
    """An empty batch, or a BATCH of BATCHable frames, each stamped like any other message."""
    inner = [stamped(d, *BATCHABLE_CASES[d(st.sampled_from(sorted(BATCHABLE_CASES)))](d)) for _ in range(d(st.integers(0, 3)))]
    message = messages.batch_message(d.text(), [frame for frame, _, _ in inner])
    body = {"frames": [plain_wire(frame, frame_body) for frame, frame_body, _ in inner]}
    return message, body, {"frames": [(frame.type, frame.xid, frame.mb, frame.cseq, fields) for frame, _, fields in inner]}


CASES = {
    T.BATCH: case_batch,
    T.GET_CONFIG: case_get_config,
    T.SET_CONFIG: case_set_config,
    T.DEL_CONFIG: case_del_config,
    T.GET_PERFLOW: case_get_perflow,
    T.GET_PERFLOW_DELTA: case_get_perflow_delta,
    T.PUT_PERFLOW: case_put_perflow,
    T.PUT_PERFLOW_BATCH: case_put_perflow_batch,
    T.DEL_PERFLOW: case_del_perflow,
    T.TRANSFER_HOLD: _case_keys(messages.transfer_hold),
    T.TRANSFER_RELEASE: _case_keys(messages.transfer_release),
    T.GET_SHARED: case_get_shared,
    T.PUT_SHARED: case_put_shared,
    T.GET_STATS: case_get_stats,
    T.ENABLE_EVENTS: case_enable_events,
    T.DISABLE_EVENTS: case_disable_events,
    T.TRANSFER_END: case_transfer_end,
    T.REPROCESS_PACKET: case_reprocess_packet,
    T.CONFIG_VALUE: case_config_value,
    T.STATE_CHUNK: _case_chunk_reply(messages.state_chunk, shared=False),
    T.SHARED_STATE: _case_chunk_reply(messages.shared_state, shared=True),
    T.GET_COMPLETE: case_get_complete,
    T.STATS_REPLY: case_stats_reply,
    T.ACK: case_ack,
    T.ERROR: case_error,
    T.EVENT: case_event,
    T.HEARTBEAT: case_heartbeat,
    T.CHAN_ACK: case_chan_ack,
    T.FED_GOSSIP: case_fed_gossip,
    T.FED_MOVE_REQUEST: _case_instance(messages.fed_move_request),
    T.FED_MOVE_GRANT: case_fed_move_grant,
    T.FED_MOVE_DONE: _case_instance(messages.fed_move_done),
}


def stamped(d: Draw, message: Message, body, fields):
    """Give the envelope drawn scalars too: ``cseq`` present and absent, ``reply_to`` where a constructor set one."""
    message.xid = d.int()
    message.cseq = d.maybe(d.int())
    if message.reply_to is not None:
        message.reply_to = d.int()
    return message, body, fields


def comparable(value):
    """Parsed fields with what a decoder unwraps (inner frames) made comparable."""
    if isinstance(value, Message):
        return (value.type, value.xid, value.mb, value.cseq, comparable(messages.parse(value)))
    if isinstance(value, dict):
        return {name: comparable(item) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(comparable(item) for item in value)
    return value


class TestSplicedEncoderAgainstTheOracle:
    def test_every_message_type_has_a_case(self):
        assert set(CASES) == set(SCHEMAS)
        assert set(BATCHABLE_CASES) == set(BATCHABLE_REQUESTS)

    @pytest.mark.parametrize("type_", sorted(SCHEMAS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_well_typed_messages_encode_as_the_oracle_does_and_parse_back(self, type_, data):
        message, body, fields = stamped(Draw(data.draw, wild=False), *CASES[type_](Draw(data.draw, wild=False)))
        assert message.type == type_
        encoded = message.encode()
        assert encoded == json.dumps(plain_wire(message, body), **CANONICAL).encode()
        decoded = Message.decode(encoded)
        assert (decoded.type, decoded.xid, decoded.mb, decoded.reply_to, decoded.cseq) == (
            message.type, message.xid, message.mb, message.reply_to, message.cseq
        )  # fmt: skip
        assert comparable(messages.parse(decoded)) == comparable(fields)

    @pytest.mark.parametrize("type_", sorted(SCHEMAS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ill_typed_scalars_still_encode_as_the_oracle_does(self, type_, data):
        message, body, _ = stamped(Draw(data.draw, wild=True), *CASES[type_](Draw(data.draw, wild=True)))
        encoded = message.encode()
        assert encoded == json.dumps(plain_wire(message, body), **CANONICAL).encode()
        optional = [value for value in (message.reply_to, message.cseq) if value is not None]
        if type(message.xid) is int and type(message.mb) is str and all(type(value) is int for value in optional):
            Message.decode(encoded)  # one JSON object whose envelope is exactly typed
        else:
            with pytest.raises(ProtocolError):
                Message.decode(encoded)

    @pytest.mark.parametrize("body", [None, 7, "text", [1, {"a": 2}], True, 1.5])
    def test_a_body_that_is_not_a_dict_is_encoded_as_it_stands_and_refused_by_the_decoder(self, body):
        message = Message(T.PUT_PERFLOW, mb="mb", body=body, cseq=3)
        assert message.encode() == json.dumps(plain_wire(message, body), **CANONICAL).encode()
        with pytest.raises(ProtocolError, match="'body' must be dict"):
            Message.decode(message.encode())

    def test_a_value_edited_in_after_construction_is_what_goes_on_the_wire(self):
        """The body dict is read at encode time: a replaced member is encoded, fragments beside it untouched."""
        chunk = StateChunk(key=KEY, role=StateRole.SUPPORTING, blob=b"x")
        message = messages.put_perflow("mb", chunk, round=(1, 0))
        message.body["round"] = {"nested": [1.5, None, "é", '"', "\\"]}
        message.body['quo"te'] = " "
        plain = {"chunk": plain_chunk(chunk), "round": {"nested": [1.5, None, "é", '"', "\\"]}, 'quo"te': " "}
        assert message.encode() == json.dumps(plain_wire(message, plain), **CANONICAL).encode()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Message(T.ACK, body={"bad": object()}),
            lambda: Message(T.ACK, mb=object()),
            lambda: Message(T.ACK, xid={1, 2}),
            lambda: Message(T.ACK, body={"a": 1, 2: 3}),  # keys that do not sort
            lambda: messages.put_perflow("mb", StateChunk(KEY, StateRole.SUPPORTING, b"x"), round=(b"bytes", 0)),
            lambda: messages.put_perflow("mb", StateChunk(KEY, StateRole.SUPPORTING, b"x"), round=(object(), 0)),
            lambda: messages.state_chunk("mb", 1, StateChunk(KEY, StateRole.SUPPORTING, "not bytes")),
            lambda: messages.state_chunk("mb", 1, StateChunk(FlowKey(6, object(), "b", 1, 2), StateRole.SUPPORTING, b"x")),
            lambda: messages.put_perflow_batch("mb", [StateChunk(FlowKey(6, "a", "b", 1, {1, 2}), StateRole.SUPPORTING, b"x")]),
            lambda: messages.batch_message("mb", [Message(T.DEL_PERFLOW, body={"bad": object()})]),
        ],
    )
    def test_an_unencodable_value_raises_protocol_error_and_nothing_else(self, build):
        with pytest.raises(ProtocolError):
            build().encode()


# =========================================================================================
# The canonical JSON codec against its oracle
# =========================================================================================
#
# ``canonical_json`` / ``parse_json`` are one C encoder and one C scanner built
# at import; ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` and
# ``json.loads`` are their reference.  Bytes must agree exactly; the one
# deliberate difference is that ``parse_json`` refuses whitespace around the
# document, which the encoder never writes.

any_text = st.text(max_size=10)  # non-ASCII, quotes, backslashes and control characters
oracle_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(max_value=-(2**63)),
    st.floats(),  # NaN and ±inf included
    any_text,
)
oracle_values = st.recursive(
    oracle_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(any_text, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),  # int keys are written as strings
    ),
    max_leaves=12,
)


def nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


class TestCanonicalCodecAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(value=oracle_values)
    def test_the_encoder_writes_what_json_dumps_writes(self, value):
        assert canonical_json(value) == json.dumps(value, **CANONICAL)

    @settings(max_examples=150, deadline=None)
    @given(value=oracle_values)
    def test_the_scanner_reads_what_json_loads_reads(self, value):
        text = canonical_json(value)
        assert repr(parse_json(text)) == repr(json.loads(text))  # repr: NaN, 1 vs 1.0 and True vs 1 compare too

    @pytest.mark.parametrize("value", [{"a": 1, 2: 3}, {"bad": object()}, b"bytes", {1, 2}])
    def test_what_json_dumps_refuses_the_encoder_refuses_alike(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, **CANONICAL)
        with pytest.raises(TypeError):
            canonical_json(value)

    @pytest.mark.parametrize("text", [" 1", "1 ", "\n{}", "{}\t", " ", "", "1 2", "{}{}", '"a""b"', "[]]", "nul"])
    def test_whitespace_around_the_document_a_second_document_and_empty_text_are_refused(self, text):
        with pytest.raises(ValueError):
            parse_json(text)

    @pytest.mark.parametrize(
        "data",
        [b" " + b'{"type":"ack","xid":1}', b'{"type":"ack","xid":1}\n', b'{"type":"ack","xid":1}{"type":"ack","xid":2}', b""],
    )
    def test_message_decode_refuses_padding_two_documents_and_empty_bytes(self, data):
        with pytest.raises(ProtocolError):
            Message.decode(data)

    @pytest.mark.parametrize("data", [b'{"type":"ack","xid":1,"mb":"\xff"}', b'{"type":"ack","xid":1,"mb":"\xed\xa0\x80"}'])
    def test_message_decode_refuses_invalid_utf8(self, data):
        with pytest.raises(ProtocolError):
            Message.decode(data)


class TestDeepNestingIsRefusedNotRaised:
    """A recursion limit reached inside the codec is a refusal (``ProtocolError`` / ``StateError``), never ``RecursionError``.

    Which limit is reached depends on the interpreter: the C scanner and
    encoder count against ``sys.getrecursionlimit()`` up to 3.11 and against a
    separate C limit from 3.12 on, and 3.12 inlines comprehensions, so
    ``decode_value`` takes one frame per level instead of two.  The depths
    here therefore lie beyond every such limit: ``DEEP`` for text the C
    scanner or encoder walks, and the Python recursion limit plus a margin for
    a value built in process and handed straight to ``decode_value``.
    """

    DEEP = 100_000

    def test_decode_of_unbalanced_brackets(self):
        with pytest.raises(ProtocolError):
            Message.decode(b"[" * self.DEEP)

    def test_decode_of_a_message_whose_body_is_nested_too_deeply(self):
        body = "[" * self.DEEP + "]" * self.DEEP
        with pytest.raises(ProtocolError):
            Message.decode(f'{{"body":{{"a":{body}}},"mb":"mb","type":"ack","xid":1}}'.encode())

    def test_deserialize_payload_of_a_payload_the_scanner_refuses(self):
        with pytest.raises(StateError):
            deserialize_payload(b"R" + b"[" * self.DEEP + b"]" * self.DEEP)

    def test_deserialize_payload_of_a_value_the_payload_decoder_cannot_recurse_through(self, monkeypatch):
        """The scanner is stubbed out, so only ``decode_value``'s own recursion can run out."""
        monkeypatch.setattr(chunks, "parse_json", lambda text: nested(sys.getrecursionlimit() + 100))
        with pytest.raises(StateError, match="RecursionError"):
            deserialize_payload(b"R[]")

    def test_parse_of_a_body_a_field_decoder_cannot_recurse_through(self):
        """Nested beyond the recursion limit inside packet annotations: ``decode_value`` runs out of stack."""
        annotations = {"a": nested(sys.getrecursionlimit() + 100)}
        packet = {"nw_src": "10.0.0.1", "nw_dst": "10.0.0.2", "nw_proto": 6, "tp_src": 1, "tp_dst": 2, "annotations": annotations}
        with pytest.raises(ProtocolError, match="RecursionError"):
            messages.parse(Message(T.REPROCESS_PACKET, body={"packet": packet}))

    def test_encode_of_a_body_nested_too_deeply(self):
        with pytest.raises(ProtocolError):
            Message(T.ACK, body={"a": nested(self.DEEP)}).encode()

    def test_a_body_that_contains_itself_is_still_refused(self):
        body: dict = {}
        body["self"] = body
        with pytest.raises(ProtocolError):
            Message(T.ACK, body=body).encode()


class TestTheEnvelopeIsExactlyTyped:
    """``type`` str, ``xid`` int (not bool), ``reply_to`` / ``cseq`` int or absent, ``mb`` str, ``body`` object."""

    GOOD = {"body": {}, "mb": "mb", "type": T.ACK, "xid": 1}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("type", 7),
            ("xid", "7"),
            ("xid", True),
            ("xid", 1.0),
            ("reply_to", 1.5),
            ("reply_to", None),
            ("cseq", "x"),
            ("cseq", False),
            ("mb", 3),
            ("body", []),
            ("body", None),
        ],
    )
    def test_an_ill_typed_member_is_refused_at_decode_and_inside_a_batch(self, field, value):
        frame = {**self.GOOD, field: value}
        with pytest.raises(ProtocolError, match=repr(field)):
            Message.decode(canonical_json(frame).encode())
        batch = {**self.GOOD, "type": T.BATCH, "body": {"frames": [self.GOOD, frame]}}
        decoded = Message.decode(canonical_json(batch).encode())
        with pytest.raises(ProtocolError, match=repr(field)):
            messages.parse(decoded)

    def test_a_message_is_an_object(self):
        for text in (b'"type xid"', b'["type","xid"]', b"7"):
            with pytest.raises(ProtocolError):
                Message.decode(text)

    def test_absent_optional_members_take_their_defaults(self):
        assert Message.decode(b'{"type":"ack","xid":2}') == Message(T.ACK, xid=2, reply_to=None, mb="", body={}, cseq=None)


class TestOneEncodeAndTwoParsesPerChunk:
    """The codec counts of a batched move: each chunk's payload is encoded once; it is parsed twice
    (the controller's ``state_chunk`` decode and the destination's unseal) plus the batch frame's share."""

    def test_a_4096_flow_move_in_batches_of_512(self, monkeypatch):
        calls = {"encode": 0, "parse": 0}

        def counted(kind, function):
            def wrapper(value):
                calls[kind] += 1
                return function(value)

            return wrapper

        encode, parse = chunks.canonical_json, chunks.parse_json
        for module in (chunks, messages):
            monkeypatch.setattr(module, "canonical_json", counted("encode", encode))
            monkeypatch.setattr(module, "parse_json", counted("parse", parse))
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
        src, dst = DummyMiddlebox(sim, "src"), DummyMiddlebox(sim, "dst")
        controller.register(src)
        controller.register(dst)
        for index in range(4096):
            src.support_store.put(src.flow_key_for(index), {"index": index, "packets": 0})
        handle = NorthboundAPI(controller).move_internal("src", "dst", None, spec=TransferSpec.precopy(batch_size=512))
        record = sim.run_until(handle.finalized, limit=100)
        assert record.puts_acked == len(dst.support_store) == 4096
        assert calls["encode"] / record.puts_acked <= 1.01, calls
        assert calls["parse"] / record.puts_acked <= 2.01, calls


class TestPacketAndEventCodecs:
    def test_packet_roundtrip_preserves_payload_flags_annotations(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 80, b"\x01\x02payload", flags={"SYN", "ACK"})
        packet.annotations["re_segments"] = [{"type": "raw", "data": b"abc"}]
        packet.encoded_size = 17
        decoded = messages.decode_packet(messages.encode_packet(packet))
        assert decoded.payload == packet.payload
        assert decoded.flags == packet.flags
        assert decoded.annotations["re_segments"][0]["data"] == b"abc"
        assert decoded.encoded_size == 17

    def test_event_message_roundtrip(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 80, b"data")
        event = Event(mb_name="mb1", code=EventCode.REPROCESS, key=KEY, packet=packet, raised_at=1.5)
        message = messages.event_message(event)
        decoded = messages.decode_event(Message.decode(message.encode()))
        assert decoded.mb_name == "mb1"
        assert decoded.is_reprocess
        assert decoded.key == KEY
        assert decoded.packet.payload == b"data"
        assert decoded.raised_at == 1.5

    def test_introspection_event_without_packet(self):
        event = Event(mb_name="nat1", code="nat.mapping_created", key=KEY, values={"external_port": 10001})
        decoded = messages.decode_event(Message.decode(messages.event_message(event).encode()))
        assert decoded.packet is None
        assert decoded.values["external_port"] == 10001

    def test_reprocess_message_carries_packet(self):
        packet = tcp_packet("10.0.0.1", "192.0.2.1", 1, 80, b"data")
        event = Event(mb_name="mb1", code=EventCode.REPROCESS, key=KEY, packet=packet, shared=True)
        message = messages.reprocess_message("mb2", event)
        assert message.type == MessageType.REPROCESS_PACKET
        assert message.mb == "mb2"
        decoded = Message.decode(message.encode())
        assert decoded.body["shared"] is True
        assert messages.decode_packet(decoded.body["packet"]).payload == b"data"


class TestControlChannel:
    def _channel(self, latency=1e-3, bandwidth=1e6):
        sim = Simulator()
        channel = ControlChannel(sim, "chan", latency=latency, bandwidth=bandwidth)
        controller_inbox, mb_inbox = [], []
        channel.bind_controller(controller_inbox.append)
        channel.bind_middlebox(mb_inbox.append)
        return sim, channel, controller_inbox, mb_inbox

    def test_delivery_both_directions(self):
        sim, channel, controller_inbox, mb_inbox = self._channel()
        channel.send_to_middlebox(messages.get_config("mb1", "*"))
        channel.send_to_controller(Message(MessageType.ACK, mb="mb1"))
        sim.run()
        assert len(mb_inbox) == 1 and mb_inbox[0].type == MessageType.GET_CONFIG
        assert len(controller_inbox) == 1 and controller_inbox[0].type == MessageType.ACK

    def test_delivery_time_accounts_for_size(self):
        sim, channel, _, mb_inbox = self._channel(latency=0.0, bandwidth=1000.0)
        message = messages.get_config("mb1", "*")
        delivery = channel.send_to_middlebox(message)
        assert delivery == pytest.approx(message.wire_size / 1000.0)

    def test_messages_reencoded_by_default(self):
        sim, channel, _, mb_inbox = self._channel()
        original = messages.get_config("mb1", "*")
        channel.send_to_middlebox(original)
        sim.run()
        assert mb_inbox[0] is not original
        assert mb_inbox[0].xid == original.xid

    def test_counters(self):
        sim, channel, _, _ = self._channel()
        message = messages.get_config("mb1", "*")
        channel.send_to_middlebox(message)
        sim.run()
        assert channel.to_mb.messages == 1
        assert channel.to_mb.bytes == message.wire_size
        assert channel.total_messages == 1

    def test_in_order_delivery_per_direction(self):
        sim, channel, _, mb_inbox = self._channel(latency=0.0, bandwidth=100.0)
        first = messages.set_config("mb1", "K", list(range(50)))
        second = messages.get_config("mb1", "K")
        channel.send_to_middlebox(first)
        channel.send_to_middlebox(second)
        sim.run()
        assert [m.xid for m in mb_inbox] == [first.xid, second.xid]

    def test_unbound_channel_raises(self):
        sim = Simulator()
        channel = ControlChannel(sim, "chan")
        with pytest.raises(RuntimeError):
            channel.send_to_middlebox(messages.get_config("mb1", "*"))


class TestEventFilter:
    def test_reprocess_always_allowed(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        event = Event(mb_name="mb", code=EventCode.REPROCESS, key=KEY)
        assert filt.allows(event)

    def test_introspection_requires_subscription(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        event = Event(mb_name="mb", code="nat.mapping_created", key=KEY)
        assert not filt.allows(event)
        filt.enable("nat.mapping_created")
        assert filt.allows(event)

    def test_pattern_scoped_subscription(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        filt.enable("lb.flow_assigned", FlowPattern(nw_src="10.0.0.0/8"))
        inside = Event(mb_name="mb", code="lb.flow_assigned", key=KEY)
        outside = Event(mb_name="mb", code="lb.flow_assigned", key=FlowKey(6, "172.16.0.1", "192.0.2.1", 1, 2))
        assert filt.allows(inside)
        assert not filt.allows(outside)

    def test_expiring_subscription(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        filt.enable("monitor.asset_detected", until=10.0)
        event = Event(mb_name="mb", code="monitor.asset_detected", key=KEY)
        assert filt.allows(event, now=5.0)
        assert not filt.allows(event, now=11.0)

    def test_disable_removes_subscriptions(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        filt.enable("a")
        filt.enable("a", FlowPattern(tp_dst=80))
        assert filt.disable("a") == 2
        assert not filt.allows(Event(mb_name="mb", code="a", key=KEY))

    def test_event_without_key_matches_any_pattern_subscription(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        filt.enable("custom", FlowPattern(tp_dst=80))
        assert filt.allows(Event(mb_name="mb", code="custom", key=None))
