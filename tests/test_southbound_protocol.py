"""The southbound protocol is written once — and survives malformed input.

* **Malformed requests are answered, never raised.**  For every request type:
  an empty body, each field in turn replaced by a value its converter rejects,
  and chunk dicts with a member missing — alone and inside a ``BATCH`` frame —
  reach the agent over a real channel.  Each gets exactly one ``ERROR`` (counted
  in ``AgentStats.errors_sent``) or, when every field is optional, its normal
  reply; nothing escapes ``sim.run()``.  Before the bodies had one parser an
  empty ``GET_PERFLOW`` escaped as ``KeyError('role')`` and a garbage chunk as
  ``ProtocolError``.
* **Malformed replies fail the waiter.**  A reply whose body does not parse
  fails the waiting future / operation with ``OperationError``; a malformed
  event is dropped.
* **The tables are complete.**  Every ``MessageType`` constant has exactly one
  constructor and one schema in ``messages.py``; every request type has exactly
  one handler in the agent's table, whose parameters are the schema's fields,
  and every field a handler is given is read: the wire carries only what a
  receiver reads.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.core import ControllerConfig, FlowKey, FlowPattern, MBController, messages
from repro.core.errors import OperationError, ProtocolError
from repro.core.events import Event, EventCode
from repro.core.messages import BATCHABLE_REQUESTS, SCHEMAS, Message, MessageType
from repro.core.southbound import SouthboundAgent
from repro.core.state import StateRole
from repro.federation.domain import FederatedDomain
from repro.middleboxes import NAT, DummyMiddlebox, PassiveMonitor, REEncoder
from repro.net import Simulator, tcp_packet

KEY = FlowKey(6, "10.1.1.1", "192.0.2.10", 1024, 80)
PATTERN = FlowPattern(nw_src="10.1.0.0/16")
T = MessageType


def sample_requests(source: DummyMiddlebox) -> dict:
    """One well-formed request of every type, built by the constructors."""
    chunk = next(source.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard()))
    event = Event("mb", EventCode.REPROCESS, key=KEY, packet=tcp_packet(KEY.nw_src, KEY.nw_dst, 1024, 80, b"x"))
    shared = PassiveMonitor(Simulator(), "m").get_shared(StateRole.REPORTING)
    requests = {
        T.GET_CONFIG: messages.get_config("mb", "*"),
        T.SET_CONFIG: messages.set_config("mb", "Dummy.Key", [1]),
        T.DEL_CONFIG: messages.del_config("mb", "Dummy.Key"),
        T.GET_PERFLOW: messages.get_perflow("mb", StateRole.SUPPORTING, PATTERN, transfer=True, compress=True),
        T.GET_PERFLOW_DELTA: messages.get_perflow_delta("mb", StateRole.SUPPORTING, PATTERN, final=True),
        T.PUT_PERFLOW: messages.put_perflow("mb", chunk, hold=True, round=(1, 0)),
        T.PUT_PERFLOW_BATCH: messages.put_perflow_batch("mb", [chunk], hold=True, round=(1, 0)),
        T.DEL_PERFLOW: messages.del_perflow("mb", StateRole.REPORTING, PATTERN),
        T.TRANSFER_HOLD: messages.transfer_hold("mb", [KEY]),
        T.TRANSFER_RELEASE: messages.transfer_release("mb", [KEY]),
        T.GET_SHARED: messages.get_shared("mb", StateRole.SUPPORTING, transfer=True),
        T.PUT_SHARED: messages.put_shared("mb", shared),
        T.GET_STATS: messages.get_stats("mb", PATTERN),
        T.ENABLE_EVENTS: messages.enable_events("mb", "dummy.code", PATTERN, until=2.0),
        T.DISABLE_EVENTS: messages.disable_events("mb", "dummy.code", PATTERN),
        T.TRANSFER_END: messages.transfer_end("mb", dirty_only=True),
        T.REPROCESS_PACKET: messages.reprocess_message("mb", event),
    }
    requests[T.BATCH] = messages.batch_message("mb", [requests[T.TRANSFER_HOLD], requests[T.TRANSFER_RELEASE]])
    return requests


REQUEST_TYPES = sorted(sample_requests(DummyMiddlebox(Simulator(), "probe", chunk_count=1)))


def as_received(message: Message) -> Message:
    """*message* as its receiver sees it: the body a plain parsed dict a test can take members out of.

    A constructor's own body holds chunks as pre-encoded wire text.
    """
    return Message.decode(message.encode())


def rejected_value(convert):
    """A JSON value the field converter refuses (ints pass ``7``, most others ``"bogus"``)."""
    for garbage in (7, "bogus"):
        try:
            convert(garbage)
        except (KeyError, TypeError, ValueError, AttributeError, ProtocolError):
            return garbage
    raise AssertionError(f"{convert} accepts anything")


class Wire:
    """A Dummy middlebox behind a real control channel, replies collected in arrival order."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.controller = MBController(self.sim, ControllerConfig(quiescence_timeout=0.1))
        self.middlebox = DummyMiddlebox(self.sim, "mb", chunk_count=3)
        self.channel = self.controller.register(self.middlebox)
        self.agent = self.controller._registration("mb").agent
        self.replies = []

    def serve(self, *requests: Message, framed: bool = False):
        for request in requests:  # numbered as the controller numbers what it sends
            request.xid = next(self.controller._xids)
            self.controller._reply_handlers[("mb", request.xid)] = (0, self.replies.append)
        if framed:
            self.channel.send_many_to_middlebox(list(requests))
        else:
            for request in requests:
                self.channel.send_to_middlebox(request)
        self.sim.run(until=self.sim.now + 1.0)  # must not raise
        return self.replies

    def final_replies(self, *requests: Message, framed: bool = False):
        """The one terminal reply per request (chunk streams skipped), in arrival order."""
        replies = self.serve(*requests, framed=framed)
        return [reply for reply in replies if reply.type not in (T.STATE_CHUNK, T.SHARED_STATE)]


class TestMalformedRequestsAreAnswered:
    @pytest.mark.parametrize("type_", REQUEST_TYPES)
    def test_an_empty_body_gets_one_reply(self, type_):
        wire = Wire()
        request = Message(type_, mb="mb", body={})
        if type_ == T.BATCH:  # pure framing: an empty frame list is answered by nobody
            assert wire.final_replies(request) == [] and wire.agent.stats.errors_sent == 0
            return
        (reply,) = wire.final_replies(request)
        assert reply.reply_to == request.xid
        needs_a_field = any(default is messages.REQUIRED for _, _, default in SCHEMAS[type_])
        assert (reply.type == T.ERROR) == needs_a_field
        assert wire.agent.stats.errors_sent == int(needs_a_field)

    @pytest.mark.parametrize(
        "type_, field", [(type_, name) for type_ in REQUEST_TYPES for name, _, _ in SCHEMAS[type_]]
    )
    def test_an_ill_typed_field_gets_one_error(self, type_, field):
        wire = Wire()
        request = sample_requests(wire.middlebox)[type_]
        convert = next(convert for name, convert, _ in SCHEMAS[type_] if name == field)
        request.body[field] = rejected_value(convert)
        (reply,) = wire.final_replies(request)
        assert (reply.type, reply.reply_to) == (T.ERROR, request.xid)
        assert field in messages.parse(reply)["reason"]
        assert wire.agent.stats.errors_sent == 1

    @pytest.mark.parametrize("type_", [T.PUT_PERFLOW, T.PUT_PERFLOW_BATCH, T.PUT_SHARED])
    def test_a_chunk_with_a_member_missing_gets_one_error(self, type_):
        wire = Wire()
        request = as_received(sample_requests(wire.middlebox)[type_])
        chunk = request.body["chunks"][0] if type_ == T.PUT_PERFLOW_BATCH else request.body["chunk"]
        del chunk["key" if "key" in chunk else "role"]
        (reply,) = wire.final_replies(request)
        assert reply.type == T.ERROR and wire.agent.stats.chunks_received == 0

    @pytest.mark.parametrize(
        "member, value",
        [("tp_src", 80.9), ("tp_dst", True), ("nw_proto", "6"), ("tp_src", None), ("nw_src", 167837953), ("nw_dst", ["192.0.2.10"])],
    )
    @pytest.mark.parametrize("type_", [T.PUT_PERFLOW, T.PUT_PERFLOW_BATCH, T.TRANSFER_HOLD, T.TRANSFER_RELEASE, T.REPROCESS_PACKET])
    def test_an_ill_typed_flow_key_is_refused_not_repaired(self, type_, member, value):
        """``int()`` / ``str()`` coercion used to turn ``tp_src: 80.9, tp_dst: true`` into ports 80 and 1:
        the state of one flow installed under the key of another.  Now the request gets its ERROR."""
        wire = Wire()
        request = as_received(sample_requests(wire.middlebox)[type_])
        body = request.body
        holder = {
            T.PUT_PERFLOW: lambda: body["chunk"]["key"],
            T.PUT_PERFLOW_BATCH: lambda: body["chunks"][0]["key"],
            T.REPROCESS_PACKET: lambda: body["packet"],  # a replay's flow is its packet's own five-tuple
        }.get(type_, lambda: body["keys"][0])()
        holder[member] = value
        flows_before = len(wire.middlebox.support_store)
        (reply,) = wire.final_replies(request)
        assert (reply.type, reply.reply_to) == (T.ERROR, request.xid)
        refusal = "malformed packet" if type_ == T.REPROCESS_PACKET else "ill-typed flow key"
        assert refusal in messages.parse(reply)["reason"]
        assert wire.agent.stats.chunks_received == 0 and len(wire.middlebox.support_store) == flows_before
        assert not wire.middlebox._held_packets and wire.middlebox.counters.packets_received == 0

    #: A packet ``encode_packet`` writes, and members a coercing decoder would turn into something else.
    PACKET = messages.encode_packet(tcp_packet(KEY.nw_src, KEY.nw_dst, 1024, 80, b"x", flags={"SYN"}, seq=7, created_at=1.5))
    ILL_TYPED = [
        ("flags", "SYN"), ("tp_dst", 80.9), ("nw_proto", True), ("tp_src", "1234"), ("seq", "7"), ("created_at", "1.5"), ("nw_src", 7)
    ]  # fmt: skip

    @pytest.mark.parametrize("member, value", ILL_TYPED)
    @pytest.mark.parametrize("type_", [T.REPROCESS_PACKET, T.EVENT])
    def test_an_ill_typed_packet_member_is_refused_not_coerced(self, type_, member, value):
        """``"flags": "SYN"`` is not ``{'N', 'S', 'Y'}``, ``80.9`` not port 80, ``true`` not protocol 1,
        a number in a string not a number, and ``7`` not an address."""
        body = {"code": EventCode.REPROCESS, "packet": self.PACKET}
        packet = messages.parse(Message(type_, mb="mb", body=body))["packet"]
        assert (packet.flow_key(), packet.flags, packet.seq, packet.created_at) == (KEY, {"SYN"}, 7, 1.5)
        with pytest.raises(ProtocolError, match=repr(member)):
            messages.parse(Message(type_, mb="mb", body=dict(body, packet=dict(self.PACKET, **{member: value}))))

    def test_role_bogus_and_keys_seven(self):
        wire = Wire()
        bogus_role = Message(T.GET_PERFLOW, mb="mb", body={"role": "bogus"})
        keys_seven = Message(T.TRANSFER_RELEASE, mb="mb", body={"keys": 7})
        null_role = Message(T.DEL_PERFLOW, mb="mb", body={"role": None})  # null is absent, and role is required
        replies = wire.final_replies(bogus_role, keys_seven, null_role)
        assert sorted((reply.reply_to, reply.type) for reply in replies) == [
            (request.xid, T.ERROR) for request in (bogus_role, keys_seven, null_role)
        ]

    def test_inside_a_batch_the_well_formed_requests_are_still_served_in_order(self):
        wire = Wire()
        samples = sample_requests(wire.middlebox)
        empty = Message(T.PUT_PERFLOW, mb="mb", body={})
        ill_typed = Message(T.DEL_PERFLOW, mb="mb", body={"role": "bogus"})
        reporting = next(wire.middlebox.iter_perflow(StateRole.REPORTING, FlowPattern.wildcard()))
        keyless = as_received(messages.put_perflow("mb", reporting))
        del keyless.body["chunk"]["key"]
        frame = [samples[T.TRANSFER_HOLD], empty, samples[T.PUT_PERFLOW], ill_typed, keyless, samples[T.TRANSFER_RELEASE]]
        replies = wire.final_replies(*frame, framed=True)
        assert wire.channel.to_mb.batches == 1
        assert sorted((reply.reply_to, reply.type) for reply in replies) == sorted(
            (request.xid, T.ERROR if request in (empty, ill_typed, keyless) else T.ACK) for request in frame
        )
        # Served in frame order: the hold landed before the put, the release after it.
        acked = [reply.reply_to for reply in replies if reply.type == T.ACK]
        assert acked.index(samples[T.TRANSFER_HOLD].xid) < acked.index(samples[T.TRANSFER_RELEASE].xid)
        assert wire.agent.stats.errors_sent == 3 and wire.agent.stats.chunks_received == 1
        assert wire.agent.stats.requests_handled == len(frame)

    def test_a_frame_that_is_not_a_message_refuses_the_whole_batch(self):
        wire = Wire()
        request = Message(T.BATCH, mb="mb", body={"frames": [{"body": {}}]})
        (reply,) = wire.final_replies(request)
        assert (reply.type, reply.reply_to) == (T.ERROR, request.xid)


class TestUnusableConfigValuesAreRefused:
    """A config hook interprets operator-supplied values; whatever it raises is an ERROR reply.

    ``int(None)`` / ``int([1])`` in ``REEncoder._sync_cache_count`` raise
    TypeError and ``int("http")`` in ``NAT._load_static_mappings`` ValueError
    — neither is an ``OpenMBError``; the parent answered all of them with ERROR.
    """

    @pytest.mark.parametrize(
        "build, key, values, refused",
        [
            (REEncoder, "NumCaches", [None], True),
            (REEncoder, "NumCaches", [[1]], True),
            (REEncoder, "NumCaches", ["two"], True),
            (NAT, "NAT.StaticMappings", ["10.0.0.1:http=192.0.2.1:80"], True),
            (NAT, "NAT.StaticMappings", [None], False),  # no ``=``: the entry is skipped
            (NAT, "NAT.StaticMappings", [[1]], False),
        ],
    )
    def test_write_config_fails_the_future_instead_of_escaping(self, sim, controller, build, key, values, refused):
        controller.register(build(sim, "mb"))
        agent = controller._registration("mb").agent
        future = controller.write_config("mb", key, values)
        sim.run(until=1.0)  # must not raise
        assert future.done and (future.exception is not None) == refused
        assert isinstance(future.exception, OperationError) == refused
        assert agent.stats.errors_sent == int(refused)

    def test_reading_and_deleting_an_unknown_key_are_refused(self, sim, controller):
        controller.register(REEncoder(sim, "mb"))
        replies = []
        controller.send("mb", messages.del_config("mb", "No.Such.Key"), on_reply=replies.append)
        controller.send("mb", messages.get_config("mb", "No.Such.Key"), on_reply=replies.append)
        sim.run(until=1.0)
        assert [reply.type for reply in replies] == [T.ERROR, T.ERROR]


class GarbageMiddlebox:
    """Stands in for an agent: answers every request with one scripted reply."""

    def __init__(self, sim, controller, name, reply_type, body) -> None:
        self.channel = controller.register(DummyMiddlebox(sim, name, chunk_count=2))
        self.channel.bind_middlebox(
            lambda request: self.channel.send_to_controller(Message(reply_type, reply_to=request.xid, mb=name, body=body))
        )


class TestMalformedRepliesFailTheWaiter:
    @pytest.mark.parametrize(
        "reply_type, body",
        [(T.CONFIG_VALUE, {"values": 7}), (T.ERROR, {"reason": 7}), (T.CONFIG_VALUE, {"values": [1]})],
    )
    def test_a_simple_request_future_fails_with_operation_error(self, sim, controller, reply_type, body):
        GarbageMiddlebox(sim, controller, "mb", reply_type, body)
        future = controller.read_config("mb")
        with pytest.raises(OperationError, match="malformed"):
            sim.run_until(future, limit=10)

    def test_a_reply_whose_body_is_not_an_object_never_leaves_the_wire_decoder(self, sim, controller):
        """The envelope is the decoder's: ``body: null`` is refused there, before any waiter sees it.

        This is deliberate: the channel re-decodes on the sender's side, so an
        ill-typed envelope is a sender-side ``ProtocolError`` that ends the
        run, not one failed waiter as an ill-typed body field is.
        """
        GarbageMiddlebox(sim, controller, "mb", T.CONFIG_VALUE, None)
        controller.read_config("mb")
        with pytest.raises(ProtocolError, match="'body' must be dict"):
            sim.run(until=1.0)

    def test_a_move_fails_with_operation_error(self, sim, controller):
        GarbageMiddlebox(sim, controller, "src", T.STATE_CHUNK, {"chunk": {"role": "supporting"}})
        controller.register(DummyMiddlebox(sim, "dst"))
        handle = controller.move_internal("src", "dst", FlowPattern.wildcard())
        with pytest.raises(OperationError, match="malformed state_chunk reply"):
            sim.run_until(handle.completed, limit=10)
        sim.run(until=sim.now + 1.0)
        assert controller.stats.operations_failed == 1 and not controller.active_operations()

    @pytest.mark.parametrize("body", [{"key": 7}, {"key": KEY.as_dict(), "packet": {"nw_src": "10.0.0.1"}}])
    def test_a_malformed_event_is_dropped(self, sim, controller, body):
        channel = controller.register(DummyMiddlebox(sim, "mb"))
        channel.send_to_controller(Message(T.EVENT, mb="mb", body={"code": EventCode.REPROCESS, **body}))
        sim.run(until=1.0)  # must not raise
        assert controller.stats.messages_received == 1 and controller.stats.events_received == 0


    def test_a_protocol_error_raised_by_a_handler_itself_is_neither_swallowed_nor_redelivered(self, sim, controller):
        """Only body parsing is guarded: handlers and subscribers run outside any ``try``."""
        middlebox = DummyMiddlebox(sim, "mb")
        controller.register(middlebox)
        calls = []

        def handler(arrival) -> None:
            calls.append(type(arrival).__name__)
            raise ProtocolError("raised by the handler, not by a body")

        controller.send("mb", messages.get_config("mb", "*"), on_reply=handler)
        with pytest.raises(ProtocolError, match="raised by the handler"):
            sim.run(until=1.0)
        controller.subscribe_events(handler)
        middlebox.enable_events("dummy.code")
        assert middlebox.raise_event("dummy.code")
        with pytest.raises(ProtocolError, match="raised by the handler"):
            sim.run(until=2.0)
        assert calls == ["Message", "Event"]


MESSAGES_SOURCE = Path(inspect.getsourcefile(messages))
ALL_TYPES = {value for name, value in vars(MessageType).items() if name.isupper()}


def _dict_literal_keys(tree: ast.AST, target: str) -> list:
    """Source text of every key of the dict literal assigned to *target*."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(name, ast.Name) and name.id == target for name in names):
                return [ast.unparse(key) for key in node.value.keys]
    raise AssertionError(f"no dict literal named {target}")


class TestTablesAreComplete:
    def test_every_message_type_has_exactly_one_schema(self):
        assert set(SCHEMAS) == ALL_TYPES
        keys = _dict_literal_keys(ast.parse(MESSAGES_SOURCE.read_text()), "SCHEMAS")
        assert len(keys) == len(set(keys)) == len(ALL_TYPES)

    def test_every_message_type_has_exactly_one_constructor(self):
        builders = {}
        for function in ast.parse(MESSAGES_SOURCE.read_text()).body:
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "Message" and node.args:
                    tag = node.args[0]
                    assert isinstance(tag, ast.Attribute) and tag.value.id == "MessageType", ast.unparse(node)
                    builders.setdefault(getattr(MessageType, tag.attr), []).append(function.name)
        assert {type_: len(names) for type_, names in builders.items()} == dict.fromkeys(ALL_TYPES, 1), builders

    def test_every_request_type_has_exactly_one_handler_taking_the_schema_fields(self):
        table = SouthboundAgent._HANDLERS
        assert sorted(table) == REQUEST_TYPES and BATCHABLE_REQUESTS <= set(table)
        keys = _dict_literal_keys(ast.parse(Path(inspect.getsourcefile(SouthboundAgent)).read_text()), "_HANDLERS")
        assert len(keys) == len(set(keys)) == len(table)
        for type_, handler in table.items():
            parameters = list(inspect.signature(handler).parameters)
            assert parameters == ["self", "request"] + [name for name, _, _ in SCHEMAS[type_]], type_

    def test_every_field_a_handler_is_given_is_read(self):
        """A field parsed for a handler that never reads it is a field no receiver needs: it comes off the wire."""
        handlers = [(SCHEMAS[type_], handler) for type_, handler in SouthboundAgent._HANDLERS.items()]
        handlers += [
            (SCHEMAS[T.FED_GOSSIP], FederatedDomain._absorb_digest),
            (SCHEMAS[T.FED_MOVE_REQUEST], FederatedDomain._on_move_request),
        ]
        unread = []
        for schema, handler in handlers:
            function = ast.parse(textwrap.dedent(inspect.getsource(handler))).body[0]
            loads = {node.id for node in ast.walk(function) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            given = [arg.arg for arg in function.args.args + function.args.kwonlyargs if arg.arg in {name for name, _, _ in schema}]
            given += [function.args.kwarg.arg] if function.args.kwarg else []  # the schema fields not named one by one
            unread += [f"{handler.__qualname__}: {name}" for name in given if name not in loads]
        assert unread == []

    def test_only_requests_reach_a_handler(self):
        wire = Wire()
        for type_ in sorted(ALL_TYPES - set(REQUEST_TYPES) - {T.CHAN_ACK}):  # the channel consumes its own acks
            request = Message(type_, mb="mb")
            replies = [reply.type for reply in wire.final_replies(request) if reply.reply_to == request.xid]
            assert replies == [T.ERROR], type_
