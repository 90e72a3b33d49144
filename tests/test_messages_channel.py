"""Unit tests for the southbound wire protocol and control channels."""

import pytest

from repro.core import messages
from repro.core.channel import ControlChannel
from repro.core.errors import ProtocolError
from repro.core.events import Event, EventCode
from repro.core.flowspace import FlowKey, FlowPattern
from repro.core.messages import Message, MessageType
from repro.core.state import StateChunk, StateRole
from repro.net.packet import tcp_packet
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

    def test_xids_are_unique(self):
        a = messages.get_config("mb1", "*")
        b = messages.get_config("mb1", "*")
        assert a.xid != b.xid


class TestChunkCodecs:
    def test_perflow_chunk_roundtrip(self):
        chunk = StateChunk(key=KEY, role=StateRole.SUPPORTING, blob=b"\x00\x01binary", metadata={"n": 1})
        decoded = messages.decode_chunk(messages.encode_chunk(chunk))
        assert decoded.key == KEY
        assert decoded.role is StateRole.SUPPORTING
        assert decoded.blob == chunk.blob
        assert decoded.metadata == {"n": 1}

    def test_shared_chunk_roundtrip(self):
        """A shared chunk is the keyless case: no ``key`` on the wire, none after decoding."""
        chunk = StateChunk(key=None, role=StateRole.REPORTING, blob=b"shared-bytes")
        wire = messages.encode_chunk(chunk)
        assert sorted(wire) == ["blob", "metadata", "role"]
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
        assert filt.subscription_count == 0

    def test_disable_all(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        filt.enable("a")
        filt.enable("b")
        filt.disable_all()
        assert filt.subscription_count == 0

    def test_event_without_key_matches_any_pattern_subscription(self):
        from repro.core.events import EventFilter

        filt = EventFilter()
        filt.enable("custom", FlowPattern(tp_dst=80))
        assert filt.allows(Event(mb_name="mb", code="custom", key=None))
