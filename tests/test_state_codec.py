"""One state declaration per middlebox, one payload codec under every get and put.

* every declared Table 1 cell of every shipped middlebox round-trips through
  :func:`repro.core.chunks.payload_codec` (state produced by the traces of
  ``test_state_payload_golden``) — the one test the per-class
  ``to_payload`` / ``from_payload`` round-trips folded into;
* a declaration is validated against the taxonomy when the class is created;
* decoding is strict, and the strictness is reachable from the wire: a
  correctly *sealed* chunk whose payload has the wrong shape — a missing field,
  an ill-typed one, a list for a dict, an unknown extra field (rejected: the
  payload must carry exactly the encoder's fields) — is answered with ``ERROR``
  by the southbound agent for per-flow puts, batch puts and shared puts; nothing
  escapes ``run()`` and the destination's store or slot is untouched.
"""

import dataclasses
import tracemalloc
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_state_payload_golden import WORLDS, export

import repro.core.crypto as crypto
from repro.core import ControllerConfig, FlowKey, FlowPattern, MBController, NorthboundAPI, messages
from repro.core.chunks import deserialize_payload, payload_codec, serialize_payload
from repro.core.errors import OperationError, StateError
from repro.core.messages import MessageType
from repro.core.state import TAXONOMY, PerFlowStateStore, StateChunk, StateRole, StateScope
from repro.middleboxes import (
    IDS,
    NAT,
    Connection,
    DecoderCacheState,
    DummyMiddlebox,
    EncoderCacheState,
    Firewall,
    FlowRecord,
    LoadBalancer,
    Middlebox,
    PacketCache,
    PassiveMonitor,
    REDecoder,
    REEncoder,
)
from repro.middleboxes.base import _CELL_ATTRS
from repro.middleboxes.re import MAX_CACHE_CAPACITY
from repro.net import Simulator

KEY = FlowKey(6, "10.0.0.1", "192.0.2.10", 12345, 80)
SHIPPED = {cls.MB_TYPE: cls for cls in (IDS, PassiveMonitor, NAT, Firewall, LoadBalancer, REEncoder, REDecoder)}
CELLS = [(mb_type, cell) for mb_type in WORLDS for cell in SHIPPED[mb_type].STATE]


def _cell_id(value):
    return "/".join(part.value for part in value) if isinstance(value, tuple) else None


def _first(middlebox, cell):
    """``(flow key or None, payload)`` of the cell's first entry, read through the export surface."""
    role, scope = cell
    if scope is StateScope.SHARED:
        chunk = middlebox.get_shared(role)
    else:
        chunk = next(middlebox.iter_perflow(role, FlowPattern.wildcard()))
    return chunk.key, middlebox.codec.unseal_perflow(chunk)


# -- the round-trip -------------------------------------------------------------------------------


@pytest.mark.parametrize("mb_type,cell", CELLS, ids=_cell_id)
def test_every_declared_cell_round_trips(mb_type, cell):
    middlebox = WORLDS[mb_type](Simulator(), "mb", 20)
    native = middlebox.STATE[cell]
    held, encode, decode = middlebox._cell(*cell)
    objects = [held.value] if cell[1] is StateScope.SHARED else [obj for _, obj in held.items()]
    assert objects
    for obj in objects:
        for compress in (False, True):
            restored = decode(deserialize_payload(serialize_payload(encode(obj), compress=compress)))
            assert type(restored) is native and restored is not obj
            assert encode(restored) == encode(obj)
            if native not in (EncoderCacheState, DecoderCacheState):  # a PacketCache compares by identity
                assert restored == obj
    if native is DecoderCacheState:
        used = obj.cache.used_bytes
        assert used and restored.cache.read(0, used) == obj.cache.read(0, used)
    if native is EncoderCacheState:
        assert set(restored.caches) == {1, 2} and restored.fingerprints == obj.fingerprints  # int keys restored
    if native is Connection:
        assert any(connection.http for connection in objects)  # nested dataclasses were exercised


def test_an_undeclared_cell_is_passed_through():
    dummy = DummyMiddlebox(Simulator(), "dummy", chunk_count=1)
    _, encode, decode = dummy._cell(StateRole.SUPPORTING, StateScope.PER_FLOW)
    obj = next(value for _, value in dummy.support_store.items())
    assert encode(obj) is obj and decode(obj) is obj


def test_stores_and_slots_are_read_at_call_time():
    """``benchmarks/perf`` assigns fresh indexed stores after construction; they must be the ones served."""
    sim = Simulator()
    src, dst = DummyMiddlebox(sim, "src", chunk_count=3), DummyMiddlebox(sim, "dst")
    for middlebox in (src, dst):
        middlebox.support_store = PerFlowStateStore(middlebox.support_store.granularity, indexed=True)
    src.support_store.put(KEY, {"index": 0})
    chunks = list(src.iter_perflow(StateRole.SUPPORTING, FlowPattern.wildcard()))
    assert [chunk.key for chunk in chunks] == [KEY.bidirectional()]
    dst.put_perflow(chunks[0])
    assert dst.support_store.get(KEY) == {"index": 0} and dst.perflow_count(StateRole.SUPPORTING) == 1
    assert src.state_stats(FlowPattern.wildcard())["perflow_supporting"] == 1


# -- declarations ------------------------------------------------------------------------------------


def test_the_cell_table_covers_exactly_the_transferable_taxonomy_cells():
    assert set(_CELL_ATTRS) == {cell for cell, entry in TAXONOMY.items() if entry.movable}


@pytest.mark.parametrize(
    "cell,native",
    [
        ((StateRole.CONFIGURING, StateScope.SHARED), FlowRecord),  # written by the controller, never declared
        ((StateRole.CONFIGURING, StateScope.PER_FLOW), FlowRecord),  # no such cell in Table 1
        ((StateRole.SUPPORTING, StateScope.PER_FLOW), dict),  # neither a dataclass nor an explicit pair
        ((StateRole.SUPPORTING, StateScope.SHARED), dataclasses.make_dataclass("Untyped", [("seen", Set[str])])),
    ],
)
def test_a_bad_declaration_fails_at_class_creation(cell, native):
    with pytest.raises(StateError):
        type("Broken", (Middlebox,), {"STATE": {cell: native}})


def test_a_subclass_inherits_its_parents_declaration():
    class Tuned(PassiveMonitor):
        pass

    assert Tuned._cells.keys() == PassiveMonitor._cells.keys() and Tuned.STATE is PassiveMonitor.STATE


# -- the primitive coercions ---------------------------------------------------------------------------


@dataclasses.dataclass
class Leaves:
    count: int
    ratio: float
    flag: bool
    label: str
    note: Optional[str]
    series: List[int]
    table: Dict[int, float]


ENCODE_LEAVES, DECODE_LEAVES = payload_codec(Leaves)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALID = {"count": 1, "ratio": 0.5, "flag": True, "label": "x", "note": None, "series": [1], "table": {"3": 1.5}}
#: field -> (the exact types the decoder accepts, the type it hands back)
ACCEPTS = {"count": ((int,), int), "ratio": ((int, float), float), "flag": ((bool,), bool), "label": ((str,), str)}


@given(
    st.builds(
        Leaves,
        count=st.integers(),
        ratio=FINITE,
        flag=st.booleans(),
        label=st.text(),
        note=st.none() | st.text(),
        series=st.lists(st.integers()),
        table=st.dictionaries(st.integers(), FINITE),
    )
)
def test_well_typed_leaves_round_trip_exactly(leaves):
    assert DECODE_LEAVES(deserialize_payload(serialize_payload(ENCODE_LEAVES(leaves)))) == leaves


def float_equals(value: int) -> bool:
    try:
        return float(value) == value
    except OverflowError:
        return False


@given(st.sampled_from(sorted(ACCEPTS)), st.integers() | FINITE | st.booleans() | st.text() | st.none())
@example("ratio", 2**53)  # the last integer before the gaps: a float equals it
@example("ratio", 2**53 + 1)  # float() rounds it to 2**53: a different number, so refused
@example("ratio", 10**400)  # float() raises OverflowError: refused as a StateError, like anything else
def test_a_leaf_accepts_its_own_type_and_nothing_else(field, value):
    """The one coercion is an int -> the float that equals it; a bool is never a number,
    and nothing is parsed out of a string."""
    accepted, returned = ACCEPTS[field]
    if type(value) in accepted and (returned is not float or type(value) is float or float_equals(value)):
        restored = getattr(DECODE_LEAVES({**VALID, field: value}), field)
        assert restored == value and type(restored) is returned
    else:
        with pytest.raises(StateError, match=f"Leaves.{field}"):
            DECODE_LEAVES({**VALID, field: value})


@pytest.mark.parametrize("ratio", [2**53 + 1, 10**400])
def test_an_integer_no_float_equals_is_refused_on_the_way_in_from_the_wire(ratio):
    """json reads both as ints; ``float()`` rounds the first and raises OverflowError on the second."""
    payload = deserialize_payload(serialize_payload({**VALID, "ratio": ratio}))
    with pytest.raises(StateError, match="Leaves.ratio: expected float, got an integer no float equals"):
        DECODE_LEAVES(payload)


@pytest.mark.parametrize(
    "native,payload,where",
    [
        (FlowRecord, {"packets": "many"}, "FlowRecord.packets"),
        (FlowRecord, {"packets": True}, "FlowRecord.packets"),
        (FlowRecord, {"key": "6|10.0.0.1|192.0.2.10|12345|80"}, "FlowRecord.key"),
        (FlowRecord, {"service": 80}, "FlowRecord.service"),
        (Connection, {"http": [{"method": "GET"}]}, "Connection.http"),
        (Connection, {"http": {"0": {}}}, "Connection.http"),
        (Leaves, {"table": {"three": 1.5}}, "Leaves.table"),
        (Leaves, {"table": [[3, 1.5]]}, "Leaves.table"),
        (Leaves, {"series": [1, "2"]}, "Leaves.series"),
    ],
)
def test_an_ill_typed_field_is_named_in_the_error(native, payload, where):
    encode, decode = payload_codec(native)
    valid = VALID if native is Leaves else encode(native(key=KEY))
    assert decode(valid) is not None
    with pytest.raises(StateError, match=where):
        decode({**valid, **payload})


@pytest.mark.parametrize(
    "change",
    [
        {"capacity": 0},
        {"capacity": "64"},
        {"current_pos": 65},
        {"current_pos": 3},  # content does not end where the write position says
        {"max_reached": 1},
        {"buffer": "bytes"},
    ],
)
def test_a_packet_cache_payload_must_describe_a_possible_cache(change):
    encode, decode = payload_codec(PacketCache)
    cache = PacketCache(64)
    cache.insert(b"content")
    assert decode(encode(cache)).read(0, 7) == b"content"
    with pytest.raises(StateError):
        decode({**encode(cache), **change})
    with pytest.raises(StateError):
        decode({name: value for name, value in encode(cache).items() if name not in change})


@pytest.mark.parametrize(
    "change",
    [
        {"capacity": 10**30},  # bytearray() raised OverflowError
        {"capacity": 2**62},  # bytearray() raised MemoryError
        {"capacity": 200_000_000, "max_reached": True},  # 200 MB allocated from a ~70-byte payload, then refused
        {"capacity": MAX_CACHE_CAPACITY + 1},
        {"capacity": True},
        {"capacity": 2.0},
    ],
)
def test_a_packet_cache_payload_is_refused_before_its_capacity_is_allocated(change):
    encode, decode = payload_codec(DecoderCacheState)
    payload = encode(DecoderCacheState(cache=PacketCache(64)))
    payload["cache"] = {**payload["cache"], **change}
    tracemalloc.start()
    try:
        with pytest.raises(StateError):
            decode(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("data", [b"R{not json", b"Znot zlib", b'R{"__flowkey__":{}}', b'R{"__bytes__":"abc"}', b"R\xff"])
def test_bytes_that_are_not_a_payload_raise_state_error(data):
    with pytest.raises(StateError):
        deserialize_payload(data)


# -- a well-sealed chunk with an ill-shaped payload, through the agent --------------------------------------


def _without_first(payload):
    return dict(list(payload.items())[1:])


def _first_ill_typed(payload):
    name, value = next(iter(payload.items()))
    return {**payload, name: 7 if isinstance(value, str) else "many"}


MUTATIONS = {
    "missing-field": _without_first,
    "wrong-type": _first_ill_typed,
    "list-for-dict": lambda payload: [payload],
    "unknown-extra-field": lambda payload: {**payload, "surprise": 1},
}
PUTS = {
    "put": lambda chunk: messages.put_perflow("target", chunk),
    "batch": lambda chunk: messages.put_perflow_batch("target", [chunk]),
    "shared": lambda chunk: messages.put_shared("target", chunk),
}
PROBES = [
    (mb_type, cell, kind)
    for mb_type, cell in CELLS
    for kind in (("shared",) if cell[1] is StateScope.SHARED else ("put", "batch"))
]


def _send(sim, controller, message):
    replies = []
    controller.send("target", message, on_reply=replies.append)
    sim.run()  # whatever the payload, nothing may escape the run
    return [reply.type for reply in replies]


def _fingerprint(middlebox):
    slots = [slot and (id(slot.value), slot.merge_count) for slot in (middlebox.shared_support, middlebox.shared_report)]
    stores = [(len(store), store.install_round_count) for store in (middlebox.support_store, middlebox.report_store)]
    return slots, stores, export(middlebox)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("mb_type,cell,kind", PROBES, ids=_cell_id)
def test_a_malformed_payload_is_answered_with_error(mb_type, cell, kind, mutation):
    sim = Simulator()
    donor = WORLDS[mb_type](sim, "donor", 20)
    target = type(donor)(sim, "target")
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
    controller.register(target)
    key, payload = _first(donor, cell)
    before = _fingerprint(target)
    chunk = target.codec.seal_perflow(key, MUTATIONS[mutation](payload), cell[0])
    assert _send(sim, controller, PUTS[kind](chunk)) == [MessageType.ERROR]
    assert _fingerprint(target) == before
    # The probe is a real one: the same chunk with its payload left alone installs.
    assert _send(sim, controller, PUTS[kind](target.codec.seal_perflow(key, payload, cell[0]))) == [MessageType.ACK]
    assert _fingerprint(target) != before


@pytest.mark.parametrize("data", [b"R{not json", b"Znot zlib", b'R{"__flowkey__":{}}'])
def test_sealed_garbage_is_answered_with_error_even_by_an_identity_cell(data):
    sim = Simulator()
    target = DummyMiddlebox(sim, "target")
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
    controller.register(target)
    chunk = StateChunk(key=KEY, role=StateRole.SUPPORTING, blob=crypto.seal(target.codec.key, data))
    assert _send(sim, controller, messages.put_perflow("target", chunk)) == [MessageType.ERROR]
    assert len(target.support_store) == 0


def test_the_issue_reproduction_ids_put_without_its_key_field():
    sim = Simulator()
    target = IDS(sim, "target")
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
    controller.register(target)
    chunk = target.codec.seal_perflow(KEY, {"state": "S0"}, StateRole.SUPPORTING)
    assert _send(sim, controller, messages.put_perflow("target", chunk)) == [MessageType.ERROR]
    assert len(target.support_store) == 0


def test_a_move_whose_destination_refuses_a_payload_fails_like_any_refusal():
    sim = Simulator()
    src, dst = WORLDS["monitor"](sim, "src", 20), PassiveMonitor(sim, "dst")
    next(record for _, record in src.report_store.items()).packets = "many"  # encoded as is, refused on decode
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
    controller.register(src)
    controller.register(dst)
    handle = NorthboundAPI(controller).move_internal("src", "dst", None)
    with pytest.raises(OperationError, match="FlowRecord.packets"):
        sim.run_until(handle.completed, limit=100)
    sim.run()
