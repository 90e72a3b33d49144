"""Every middlebox's state payloads and typed transfers are bit-identical across the state declaration.

``tests/data/state_payloads.json`` was recorded while each middlebox turned
its native state into chunk payloads by hand — six ``serialize_*`` /
``deserialize_*`` hooks on ``Middlebox``, overridden eighteen times to call
eleven mirrored ``to_payload`` / ``from_payload`` pairs — before a middlebox
declared its Table 1 cells once and one dataclass codec in
:mod:`repro.core.chunks` sat under every get and put.  For each of the seven
shipped middlebox types, driven by a short seeded trace from
:mod:`repro.traffic`, it pins:

* **payloads** — for every populated taxonomy cell the sha256 of the
  serialised payload (``serialize_payload`` output, uncompressed and zlib) of
  every per-flow entry, keyed by flow token, and of each shared slot.  The
  bytes are read through the public export surface (``iter_perflow`` /
  ``get_shared``, unsealed with the type's key), so the recording does not
  depend on how the middlebox produces them;
* **transfers** — a ``moveInternal`` (plus ``cloneSupport`` / ``mergeInternal``
  where the type has shared state) between two instances through a real
  controller: chunks and bytes per operation, the simulator's executed-callback
  count, total channel bytes per direction, and a sha256 of the destination's
  re-serialised state (what the destination *decoded* and would export again).

Re-record it (only when a payload format is meant to change) with
``PYTHONPATH=src python tests/test_state_payload_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.core.crypto as crypto
from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.core.chunks import deserialize_payload, serialize_payload
from repro.core.state import StateRole
from repro.middleboxes import IDS, NAT, Firewall, LoadBalancer, PassiveMonitor, REDecoder, REEncoder
from repro.net import Simulator
from repro.traffic import (
    constant_rate_trace,
    enterprise_cloud_trace,
    redundancy_trace,
    replay_trace_through,
    scan_trace,
)

GOLDEN = Path(__file__).parent / "data" / "state_payloads.json"
ROLES = (StateRole.SUPPORTING, StateRole.REPORTING)


def _enterprise(seed: int, client_subnet: str = "10.1.1"):
    return enterprise_cloud_trace(
        http_flows=6, other_flows=3, duration=2.0, seed=seed, leave_open_fraction=0.4, client_subnet=client_subnet
    )


def _redundant(seed: int):
    return redundancy_trace(packets=12, payload_bytes=256, flows=3, unique_blocks=4, seed=seed)


def _ids(sim, name, seed):
    ids = IDS(sim, name)
    replay_trace_through(sim, _enterprise(seed).merged_with(scan_trace(targets=5, scanner=f"10.9.9.{seed}")), ids)
    return ids


def _monitor(sim, name, seed):
    monitor = PassiveMonitor(sim, name)
    replay_trace_through(sim, _enterprise(seed), monitor)
    return monitor


def _nat(sim, name, seed):
    nat = NAT(sim, name)
    replay_trace_through(sim, _enterprise(seed), nat)
    return nat


def _firewall(sim, name, seed):
    firewall = Firewall(sim, name, default_allow=True)
    replay_trace_through(sim, _enterprise(seed), firewall)
    return firewall


def _loadbalancer(sim, name, seed):
    balancer = LoadBalancer(sim, name, backends=["10.8.0.1", "10.8.0.2"])
    replay_trace_through(sim, constant_rate_trace(rate=200, duration=0.1, flows=6, server=balancer.vip, seed=seed), balancer)
    return balancer


def _encoder(sim, name, seed):
    encoder = REEncoder(sim, name, cache_capacity=4096)
    replay_trace_through(sim, _redundant(seed), encoder)
    encoder.set_config("NumCaches", [2])  # a second int-keyed cache and fingerprint table
    return encoder


def _decoder(sim, name, seed):
    encoder, decoder = REEncoder(sim, f"{name}-feed", cache_capacity=4096), REDecoder(sim, name, cache_capacity=4096)
    for record in _redundant(seed):
        decoder.process_packet(encoder.process_packet(record.to_packet()).packet)
    return decoder


#: Type name -> ``build(sim, name, seed)`` returning an instance populated by a seeded trace.
WORLDS = {
    "ids": _ids,
    "monitor": _monitor,
    "nat": _nat,
    "firewall": _firewall,
    "loadbalancer": _loadbalancer,
    "re-encoder": _encoder,
    "re-decoder": _decoder,
}
#: Types whose destination also saw traffic, so the merge has something to merge into.
BUSY_DESTINATIONS = ("ids", "monitor")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export(middlebox) -> dict:
    """``{"perflow/<role>": {token: [sha raw, sha zlib]}, "shared/<role>": [sha raw, sha zlib]}`` of populated cells."""
    key, cells = middlebox.codec.key, {}
    for role in ROLES:
        raw = {c.key.token(): _sha(crypto.unseal(key, c.blob)) for c in middlebox.iter_perflow(role, FlowPattern.wildcard())}
        packed = {
            c.key.token(): _sha(crypto.unseal(key, c.blob))
            for c in middlebox.iter_perflow(role, FlowPattern.wildcard(), compress=True)
        }
        if raw:
            cells[f"perflow/{role.value}"] = {token: [raw[token], packed[token]] for token in sorted(raw)}
        chunk = middlebox.get_shared(role)
        if chunk is not None:
            plain = crypto.unseal(key, chunk.blob)
            cells[f"shared/{role.value}"] = [_sha(plain), _sha(serialize_payload(deserialize_payload(plain), compress=True))]
    return cells


def payloads(mb_type: str) -> dict:
    return export(WORLDS[mb_type](Simulator(), "mb", 20))


def transfers(mb_type: str) -> dict:
    """Move (and clone / merge where the type has shared state) ``src`` -> ``dst`` through a controller."""
    sim = Simulator()
    src = WORLDS[mb_type](sim, "src", 20)
    dst = WORLDS[mb_type](sim, "dst", 21) if mb_type in BUSY_DESTINATIONS else type(src)(sim, "dst")
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05))
    northbound = NorthboundAPI(controller)
    channels = [controller.register(middlebox) for middlebox in (src, dst)]
    operations = {"move": lambda: northbound.move_internal("src", "dst", None)}
    if src.get_shared(StateRole.SUPPORTING) is not None:
        operations["clone"] = lambda: northbound.clone_support("src", "dst")
    if any(src.get_shared(role) is not None for role in ROLES):
        operations["merge"] = lambda: northbound.merge_internal("src", "dst")
    result = {}
    for name, start in operations.items():
        handle = start()
        sim.run_until(handle.finalized, limit=100)
        sim.run(until=sim.now + 0.2)
        result[name] = [handle.record.chunks_transferred, handle.record.bytes_transferred]
    result["executed_events"] = sim.executed_events
    result["wire_bytes"] = {
        direction: sum(getattr(channel, direction).bytes for channel in channels) for direction in ("to_mb", "to_controller")
    }
    result["dst_state"] = _sha(json.dumps(export(dst), sort_keys=True).encode())
    return result


def record() -> dict:
    return {mb_type: {"payloads": payloads(mb_type), "transfers": transfers(mb_type)} for mb_type in WORLDS}


@pytest.mark.parametrize("mb_type", sorted(WORLDS))
class TestStatePayloads:
    def test_every_cell_serialises_to_the_recorded_bytes(self, mb_type):
        golden = json.loads(GOLDEN.read_text())[mb_type]["payloads"]
        observed = payloads(mb_type)
        assert sorted(observed) == sorted(golden)
        for cell, pinned in golden.items():
            assert observed[cell] == pinned, f"{mb_type} {cell} diverged"

    def test_typed_transfers_match_the_recorded_run(self, mb_type):
        assert transfers(mb_type) == json.loads(GOLDEN.read_text())[mb_type]["transfers"]


def test_golden_populates_every_declared_kind_of_cell():
    golden = json.loads(GOLDEN.read_text())
    cells = {cell for entry in golden.values() for cell in entry["payloads"]}
    assert cells == {"perflow/supporting", "perflow/reporting", "shared/supporting", "shared/reporting"}
    assert all(entry["payloads"] for entry in golden.values())
    assert all(entry["transfers"]["move"][0] > 0 for name, entry in golden.items() if not name.startswith("re-"))
    assert {"clone", "merge"} <= set(golden["ids"]["transfers"]) and "merge" in golden["monitor"]["transfers"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
