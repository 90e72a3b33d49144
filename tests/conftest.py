"""Shared fixtures for the OpenMB reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import ControllerConfig, FlowKey, MBController, NorthboundAPI
from repro.middleboxes import IDS, DummyMiddlebox, PassiveMonitor
from repro.net import Simulator, tcp_packet


#: The deeper search the CI chaos job asks for with ``--hypothesis-profile=ci``;
#: tests that pin their own ``max_examples`` keep it.
settings.register_profile("ci", max_examples=1000, stateful_step_count=80, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def flow_key() -> FlowKey:
    return FlowKey(6, "10.0.0.1", "192.0.2.10", 12345, 80)


@pytest.fixture
def controller(sim: Simulator) -> MBController:
    """An MB controller with a short quiescence timeout so tests finish quickly."""
    return MBController(sim, ControllerConfig(quiescence_timeout=0.2))


@pytest.fixture
def northbound(controller: MBController) -> NorthboundAPI:
    return NorthboundAPI(controller)


@pytest.fixture
def monitor_pair(sim: Simulator, controller: MBController):
    """Two registered passive monitors, the first populated with 30 flows."""
    mon1 = PassiveMonitor(sim, "mon1")
    mon2 = PassiveMonitor(sim, "mon2")
    controller.register(mon1)
    controller.register(mon2)
    for index in range(30):
        packet = tcp_packet(f"10.0.{index % 3}.{index + 1}", "192.0.2.10", 1000 + index, 80, b"payload")
        sim.schedule(0.0005 * index, mon1.receive, packet, 1)
    sim.run(until=0.1)
    return mon1, mon2


@pytest.fixture
def ids_pair(sim: Simulator, controller: MBController):
    """Two registered IDS instances, the first having seen a few connections."""
    ids1 = IDS(sim, "ids1")
    ids2 = IDS(sim, "ids2")
    controller.register(ids1)
    controller.register(ids2)
    return ids1, ids2


@pytest.fixture
def dummy_pair(sim: Simulator, controller: MBController):
    """Two registered dummy middleboxes; the first holds 100 synthetic chunks."""
    src = DummyMiddlebox(sim, "dummy-src", chunk_count=100)
    dst = DummyMiddlebox(sim, "dummy-dst")
    controller.register(src)
    controller.register(dst)
    return src, dst


def run_until(sim: Simulator, future, limit: float = 1000.0):
    """Helper used across tests: drive the simulator until a future resolves."""
    return sim.run_until(future, limit=limit)
