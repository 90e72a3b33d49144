"""Connection load balancer (a Balance-like middlebox).

The load balancer of the paper's migration scenario assigns each new flow to a
back-end server and keeps the assignment as per-flow supporting state.  Moving
a flow's assignment together with the routing change is what prevents an
in-progress transaction from being re-assigned to a different server
(requirement R4); reconfiguring the back-end list per data center is the
paper's example of cloning and modifying configuration state (R3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.errors import MiddleboxError
from ..core.southbound import ProcessingCosts
from ..core.state import StateRole, StateScope
from ..net.packet import Packet
from ..net.simulator import Simulator
from .base import Middlebox, ProcessResult, Verdict

EVENT_FLOW_ASSIGNED = "lb.flow_assigned"

#: The load balancer keys its per-flow state by source address and port only
#: (the destination is always the VIP), the paper's example of a middlebox with
#: coarser-than-five-tuple granularity.
LB_GRANULARITY = ("nw_proto", "nw_src", "tp_src")


@dataclass
class Assignment:
    """Per-flow supporting state: which back-end serves a client flow."""

    backend: str
    assigned_at: float = 0.0
    packets: int = 0


class LoadBalancer(Middlebox):
    """A round-robin connection load balancer fronting a pool of servers."""

    MB_TYPE = "loadbalancer"
    STATE = {(StateRole.SUPPORTING, StateScope.PER_FLOW): Assignment}

    DEFAULT_COSTS = ProcessingCosts(packet_processing=60e-6, get_per_chunk=120e-6, put_per_chunk=25e-6)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        vip: str = "198.51.100.10",
        backends: Sequence[str] = (),
        costs: Optional[ProcessingCosts] = None,
    ) -> None:
        super().__init__(
            sim,
            name,
            costs=costs or ProcessingCosts(**vars(self.DEFAULT_COSTS)),
            granularity=LB_GRANULARITY,
        )
        self.config.set("LB.VIP", [vip])
        self.config.set("LB.Backends", list(backends))
        self.config.set("LB.Algorithm", ["round-robin"])
        self._rr_index = 0

    # -- configuration ----------------------------------------------------------------------

    @property
    def vip(self) -> str:
        return str(self.config.get_scalar("LB.VIP"))

    @property
    def backends(self) -> List[str]:
        return [str(value) for value in self.config.get_values("LB.Backends")]

    # -- packet processing -----------------------------------------------------------------------

    def _pick_backend(self) -> str:
        backends = self.backends
        if not backends:
            raise MiddleboxError(f"{self.name}: no back-end servers configured")
        backend = backends[self._rr_index % len(backends)]
        self._rr_index += 1
        return backend

    def process_packet(self, packet: Packet) -> ProcessResult:
        key = packet.flow_key()
        if packet.nw_dst != self.vip:
            # Return traffic or traffic not addressed to the VIP passes through.
            return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[])
        assignment = self.support_store.get(key)
        created = False
        if assignment is None:
            assignment = Assignment(backend=self._pick_backend(), assigned_at=self.sim.now)
            self.support_store.put(key, assignment)
            created = True
        assignment.packets += 1
        rewritten = packet.copy()
        rewritten.nw_dst = assignment.backend
        if created and not self.is_reprocessing:
            self.raise_event(EVENT_FLOW_ASSIGNED, key=key, backend=assignment.backend)
        return ProcessResult(verdict=Verdict.FORWARD, packet=rewritten, updated_flows=[key])
