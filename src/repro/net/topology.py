"""Topology: nodes, hosts, and the graph the SDN controller computes paths on.

A :class:`Topology` owns every node and link in a simulated network and keeps
a parallel :mod:`networkx` graph for path computation.  Node types:

* :class:`Node` — abstract base: named, owns numbered ports, receives packets.
* :class:`Host` — an end host with an IP address; generates and sinks traffic.
* switches live in :mod:`repro.net.switch`; middleboxes subclass
  :class:`Node` via :class:`repro.middleboxes.base.Middlebox`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import networkx as nx

from ..core.errors import NetworkError
from .links import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, Link, LinkFaultPlan
from .packet import Packet
from .simulator import Simulator


class Node:
    """Base class for anything attached to the simulated network."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: Dict[int, Link] = {}

    # -- port management --------------------------------------------------------

    def next_free_port(self) -> int:
        """The lowest unused port number on this node."""
        port = 1
        while port in self.ports:
            port += 1
        return port

    def attach_link(self, port: int, link: Link) -> None:
        if port in self.ports:
            raise NetworkError(f"port {port} on {self.name} is already in use")
        self.ports[port] = link

    def port_to(self, neighbor: "Node") -> Optional[int]:
        """The port number facing *neighbor*, or None when not directly connected."""
        for port, link in self.ports.items():
            if link.other_end(self) is neighbor:
                return port
        return None

    def send_out(self, port: int, packet: Packet) -> None:
        """Transmit *packet* out of *port*."""
        link = self.ports.get(port)
        if link is None:
            raise NetworkError(f"{self.name} has no link on port {port}")
        link.transmit(packet, self)

    # -- packet handling ---------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        """Handle a packet arriving on *in_port*; subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host: a traffic source and sink with one or more links."""

    def __init__(self, sim: Simulator, name: str, ip: str) -> None:
        super().__init__(sim, name)
        self.ip = ip
        self.received: List[Packet] = []
        self.received_bytes = 0
        self.sent_packets = 0
        self._receive_callbacks: List[Callable[[Packet], None]] = []

    def on_receive(self, callback: Callable[[Packet], None]) -> None:
        """Register a callback invoked for every packet delivered to this host."""
        self._receive_callbacks.append(callback)

    def receive(self, packet: Packet, in_port: int) -> None:
        self.received.append(packet)
        self.received_bytes += packet.wire_size
        for callback in self._receive_callbacks:
            callback(packet)

    def send(self, packet: Packet, port: Optional[int] = None) -> None:
        """Inject *packet* into the network out of the given (or only) port."""
        if port is None:
            if len(self.ports) != 1:
                raise NetworkError(f"{self.name} has {len(self.ports)} ports; specify one")
            port = next(iter(self.ports))
        packet.created_at = self.sim.now
        self.sent_packets += 1
        self.send_out(port, packet)


class Topology:
    """A container for nodes and links plus the routing graph."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self.graph = nx.Graph()

    # -- construction ------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register an already constructed node (switch, host, or middlebox)."""
        if node.name in self.nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self.graph.add_node(node.name)
        return node

    def add_host(self, name: str, ip: str) -> Host:
        """Create and register a host."""
        host = Host(self.sim, name, ip)
        self.add_node(host)
        return host

    def connect(
        self,
        node_a: Node | str,
        node_b: Node | str,
        *,
        latency: float = DEFAULT_LATENCY,
        bandwidth: float = DEFAULT_BANDWIDTH,
        faults: Optional["LinkFaultPlan"] = None,
    ) -> Link:
        """Create a link between two registered nodes, auto-assigning ports.

        Pass ``faults`` (a :class:`~repro.net.links.LinkFaultPlan`) to give
        the link seeded loss/corruption/reordering processes.
        """
        node_a = self._resolve(node_a)
        node_b = self._resolve(node_b)
        port_a = node_a.next_free_port()
        port_b = node_b.next_free_port()
        link = Link(
            self.sim, node_a, port_a, node_b, port_b, latency=latency, bandwidth=bandwidth, faults=faults
        )
        node_a.attach_link(port_a, link)
        node_b.attach_link(port_b, link)
        self.links.append(link)
        self.graph.add_edge(node_a.name, node_b.name, weight=latency, link=link)
        return link

    # -- queries -----------------------------------------------------------------

    def _resolve(self, node: Node | str) -> Node:
        if isinstance(node, Node):
            registered = self.nodes.get(node.name)
            if registered is None:
                raise NetworkError(f"node {node.name!r} is not registered in the topology")
            if registered is not node:
                # A different object wearing a registered node's name must not
                # be attached: the two would silently alias each other in every
                # name-keyed structure (routing graph, link serialization).
                raise NetworkError(
                    f"node object is not the registered {node.name!r} (duplicate-name attachment)"
                )
            return node
        try:
            return self.nodes[node]
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    def get(self, name: str) -> Node:
        """Return a node by name."""
        return self._resolve(name)

    def shortest_path(self, source: Node | str, target: Node | str) -> List[str]:
        """Latency-weighted shortest path between two nodes (names)."""
        source = self._resolve(source).name
        target = self._resolve(target).name
        try:
            return nx.shortest_path(self.graph, source, target, weight="weight")
        except nx.NetworkXNoPath:
            raise NetworkError(f"no path between {source} and {target}") from None

    def path_through(self, source: Node | str, waypoints: List[Node | str], target: Node | str) -> List[str]:
        """A path from *source* to *target* that visits *waypoints* in order."""
        stops = [source, *waypoints, target]
        full_path: List[str] = []
        for leg_start, leg_end in zip(stops, stops[1:]):
            leg = self.shortest_path(leg_start, leg_end)
            if full_path:
                leg = leg[1:]
            full_path.extend(leg)
        return full_path
