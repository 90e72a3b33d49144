"""SDN controller for the network substrate.

The OpenMB control applications coordinate middlebox state operations with
routing changes.  :class:`SDNController` provides the routing half: it
computes paths over the :class:`~repro.net.topology.Topology` graph (optionally
through middlebox waypoints) and installs prioritized flow rules on every
switch along the path.

Rule installation is not instantaneous: each switch applies the rule after
``DEFAULT_RULE_INSTALL_LATENCY``, which is exactly what creates the windows
in which packets are still delivered to the *old* middlebox after a control
application has requested a re-route — the races OpenMB's re-process events
are designed to absorb.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.errors import NetworkError
from ..core.flowspace import FlowPattern
from .flowtable import Action, FlowRule
from .simulator import Future, Simulator, all_of
from .switch import Switch
from .topology import Node, Topology

#: Time for a switch to apply a newly pushed flow rule (seconds).
DEFAULT_RULE_INSTALL_LATENCY = 2e-3


@dataclass
class RouteHandle:
    """Bookkeeping for one installed route (one pattern along one path)."""

    route_id: int
    cookie: str
    pattern: FlowPattern
    path: List[str]
    rules: List[FlowRule] = field(default_factory=list)
    installed: Optional[Future] = None


@dataclass
class RouteSwap:
    """Bookkeeping for one atomic multi-pattern route swap.

    ``routes`` are the newly installed routes (one per pattern/path pair);
    ``rollback()`` undoes the swap by removing them.
    """

    controller: "SDNController"
    routes: List[RouteHandle] = field(default_factory=list)
    installed: Optional[Future] = None
    _rolled_back: bool = False

    def rollback(self) -> None:
        """Remove the swap's new routes (once)."""
        if self._rolled_back:
            return
        self._rolled_back = True
        for handle in self.routes:
            self.controller.remove_route(handle)


class SDNController:
    """Computes paths and programs switches."""

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self.routes: Dict[int, RouteHandle] = {}
        self._route_ids = itertools.count(1)
        self.rules_installed = 0
        self.routing_updates = 0
        #: Programming messages pushed to switches: one per (switch, update),
        #: each possibly carrying several rules (the batched route dispatch —
        #: a multi-pattern swap programs each switch once, not once per rule).
        self.switch_updates = 0

    # -- route installation ----------------------------------------------------------

    def install_route(
        self,
        pattern: FlowPattern,
        path: Sequence[Node | str],
        *,
        priority: int = 100,
    ) -> RouteHandle:
        """Install forwarding rules for *pattern* along *path*.

        *path* is an ordered list of node names (or nodes) beginning at the
        ingress node and ending at the egress node; rules are installed on the
        switches in between so matching packets follow the path.  Returns a
        handle whose ``installed`` future completes once every switch has
        applied its rule.
        """
        names = [node.name if isinstance(node, Node) else node for node in path]
        route_id = next(self._route_ids)
        prepared = self._prepare_rules(pattern, names, priority, f"route-{route_id}")
        by_switch: Dict[Switch, List[FlowRule]] = {}
        handle, _ = self._register_prepared(route_id, pattern, names, prepared, by_switch)
        handle.installed = all_of(self.sim, [self._push_rules(switch, rules) for switch, rules in by_switch.items()])
        return handle

    def _register_prepared(
        self,
        route_id: int,
        pattern: FlowPattern,
        names: List[str],
        prepared: List[tuple],
        by_switch: Dict[Switch, List[FlowRule]],
    ) -> tuple:
        """Register one route and accumulate its rules into *by_switch*.

        The single place route-registration happens: builds the handle,
        records the rules, stores the route, and bumps ``routing_updates``.
        Returns ``(handle, switches)`` where *switches* are the distinct
        switches (in path order) whose pending updates gate the handle's
        ``installed`` future.  The caller decides the batching scope by
        passing a per-route or swap-wide accumulator.
        """
        handle = RouteHandle(route_id=route_id, cookie=f"route-{route_id}", pattern=pattern, path=list(names))
        switches: List[Switch] = []
        for switch, rule in prepared:
            by_switch.setdefault(switch, []).append(rule)
            handle.rules.append(rule)
            if switch not in switches:
                switches.append(switch)
        self.routes[route_id] = handle
        self.routing_updates += 1
        return handle, switches

    def _prepare_rules(
        self, pattern: FlowPattern, names: List[str], priority: int, cookie: str
    ) -> List[tuple]:
        """Validate *names* and build the (switch, rule) pairs for one route.

        Raises :class:`NetworkError` without touching any switch when the path
        is malformed — the validation half of an atomic swap.
        """
        if len(names) < 2:
            raise NetworkError("a route needs at least two nodes")
        prepared: List[tuple] = []
        for previous, current, following in self._hops(names):
            node = self.topology.get(current)
            if not isinstance(node, Switch):
                continue
            out_port = node.port_to(self.topology.get(following)) if following else None
            if out_port is None:
                raise NetworkError(f"{current} has no port toward {following}")
            rule = FlowRule(
                pattern=pattern,
                actions=[Action.output(out_port)],
                priority=priority,
                cookie=cookie,
            )
            prepared.append((node, rule))
        return prepared

    def swap_routes(self, changes: Sequence[tuple], *, priority: int = 100) -> RouteSwap:
        """Atomically install routes for several patterns.

        ``changes`` is a sequence of ``(pattern, path)`` pairs (*path* as in
        :meth:`install_route`).  Every pair is resolved to concrete switch
        rules before any rule is pushed, so a malformed path leaves the
        network untouched.

        Returns a :class:`RouteSwap` whose ``installed`` future completes when
        every switch applied its rules and whose ``rollback()`` removes the
        new routes.
        """
        prepared: List[tuple] = []
        for pattern, path in changes:
            names = [node.name if isinstance(node, Node) else node for node in path]
            route_id = next(self._route_ids)
            rules = self._prepare_rules(pattern, names, priority, f"route-{route_id}")
            prepared.append((pattern, names, route_id, rules))

        # Batched route dispatch: group every rule of the whole swap by its
        # target switch and program each switch exactly once, so a
        # multi-pattern swap costs O(switches) updates instead of
        # O(patterns x path length).
        swap = RouteSwap(controller=self)
        by_switch: Dict[Switch, List[FlowRule]] = {}
        route_switch_sets: List[tuple] = []
        for pattern, names, route_id, rules in prepared:
            handle, switches = self._register_prepared(route_id, pattern, names, rules, by_switch)
            route_switch_sets.append((handle, switches))
            swap.routes.append(handle)
        update_futures = {switch: self._push_rules(switch, rules) for switch, rules in by_switch.items()}
        for handle, switches in route_switch_sets:
            handle.installed = all_of(self.sim, [update_futures[switch] for switch in switches])
        swap.installed = all_of(self.sim, list(update_futures.values()))
        return swap

    @staticmethod
    def _hops(names: List[str]):
        """(previous, current, next) triples for every node that must forward."""
        triples = []
        for index, current in enumerate(names[:-1]):
            previous = names[index - 1] if index > 0 else None
            following = names[index + 1]
            triples.append((previous, current, following))
        return triples

    def _push_rules(self, switch: Switch, rules: List[FlowRule]) -> Future:
        """Program *switch* with *rules* in one update message.

        All rules of the update take effect together after the install
        latency; the returned future completes at that point.  Batching rules
        per switch is what keeps a multi-pattern route swap at one
        programming round-trip per switch.
        """
        future = self.sim.event(name=f"install@{switch.name}")
        self.switch_updates += 1

        def apply_rules() -> None:
            for rule in rules:
                switch.install_rule(rule)
            self.rules_installed += len(rules)
            future.succeed(rules)

        self.sim.schedule(DEFAULT_RULE_INSTALL_LATENCY, apply_rules)
        return future

    def remove_route(self, handle: RouteHandle) -> None:
        """Remove every rule installed for *handle* (takes effect after install latency)."""

        def remove() -> None:
            for node in handle.path:
                topo_node = self.topology.get(node)
                if isinstance(topo_node, Switch):
                    topo_node.remove_rules_by_cookie(handle.cookie)

        self.sim.schedule(DEFAULT_RULE_INSTALL_LATENCY, remove)
        self.routes.pop(handle.route_id, None)

    # -- higher-level routing used by control applications -----------------------------

    def route(
        self,
        pattern: FlowPattern,
        ingress: Node | str,
        egress: Node | str,
        waypoints: Sequence[Node | str] = (),
        *,
        priority: int = 100,
    ) -> RouteHandle:
        """Route flows matching *pattern* from *ingress* to *egress* via *waypoints*.

        This is the ``route(k, r)`` call of the paper's Figure 4: the control
        application names the flows (the pattern) and the new route (here, the
        middlebox waypoints), and the SDN controller programs the switches.
        """
        path = self.topology.path_through(ingress, list(waypoints), egress)
        return self.install_route(pattern, path, priority=priority)
