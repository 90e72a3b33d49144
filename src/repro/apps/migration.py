"""Live migration control applications (paper sections 2 and 6.1).

Two applications live here, both written on the transactional northbound API:

* :class:`REMigrationApp` — the paper's section 6.1 application: when half of
  an application's VMs migrate from data center A to data center B, launch a
  new RE decoder in DC B, clone the original decoder's cache, add a second
  cache at the encoder, re-route the migrated subnet, and finally tell the
  encoder to use the second cache for traffic to DC B.  The whole numbered
  sequence is one transaction: a failure anywhere (say, the encoder rejecting
  the cache switch) rolls the routing change back instead of leaving DC B's
  traffic pointed at a decoder the encoder is not feeding.
* :class:`PerFlowMigrationApp` — the generic per-flow middlebox migration used
  with the IDS in the VM-snapshot comparison (section 8.1.2): one ``migrate``
  composite (clone the configuration, move the per-flow state, re-route once
  the per-flow put-ACKs arrive).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..core.flowspace import FlowPattern
from ..core.northbound import NorthboundAPI
from ..net.sdn import SDNController
from ..net.simulator import Future, Simulator
from .base import ControlApplication

RoutingCallback = Callable[[], Future]


class REMigrationApp(ControlApplication):
    """Migrate the RE decoder function for a subnet of application VMs to a new data center."""

    name = "re-migration"

    def __init__(
        self,
        sim: Simulator,
        northbound: NorthboundAPI,
        *,
        encoder: str,
        orig_decoder: str,
        new_decoder: str,
        dc_a_prefix: str = "1.1.1.0/24",
        dc_b_prefix: str = "1.1.2.0/24",
        update_routing: RoutingCallback,
        sdn: Optional[SDNController] = None,
    ) -> None:
        super().__init__(sim, northbound, sdn)
        self.encoder = encoder
        self.orig_decoder = orig_decoder
        self.new_decoder = new_decoder
        self.dc_a_prefix = dc_a_prefix
        self.dc_b_prefix = dc_b_prefix
        self.update_routing = update_routing

    def steps(self) -> Generator:
        txn = self.nb.transaction()
        txn.observer = self._log
        # 1. The new decoder was launched by the operator/scenario; duplicate
        #    the original decoder's configuration onto it.
        txn.clone_config(self.orig_decoder, self.new_decoder)
        # 2. Clone the original decoder's cache (shared supporting state).
        clone = txn.clone(self.orig_decoder, self.new_decoder)
        # 3. Add a second cache to the encoder (it clones its original cache).
        #    The clone's state-installed point gates this — not whole-clone
        #    completion — so the cache switch-over preparation overlaps with
        #    the clone's remaining event replay.
        second_cache = txn.write_config(self.encoder, "NumCaches", [2], after=(clone, "installed"))
        # 4. Re-route DC B's subnet to the new decoder once the cloned cache is
        #    resident there and the encoder has its second cache.
        txn.reroute(
            pattern=FlowPattern(nw_dst=self.dc_b_prefix),
            apply=self.update_routing,
            after=[second_cache, (clone, "installed")],
            label=f"reroute({self.dc_b_prefix})",
        )
        # 5. Switch the encoder's cache selection.
        txn.write_config(self.encoder, "CacheFlows", [self.dc_a_prefix, self.dc_b_prefix])
        # 6. The clone transaction is over: routing and the cache selection are
        #    in place, so the original decoder stops replaying its own (DC A)
        #    traffic to the new decoder — from here the two caches evolve
        #    independently, in lock-step with their respective encoder caches.
        txn.end_transfer(self.orig_decoder)

        handle = txn.commit()
        yield handle.done

        clone_record = clone.handle.record
        self._log(
            f"clone transferred {clone_record.bytes_transferred} bytes "
            f"in {clone_record.duration:.4f}s"
        )
        self.report.details["transaction"] = handle.aggregate()
        self.report.details["clone"] = clone_record
        self.report.details["clone_bytes"] = clone_record.bytes_transferred
        self.report.details["events_forwarded"] = clone_record.events_forwarded
        return self.report


class PerFlowMigrationApp(ControlApplication):
    """Migrate the per-flow state of a middlebox (e.g. an IDS) for a subset of flows."""

    name = "perflow-migration"

    def __init__(
        self,
        sim: Simulator,
        northbound: NorthboundAPI,
        *,
        old_mb: str,
        new_mb: str,
        pattern: FlowPattern | list | dict | str,
        update_routing: Callable[[FlowPattern], Future],
        clone_configuration: bool = True,
        sdn: Optional[SDNController] = None,
        wait_for_finalize: bool = False,
    ) -> None:
        super().__init__(sim, northbound, sdn)
        self.old_mb = old_mb
        self.new_mb = new_mb
        self.pattern = pattern if isinstance(pattern, FlowPattern) else FlowPattern.parse(pattern)
        self.update_routing = update_routing
        self.clone_configuration = clone_configuration
        self.wait_for_finalize = wait_for_finalize

    def steps(self) -> Generator:
        txn = self.nb.transaction()
        txn.observer = self._log
        moves = txn.migrate(
            self.old_mb,
            self.new_mb,
            [self.pattern],
            clone_configuration=self.clone_configuration,
            reroute=self.update_routing,
            wait_for_finalize=self.wait_for_finalize,
        )
        handle = txn.commit()
        yield handle.done

        record = moves[0].handle.record
        self._log(
            f"move returned after {record.duration:.4f}s with {record.chunks_transferred} chunks"
        )
        self.report.details["transaction"] = handle.aggregate()
        self.report.details["move"] = record
        self.report.details["chunks_moved"] = record.chunks_transferred
        self.report.details["bytes_moved"] = record.bytes_transferred
        self.report.details["events_forwarded"] = record.events_forwarded
        return self.report
