"""Elastic scaling control applications (paper section 6.2).

Since the transactional-API redesign the two scaling applications are thin
wrappers over :meth:`~repro.core.northbound.NorthboundAPI.transaction`:

* :class:`ScaleUpApp` declares one ``migrate`` composite — clone the
  configuration, then per subnet: stats → move → re-route — and commits;
* :class:`ScaleDownApp` declares one ``drain`` composite — move everything,
  merge the shared reporting state, re-route, wait for finalisation,
  terminate the spare.

The transaction coordinator supplies what the hand-sequenced versions could
not: route installation ordered on the per-flow put-ACKs
(``state_installed``) instead of whole-operation completion, and
all-or-nothing rollback if any step fails.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from ..core.flowspace import FlowPattern
from ..core.northbound import NorthboundAPI
from ..net.sdn import SDNController
from ..net.simulator import Future, Simulator
from .base import ControlApplication

RoutingCallback = Callable[[FlowPattern], Future]


class ScaleUpApp(ControlApplication):
    """Add a middlebox instance and re-balance a subset of in-progress flows onto it."""

    name = "scale-up"

    def __init__(
        self,
        sim: Simulator,
        northbound: NorthboundAPI,
        *,
        existing_mb: str,
        new_mb: str,
        patterns: Sequence[FlowPattern | list | dict | str],
        update_routing: RoutingCallback,
        sdn: Optional[SDNController] = None,
        wait_for_finalize: bool = False,
    ) -> None:
        super().__init__(sim, northbound, sdn)
        self.existing_mb = existing_mb
        self.new_mb = new_mb
        self.patterns = [p if isinstance(p, FlowPattern) else FlowPattern.parse(p) for p in patterns]
        self.update_routing = update_routing
        self.wait_for_finalize = wait_for_finalize

    def steps(self) -> Generator:
        txn = self.nb.transaction()
        txn.observer = self._log
        move_steps = txn.migrate(
            self.existing_mb,
            self.new_mb,
            self.patterns,
            clone_configuration=True,
            reroute=self.update_routing,
            query_stats=True,
            wait_for_finalize=self.wait_for_finalize,
        )
        handle = txn.commit()
        yield handle.done

        moved_records = [step.handle.record for step in move_steps]
        for pattern, record in zip(self.patterns, moved_records):
            self._log(
                f"moved {record.chunks_transferred} chunks for {pattern!r} "
                f"in {record.duration:.4f}s ({record.events_forwarded} events forwarded)"
            )
        self.report.details["transaction"] = handle.aggregate()
        self.report.details["moves"] = moved_records
        self.report.details["chunks_moved"] = sum(r.chunks_transferred for r in moved_records)
        self.report.details["events_forwarded"] = sum(r.events_forwarded for r in moved_records)
        return self.report


class ScaleDownApp(ControlApplication):
    """Consolidate a spare middlebox instance back into the remaining instance."""

    name = "scale-down"

    def __init__(
        self,
        sim: Simulator,
        northbound: NorthboundAPI,
        *,
        spare_mb: str,
        remaining_mb: str,
        update_routing: RoutingCallback,
        terminate: Optional[Callable[[], None]] = None,
        sdn: Optional[SDNController] = None,
        wait_for_finalize: bool = True,
    ) -> None:
        super().__init__(sim, northbound, sdn)
        self.spare_mb = spare_mb
        self.remaining_mb = remaining_mb
        self.update_routing = update_routing
        self.terminate = terminate
        self.wait_for_finalize = wait_for_finalize

    def steps(self) -> Generator:
        txn = self.nb.transaction()
        txn.observer = self._log
        drain_steps = txn.drain(
            self.spare_mb,
            self.remaining_mb,
            reroute=self.update_routing,
            terminate=self.terminate,
            wait_for_finalize=self.wait_for_finalize,
        )
        handle = txn.commit()
        yield handle.done

        move_record = drain_steps["move"].handle.record
        merge_record = drain_steps["merge"].handle.record
        if self.terminate is not None:
            self._log(f"terminated {self.spare_mb}")
        self.report.details["transaction"] = handle.aggregate()
        self.report.details["move"] = move_record
        self.report.details["merge"] = merge_record
        self.report.details["chunks_moved"] = move_record.chunks_transferred
        return self.report
