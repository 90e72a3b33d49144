"""Failure recovery control application (paper section 2, requirement R6).

The failure-recovery strategy the paper advocates keeps a *minimal live
snapshot of only critical state* — learned through introspection events as the
middlebox creates it — and restores just that state into a replacement
instance when the original fails, with non-critical state (timeouts, counters)
restarting at defaults.

:class:`FailureRecoveryApp` implements that for the NAT, in two generations:

* **Legacy restore-at-failure** (the seed behaviour, still available): the app
  only shadows mappings while the primary is alive; at failure time it
  best-effort reads the (possibly unreachable) primary's configuration and
  writes configuration plus the whole shadow into the replacement before
  re-routing.  All restoration work lands inside the recovery window.
* **Pre-cloned standby** (``standby_mb=...``): at arm time the app clones the
  primary's configuration to a named standby and then *continuously* syncs
  the shadow into the standby as mappings are created (coalesced writes, so a
  burst of events costs one configuration write).  When the primary dies —
  detected via the controller's liveness machinery
  (``openmb.instance_down``) or reported explicitly — recovery replays only
  the mappings the background sync had not yet flushed (the **loss-free
  replay** of the unsynced delta) and flips routing; in the steady state that
  makes failover a pure routing change.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from ..core.events import Event, EventCode
from ..core.flowspace import FlowKey
from ..core.northbound import NorthboundAPI
from ..middleboxes.nat import EVENT_MAPPING_CREATED
from ..net.sdn import SDNController
from ..net.simulator import Future, Simulator, all_of
from .base import ControlApplication

#: Configuration keys a NAT replacement needs to serve existing mappings.
DEFAULT_CONFIG_KEYS: Tuple[str, ...] = (
    "NAT.ExternalIP",
    "NAT.PortRangeStart",
    "NAT.PortRangeEnd",
    "NAT.InternalPrefix",
)

#: Coalescing window for background standby syncs: mappings created within
#: one window cost a single configuration write.
SYNC_DELAY = 1e-3


class FailureRecoveryApp(ControlApplication):
    """Keep a live shadow of a NAT's critical state and restore it on failure."""

    name = "failure-recovery"

    def __init__(
        self,
        sim: Simulator,
        northbound: NorthboundAPI,
        *,
        protected_mb: str,
        standby_mb: Optional[str] = None,
        sdn: Optional[SDNController] = None,
    ) -> None:
        super().__init__(sim, northbound, sdn)
        self.protected_mb = protected_mb
        self.standby_mb = standby_mb
        #: Shadow of critical state: flow key -> (external ip, external port).
        self.shadow: Dict[FlowKey, Tuple[str, int]] = {}
        self.events_seen = 0
        #: What the standby currently holds (key -> mapping), per the last
        #: acknowledged sync write.  Recovery replays ``shadow - _synced``.
        self._synced: Dict[FlowKey, Tuple[str, int]] = {}
        self._sync_scheduled = False
        self._sync_inflight = False
        self._sync_dirty = False
        #: Background sync writes completed (observability for the benchmark).
        self.sync_writes = 0
        self._recovering = False
        self._auto_update_routing: Optional[Callable[[], Future]] = None
        #: Completion future of an automatically triggered recovery (if any).
        self.auto_recovery: Optional[Future] = None

    # -- monitoring phase ---------------------------------------------------------------------------

    def arm(self, standby_mb: Optional[str] = None) -> Future:
        """Subscribe to mapping-creation events; pre-clone config to the standby.

        With a standby (given here or at construction) the primary's full
        configuration is cloned to it immediately, and every shadowed mapping
        is subsequently synced in the background — so the eventual failover
        has (almost) nothing left to restore.  Without one, the app runs the
        legacy restore-at-failure strategy.
        """
        if standby_mb is not None:
            self.standby_mb = standby_mb
        self.nb.subscribe_events(self._on_event)
        futures = [self.nb.enable_events(self.protected_mb, EVENT_MAPPING_CREATED)]
        if self.standby_mb is not None:
            futures.append(self.nb.clone_config(self.protected_mb, self.standby_mb))
            self._log(f"pre-cloned configuration to standby {self.standby_mb}")
        self._log(f"armed: listening for {EVENT_MAPPING_CREATED} from {self.protected_mb}")
        return all_of(self.sim, futures)

    def enable_auto_failover(self, update_routing: Callable[[], Future]) -> None:
        """Fail over to the standby automatically when the primary is declared dead.

        The controller's liveness machinery (heartbeat timeout or an explicit
        ``kill``) emits an ``openmb.instance_down`` event; on seeing one for
        the protected instance, the app starts ``recover_to`` onto its armed
        standby with the given routing update.
        """
        self._auto_update_routing = update_routing

    def _on_event(self, event: Event) -> None:
        if event.code == EventCode.INSTANCE_DOWN and event.mb_name == self.protected_mb:
            self._on_primary_down(event)
            return
        if event.mb_name != self.protected_mb or event.code != EVENT_MAPPING_CREATED:
            return
        if event.key is None:
            return
        self.events_seen += 1
        external_ip = str(event.values.get("external_ip", ""))
        external_port = int(event.values.get("external_port", 0))
        # The NAT raises the event with the outbound key (internal host as source).
        self.shadow[event.key] = (external_ip, external_port)
        self._schedule_sync()

    def _on_primary_down(self, event: Event) -> None:
        """The controller declared the protected instance dead."""
        self._log(f"{self.protected_mb} declared dead ({event.values.get('reason', '?')})")
        if self._auto_update_routing is None or self.standby_mb is None or self._recovering:
            return
        self.auto_recovery = self.recover_to(self.standby_mb, update_routing=self._auto_update_routing)

    # -- background standby sync ---------------------------------------------------------------------

    def _schedule_sync(self) -> None:
        """Coalesce shadow changes into one standby write per sync window."""
        if self.standby_mb is None or self._recovering:
            return
        if self._sync_inflight:
            self._sync_dirty = True  # rewrite once the in-flight write lands
            return
        if self._sync_scheduled:
            return
        self._sync_scheduled = True
        self.sim.schedule(SYNC_DELAY, self._flush_sync)

    def _flush_sync(self) -> None:
        """Write the current shadow to the standby's static-mapping config."""
        self._sync_scheduled = False
        if self.standby_mb is None or self._recovering:
            return
        snapshot = dict(self.shadow)
        if snapshot == self._synced:
            return
        self._sync_inflight = True

        def on_done(future: Future) -> None:
            self._sync_inflight = False
            if future.exception is None:
                self._synced = snapshot
                self.sync_writes += 1
            if self._sync_dirty:
                self._sync_dirty = False
                self._schedule_sync()

        try:
            write = self.nb.write_config(
                self.standby_mb, "NAT.StaticMappings", self._static_values(snapshot)
            )
        except Exception:
            self._sync_inflight = False
            return  # standby gone; recovery will surface the real failure
        write.add_done_callback(on_done)

    @staticmethod
    def _static_values(shadow: Dict[FlowKey, Tuple[str, int]]) -> list:
        """Render a shadow table as ``NAT.StaticMappings`` configuration values."""
        return [
            f"{key.nw_src}:{key.tp_src}={external_ip}:{external_port}"
            for key, (external_ip, external_port) in sorted(shadow.items())
        ]

    # -- recovery phase ------------------------------------------------------------------------------

    def recover_to(
        self,
        replacement_mb: str,
        *,
        update_routing: Callable[[], Future],
    ) -> Future:
        """Bootstrap *replacement_mb* from the shadow table and re-route traffic to it.

        When the replacement is the armed standby, configuration was already
        pre-cloned and previously synced mappings are already installed; the
        recovery transaction replays only the unsynced delta (loss-free: every
        shadowed mapping ends up at the replacement) and flips routing.
        """
        self._recovering = True
        self.replacement_mb = replacement_mb
        self._update_routing = update_routing
        return self.start()

    def steps(self) -> Generator:
        pre_synced = self.replacement_mb == self.standby_mb
        replayed = {
            key: mapping
            for key, mapping in self.shadow.items()
            if not (pre_synced and self._synced.get(key) == mapping)
        }
        restorable: Dict[str, list] = {}
        if not pre_synced:
            # 1. (Legacy path) Copy the protected middlebox's essential
            #    configuration.  The failed instance may be unreachable, so
            #    this stays a best-effort read *outside* the transaction (a
            #    failure here must not abort recovery).
            try:
                values = yield self.nb.read_config(self.protected_mb, "*")
            except Exception:
                values = {}
            restorable = {key: vals for key, vals in (values or {}).items() if key in DEFAULT_CONFIG_KEYS}
        static = self._static_values(self.shadow)
        # 2+3. Restore configuration and critical state into the replacement
        # and re-route to it — one transaction, so a half-restored replacement
        # never receives live traffic: if any write fails, the re-route (the
        # last step) is cancelled before it runs.  A fully pre-synced standby needs no
        # state write at all; failover degenerates to the routing flip.
        txn = self.nb.transaction()
        txn.observer = self._log
        if restorable:
            txn.write_config(self.replacement_mb, "*", restorable)
        if static and replayed:
            txn.write_config(self.replacement_mb, "NAT.StaticMappings", static)
        txn.reroute(apply=self._update_routing, label=f"reroute({self.replacement_mb})")
        handle = txn.commit()
        yield handle.done
        if restorable:
            self._log(f"restored {len(restorable)} configuration keys")
        if replayed:
            self._log(f"replayed {len(replayed)} critical mappings into {self.replacement_mb}")
        if pre_synced:
            self._log(f"{len(self.shadow) - len(replayed)} mappings were already pre-synced")
        self._log("routing updated to the replacement instance")
        self.report.details["transaction"] = handle.aggregate()
        # "Restored" counts what recovery itself wrote: the full shadow on the
        # legacy path, only the replayed delta onto a pre-synced standby (zero
        # when failover degenerated to the pure routing flip).
        self.report.details["mappings_restored"] = len(replayed) if pre_synced else len(static)
        self.report.details["mappings_presynced"] = len(self.shadow) - len(replayed)
        self.report.details["mappings_replayed"] = len(replayed)
        self.report.details["events_seen"] = self.events_seen
        return self.report
