"""Configuration+routing-only baseline (paper sections 2.1 and 8.1.2).

With SDN it is possible to control middlebox *configuration* and network
*routing* in tandem, but without any way to move internal state.  The paper
shows two consequences:

* **Scale-down** cannot re-route in-progress flows (the middlebox they were
  pinned to has the only copy of their state), so the instance being retired
  must be kept alive until its last flow finishes — more than 1500 seconds for
  roughly 9 % of flows in the data-center trace (Figure 8).
* **RE migration** must start the new decoder (and a new encoder cache) empty;
  any mis-ordering between the encoder starting to use the new cache and the
  routing update means encoded packets reach a decoder whose cache cannot
  reconstruct them, and the caches never re-synchronise (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from ..apps.base import ControlApplication
from ..apps.scenarios import REMigrationScenario
from ..traffic.distributions import fraction_exceeding


# ---------------------------------------------------------------------------------------------------
# Scale-down: how long is the deprecated middlebox held up?
# ---------------------------------------------------------------------------------------------------


@dataclass
class HoldUpReport:
    """How long a deprecated middlebox must stay alive waiting for flows to drain."""

    active_flows: int
    held_up_seconds: float
    fraction_over_1500s: float


def scale_down_hold_up(flow_durations: Sequence[float], *, decision_time: float = 0.0) -> HoldUpReport:
    """Given flow durations (all starting at t=0), compute the drain time after *decision_time*.

    Only flows still active at the decision time hold the middlebox up; the
    hold-up is the time until the last of them completes.
    """
    durations = np.asarray(list(flow_durations), dtype=float)
    remaining = durations[durations > decision_time] - decision_time
    held_up = float(remaining.max()) if remaining.size else 0.0
    return HoldUpReport(
        active_flows=int(remaining.size),
        held_up_seconds=held_up,
        fraction_over_1500s=fraction_exceeding(durations, 1500.0),
    )


# ---------------------------------------------------------------------------------------------------
# RE migration without state cloning
# ---------------------------------------------------------------------------------------------------


class ConfigRoutingREMigration(ControlApplication):
    """The RE migration performed with configuration and routing control only.

    The new decoder in DC B starts with an empty cache and the encoder creates
    an empty second cache for it (there is no cloneSupport).  The encoder is
    told to start using the new cache for DC B's subnet immediately, while the
    routing update is delayed by ``routing_delay_packets`` encoder packets —
    the paper's "routing change takes effect after the encoder has sent 10
    packets" — so the first encoded packets reach the old decoder, the caches
    fall out of sync, and they stay that way.
    """

    name = "config-routing-re-migration"

    def __init__(
        self,
        scenario: REMigrationScenario,
        *,
        routing_delay: float = 0.05,
        on_cache_switched=None,
    ) -> None:
        super().__init__(scenario.sim, scenario.northbound, scenario.sdn)
        self.scenario = scenario
        self.routing_delay = routing_delay
        #: Optional callback invoked right after the encoder starts using the new
        #: cache — benchmarks use it to resume the migrated VMs' traffic so that a
        #: known number of packets is encoded against the new cache but still routed
        #: to the old decoder before the routing update lands.
        self.on_cache_switched = on_cache_switched

    def steps(self) -> Generator:
        nb = self.nb
        encoder = self.scenario.encoder.name
        # The baseline has no state operations available: it can only change
        # configuration (create an empty cache) and routing.
        self._log("creating an empty second cache at the encoder (no cloning available)")
        yield nb.write_config(encoder, "NewCachesEmpty", [True])
        yield nb.write_config(encoder, "NumCaches", [2])
        self._log("switching the encoder to the new cache for DC B traffic")
        yield nb.write_config(
            encoder, "CacheFlows", [self.scenario.dc_a_prefix, self.scenario.dc_b_prefix]
        )
        if self.on_cache_switched is not None:
            self.on_cache_switched()
        # The routing update lags behind the configuration change — the paper's
        # experiment assumes it takes effect only after the encoder has sent ten
        # packets encoded against the new (empty) cache.
        self._log(f"waiting {self.routing_delay}s before the routing update takes effect")
        yield self.routing_delay
        yield self.scenario.reroute_dc_b()
        self._log("routing update installed")
        return self.report


#: Applicability of configuration+routing control to the paper's scenarios (Table 2).
CAPABILITIES = {
    "scale-up": "partial",  # only new flows can use the new instance
    "scale-down": "partial",  # the deprecated instance is held up until flows drain
    "migration": "partial",  # stateful functions (RE, IDS) break for in-progress flows
}
