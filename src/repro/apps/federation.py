"""Federation overseer control application (multi-domain fleet reporting).

Single-controller applications talk to one :class:`~repro.core.northbound.NorthboundAPI`;
a federated deployment has one controller *per domain* plus the gossip layer
tying them together (:mod:`repro.federation`).  The overseer is the control
application for that layer: it waits for the gossip views of every live
domain to converge, audits the outcome of any takeovers, and folds the
per-domain controller counters into a single fleet-wide report via
:meth:`~repro.core.stats.ControllerStats.merge`.

The report answers the questions an operator asks after a domain outage:

* **Did the views converge?** (``converged`` / ``polls``) — membership,
  liveness, and flow ownership agree across every surviving domain.
* **Who died, and who adopted their instances?** (``dead_domains`` /
  ``takeovers``) — exactly one live domain must have adopted each dead one.
* **Where is everything now?** (``instances`` / ``ownership``) — the
  per-domain instance rosters and the flow-ownership token counts from the
  converged directory.
* **What did it cost?** (``fleet``) — the merged controller counters
  (messages, operations, precopy overhead) across the whole federation.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..net.simulator import Simulator
from .base import ControlApplication

#: Convergence is polled this often, for at most :data:`SETTLE_LIMIT` seconds.
POLL_INTERVAL = 1e-3
SETTLE_LIMIT = 1.0


class FederationOverseerApp(ControlApplication):
    """Wait for a federation to converge, then report fleet-wide state."""

    name = "federation-overseer"

    def __init__(self, sim: Simulator, federation) -> None:
        # The overseer spans domains, so it has no single northbound API.
        super().__init__(sim, northbound=None)
        self.federation = federation

    # -- audit helpers -----------------------------------------------------------------------------

    def takeover_map(self) -> Dict[str, str]:
        """Dead domain -> the live domain that adopted its instances."""
        adoptions: Dict[str, str] = {}
        for domain in self.federation.live_domains():
            for dead in domain.takeovers:
                adoptions[dead] = domain.name
        return adoptions

    def dead_domains(self) -> List[str]:
        """Domains that crashed (or were declared dead by the survivors)."""
        return sorted(
            name for name, domain in self.federation.domains.items() if not domain.alive
        )

    def instance_rosters(self) -> Dict[str, List[str]]:
        """Per-live-domain sorted instance names (post-takeover placement)."""
        return {
            domain.name: sorted(domain.controller.middlebox_names())
            for domain in self.federation.live_domains()
        }

    def ownership_counts(self) -> Dict[str, int]:
        """Flow-ownership token counts per owning domain, from a converged view."""
        live = self.federation.live_domains()
        if not live:
            return {}
        view = live[0].directory
        return {domain.name: len(view.tokens_owned_by(domain.name)) for domain in live}

    # -- application body --------------------------------------------------------------------------

    def steps(self) -> Generator:
        self._log("waiting for gossip views to converge")
        deadline = self.sim.now + SETTLE_LIMIT
        polls = 0
        while not self.federation.converged() and self.sim.now < deadline:
            polls += 1
            yield self.sim.timeout(POLL_INTERVAL)
        converged = self.federation.converged()
        self._log(f"views {'converged' if converged else 'DID NOT converge'} after {polls} polls")

        adoptions = self.takeover_map()
        for dead, adopter in sorted(adoptions.items()):
            self._log(f"domain '{dead}' was taken over by '{adopter}'")

        self.report.details.update(
            {
                "converged": converged,
                "polls": polls,
                "live_domains": sorted(domain.name for domain in self.federation.live_domains()),
                "dead_domains": self.dead_domains(),
                "takeovers": adoptions,
                "instances": self.instance_rosters(),
                "ownership": self.ownership_counts(),
                "fleet": self.federation.merged_stats().summary(),
            }
        )
        return self.report
