"""Multi-controller federation: gossip dissemination, takeover, WAN moves.

See :mod:`repro.federation.domain` for the architecture overview and
``docs/federation.md`` for the operator-facing guide.
"""

from .directory import OwnershipDirectory
from .domain import FederatedDomain, Federation, FederationConfig, PeerLink
from .election import elect_successor, takeover_score
from .gossip import GossipConfig, GossipState, VersionedEntry, VersionedMap, choose_peers

__all__ = [
    "FederatedDomain",
    "Federation",
    "FederationConfig",
    "GossipConfig",
    "GossipState",
    "OwnershipDirectory",
    "PeerLink",
    "VersionedEntry",
    "VersionedMap",
    "choose_peers",
    "elect_successor",
    "takeover_score",
]
