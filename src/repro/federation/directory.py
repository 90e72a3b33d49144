"""Versioned flow-ownership directory: canonical flow key -> owning domain.

Every stateful flow in the federation has exactly one owning domain — the
domain whose controller brokered the last move of its state.  The directory
is a :class:`~repro.federation.gossip.VersionedMap` keyed by the **canonical
flow token** (:meth:`repro.core.flowspace.FlowKey.token` of the
bidirectional five-tuple), so both packet directions of a flow resolve to the
same entry and the federation agrees with the intra-controller shard ring on
what "one flow" means.

Ownership changes are authored by the domain that drove them (a completed
cross-domain move, or the elected survivor of a takeover) and disseminated by
gossip; last-writer-wins versioning makes concurrent claims converge
deterministically on every replica.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.flowspace import FlowKey
from .gossip import VersionedMap


class OwnershipDirectory:
    """The versioned map of flow-key tokens to owning domains."""

    def __init__(self) -> None:
        #: The gossip layer merges, summarises and ships this map directly.
        self.map = VersionedMap()

    @staticmethod
    def token_of(key: FlowKey) -> str:
        """The directory token of a flow: its canonical bidirectional tuple."""
        return key.bidirectional().token()

    def claim(self, key: FlowKey, domain: str, now: float) -> str:
        """Author a new ownership version for one flow; returns its token."""
        token = self.token_of(key)
        self.map.put(token, domain, {"domain": domain}, now)
        return token

    def claim_flows(self, keys: Iterable[FlowKey], domain: str, now: float) -> List[str]:
        """Claim every flow in *keys* for *domain*; returns the tokens claimed."""
        return sorted({self.claim(key, domain, now) for key in keys})

    def owner_of(self, key: FlowKey) -> Optional[str]:
        """The domain owning *key*'s state, or None when unknown."""
        value = self.map.value_of(self.token_of(key))
        return value.get("domain") if value else None

    def tokens_owned_by(self, domain: str) -> List[str]:
        """Every token currently mapped to *domain*, sorted."""
        return sorted(token for token, entry in self.map.items() if entry.value.get("domain") == domain)

    def reassign(self, from_domain: str, to_domain: str, now: float) -> List[str]:
        """Re-home every flow of *from_domain* (takeover); returns the tokens."""
        tokens = self.tokens_owned_by(from_domain)
        for token in tokens:
            self.map.put(token, to_domain, {"domain": to_domain}, now)
        return tokens
