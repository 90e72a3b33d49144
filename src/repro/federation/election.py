"""Gossip-elected takeover: deterministic successor choice without a ballot.

When a domain's controller is declared dead, exactly one surviving domain
must adopt its orphaned instances and flow ownership — two adopters would
double-register the instances, zero would strand them.  Instead of running a
vote over the (possibly lossy) inter-domain channels, the federation uses
**rendezvous (highest-random-weight) hashing** over the gossiped membership
view: every domain independently scores each live candidate with the stable
keyed hash already used by the shard ring
(:func:`repro.core.sharding.stable_hash`), and the minimum score wins.

Because the score depends only on ``(dead domain, candidate)``, any two
domains whose membership views have converged compute the *same* winner with
zero extra messages — the election is "gossip-elected" in the sense that the
gossip layer's convergence is the agreement mechanism.  If views are briefly
split, the losers' adoption attempts are idempotently skipped (an instance
already adopted elsewhere is simply not re-registered once the ownership
update gossips back).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.sharding import stable_hash


def takeover_score(dead_domain: str, candidate: str) -> int:
    """The rendezvous weight of *candidate* for adopting *dead_domain*."""
    return stable_hash(f"takeover|{dead_domain}|{candidate}")


def elect_successor(dead_domain: str, candidates: Sequence[str]) -> Optional[str]:
    """The unique survivor elected to adopt *dead_domain*'s instances.

    *candidates* is the set of live domains (the dead domain itself is
    excluded if present).  Returns None when no candidate survives.  The
    choice is a pure function of the inputs, so converged membership views
    elect the same successor everywhere.
    """
    field = sorted(c for c in candidates if c != dead_domain)
    if not field:
        return None
    return min(field, key=lambda candidate: (takeover_score(dead_domain, candidate), candidate))
