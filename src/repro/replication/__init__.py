"""Quorum-replicated metadata plane: replicated journal + leader election.

The serve stack's metadata journal has the classic NameNode-HA shape:
:class:`ReplicatedJournal` commits each checksummed frame at majority
quorum with ``(epoch, seq)`` stamps and anti-entropy catch-up,
:class:`LeaderElector` runs deterministic Raft-lite elections on the
simulated clock, and the fencing epoch the journal quorum promises is
the same token the cluster mutation path checks — so a deposed leader's
writes are rejected everywhere, not just at the journal.

The package deliberately imports nothing from ``repro.serve``: the serve
daemon layers on top of it, not the other way around.
"""

from .election import ElectionRecord, ElectionResult, LeaderElector, detection_delay
from .journal import JournalReplica, QuorumFrame, ReplicatedJournal

__all__ = [
    "ElectionRecord",
    "ElectionResult",
    "JournalReplica",
    "LeaderElector",
    "QuorumFrame",
    "ReplicatedJournal",
    "detection_delay",
]
