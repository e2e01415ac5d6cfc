"""The metadata digest the service's crash oracles compare.

The analysis service journals every indexed block through
:class:`~repro.replication.ReplicatedJournal` at every replica count:
one replica is a quorum of one.  That module owns the one frame codec
(``RPQ1``) and its torn-tail rule.
"""

from __future__ import annotations

import hashlib
import struct

from ..core.elasticmap import ElasticMapArray
from ..replication.journal import ReplicatedJournal

__all__ = ["array_digest"]

#: The benchmark's span installer (``benchmarks/e2e/spans.py``) still
#: looks its ``serve.journal`` hooks up under this name; it goes when
#: those hooks move into :mod:`repro.obs`.
MetadataJournal = ReplicatedJournal


def array_digest(array: ElasticMapArray) -> str:
    """Content digest of a whole metadata array (block order normalized).

    Two arrays digest equal iff every block's serialized form matches —
    the byte-identity oracle behind the crash/no-crash acceptance runs.
    """
    h = hashlib.blake2b(digest_size=16)
    for block_id in array.block_ids:
        blob = array[block_id].to_bytes()
        h.update(struct.pack("<QI", block_id, len(blob)))
        h.update(blob)
    return h.hexdigest()
