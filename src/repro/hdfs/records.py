"""Log-record data model.

The paper's datasets are "lists of records, each consisting of several
fields such as source/user id, log time, destination, etc.", and a
sub-dataset is every record sharing a key (movie id, event type, user).
:class:`Record` captures exactly that: a sub-dataset id, a timestamp, and
an opaque payload whose length drives the record's on-disk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["Record"]

#: Fixed per-record framing overhead (separators, newline) in bytes.
RECORD_OVERHEAD = 2


@dataclass(frozen=True, slots=True)
class Record:
    """One immutable log record.

    Attributes:
        sub_id: the sub-dataset key this record belongs to (e.g. a movie
            id like ``"movie-00042"`` or an event type like
            ``"IssueEvent"``).
        timestamp: seconds since dataset epoch; datasets are stored in
            chronological order, which is what produces content clustering
            inside blocks.
        payload: the record body (review text, event JSON, ...).  Only its
            length matters to the storage layer.
        nbytes: serialized size in bytes (id + timestamp digits + payload
            + framing).  Derived, computed once at construction: block
            packing, scans and every byte sum read it.
    """

    sub_id: str
    timestamp: float
    payload: str = ""
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.sub_id:
            raise ConfigError("record sub_id must be non-empty")
        if self.timestamp < 0:
            raise ConfigError(f"negative timestamp: {self.timestamp}")
        object.__setattr__(
            self,
            "nbytes",
            len(self.sub_id.encode("utf-8"))
            + len(f"{self.timestamp:.3f}")
            + len(self.payload.encode("utf-8"))
            + RECORD_OVERHEAD,
        )

    def serialize(self) -> str:
        """Tab-separated wire format, one record per line."""
        return f"{self.sub_id}\t{self.timestamp:.3f}\t{self.payload}"

    @classmethod
    def deserialize(cls, line: str) -> "Record":
        """Inverse of :meth:`serialize`.

        Raises:
            ConfigError: for a malformed line.
        """
        parts = line.rstrip("\n").split("\t", 2)
        if len(parts) != 3:
            raise ConfigError(f"malformed record line: {line!r}")
        sid, ts, payload = parts
        try:
            timestamp = float(ts)
        except ValueError:
            raise ConfigError(f"malformed record timestamp: {ts!r}") from None
        return cls(sub_id=sid, timestamp=timestamp, payload=payload)
