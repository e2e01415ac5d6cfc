"""Quorum-replicated write-ahead journal for the metadata plane.

The analysis service commits every indexed block's ElasticMap here
before it counts as durable, at every replica count: one replica is a
quorum of one.  The journal has the HDFS JournalNode / Raft-log shape:

* every committed frame carries a monotonic ``(epoch, seq)`` pair —
  ``epoch`` is the writing leader's fencing token, ``seq`` a dense
  per-journal sequence number, so any replica can detect gaps in what it
  holds and any reader can order frames without trusting the writer;
* :class:`ReplicatedJournal` fans each frame out to N
  :class:`JournalReplica` logs and acknowledges an append only once a
  majority (``n // 2 + 1``) holds it.  A minority of crashed or
  partitioned replicas never blocks commits and never loses them;
* replicas that fall behind (crash, partition, torn tail) catch up via
  **anti-entropy frame transfer**: the missing ``seq`` range is copied
  from the committed log before the next append lands, so logs are
  always dense prefixes and divergence is structurally impossible;
* **fencing**: :meth:`ReplicatedJournal.fence` has a majority promise a
  new epoch, after which any append stamped with an older epoch is
  rejected with :class:`~repro.errors.StaleLeaderError` — the split-brain
  guard that lets a deposed leader fail cleanly instead of corrupting
  the layout.

Everything is synchronous and deterministic: the same append sequence
over the same replica fault script yields byte-identical logs, which is
what lets the failover drills diff digests bit for bit.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError, QuorumLostError, StaleLeaderError, TornFrameError

__all__ = ["QuorumFrame", "JournalReplica", "ReplicatedJournal"]

MAGIC = b"RPQ1"
KIND_BLOCK = 1
#: length | kind | block id | epoch | seq  (all little-endian)
_FRAME_HEAD = struct.Struct("<IBQQQ")
_CHECKSUM = struct.Struct("<Q")


def _frame_checksum(head: bytes, payload: bytes) -> int:
    digest = hashlib.blake2b(head + payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class QuorumFrame:
    """One replicated journal frame: a block payload stamped ``(epoch, seq)``."""

    epoch: int
    seq: int
    block_id: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.epoch < 0 or self.seq <= 0 or self.block_id < 0:
            raise ConfigError(
                f"frame needs epoch >= 0, seq >= 1, block_id >= 0; got "
                f"({self.epoch}, {self.seq}, {self.block_id})"
            )

    def to_bytes(self) -> bytes:
        head = _FRAME_HEAD.pack(
            len(self.payload), KIND_BLOCK, self.block_id, self.epoch, self.seq
        )
        return head + self.payload + _CHECKSUM.pack(
            _frame_checksum(head, self.payload)
        )


def read_frames(blob: bytes) -> Tuple[List[QuorumFrame], int]:
    """Parse a replica log; returns ``(frames, torn_bytes)``.

    An incomplete or checksum-failing *final* frame is a crash artifact
    and a clean stop, while a corrupt frame with committed frames behind
    it raises :class:`~repro.errors.TornFrameError` (dropping it would
    silently lose committed records).
    """
    if blob[: len(MAGIC)] != MAGIC:
        raise ConfigError("not a replicated journal (bad magic)")
    frames: List[QuorumFrame] = []
    pos = len(MAGIC)
    n = len(blob)
    while pos + _FRAME_HEAD.size <= n:
        length, kind, block_id, epoch, seq = _FRAME_HEAD.unpack_from(blob, pos)
        body_start = pos + _FRAME_HEAD.size
        body_end = body_start + length
        frame_end = body_end + _CHECKSUM.size
        if frame_end > n:
            break  # torn tail — the crash cut this frame short
        payload = bytes(blob[body_start:body_end])
        (stored,) = _CHECKSUM.unpack_from(blob, body_end)
        head = bytes(blob[pos : pos + _FRAME_HEAD.size])
        computed = _frame_checksum(head, payload)
        if kind != KIND_BLOCK or stored != computed:
            if frame_end < n:
                raise TornFrameError(
                    f"corrupt non-final journal frame at offset {pos} "
                    f"(expected checksum {stored:#018x}, got {computed:#018x})",
                    offset=pos,
                    expected_checksum=stored,
                    actual_checksum=computed,
                )
            break  # corrupt final frame: a torn in-place write, clean stop
        frames.append(QuorumFrame(epoch, seq, block_id, payload))
        pos = frame_end
    return frames, n - pos


class JournalReplica:
    """One journal node: a dense, fenced, append-only frame log.

    The replica enforces the two local invariants the quorum layer leans
    on: its log is a *dense* seq prefix (a frame only lands at
    ``last_seq + 1``; anything else demands anti-entropy first), and it
    never accepts an install from a leader whose epoch is below the one
    it last promised (fencing).
    """

    def __init__(self, replica_id: str) -> None:
        if not replica_id:
            raise ConfigError("replica id must be non-empty")
        self.replica_id = replica_id
        self._buf = bytearray(MAGIC)
        self._frames: List[QuorumFrame] = []
        self.promised_epoch = 0
        self.up = True
        self.reachable = True

    # -- state -------------------------------------------------------------------

    @property
    def available(self) -> bool:
        """Whether the leader can currently reach this replica."""
        return self.up and self.reachable

    @property
    def last_seq(self) -> int:
        return self._frames[-1].seq if self._frames else 0

    @property
    def last_epoch(self) -> int:
        return self._frames[-1].epoch if self._frames else 0

    @property
    def frames(self) -> Tuple[QuorumFrame, ...]:
        return tuple(self._frames)

    def to_bytes(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    # -- the replica protocol ------------------------------------------------------

    def promise(self, epoch: int) -> bool:
        """Promise to reject writes below ``epoch``; False when unreachable
        or the epoch regresses (promises are monotonic)."""
        if not self.available:
            return False
        if epoch < self.promised_epoch:
            return False
        self.promised_epoch = epoch
        return True

    def install(self, frame: QuorumFrame, *, leader_epoch: int) -> bool:
        """Store one frame driven by a leader at ``leader_epoch``.

        Old committed frames keep their original epoch stamp during
        anti-entropy transfer, so fencing is checked against the *driving
        leader's* epoch, not the frame's.  Returns False (no write) when
        the replica is unreachable, the leader is fenced off, or the
        frame would leave a gap; True on a store *or* an idempotent
        re-send of a frame already held.
        """
        if not self.available:
            return False
        if leader_epoch < self.promised_epoch:
            return False
        if frame.seq <= self.last_seq:
            return True  # duplicate re-send: already durable here
        if frame.seq != self.last_seq + 1:
            return False  # gap: this replica needs anti-entropy first
        if self._frames and (frame.epoch, frame.seq) <= (
            self._frames[-1].epoch,
            self._frames[-1].seq,
        ):
            return False  # (epoch, seq) must be strictly monotonic
        self._frames.append(frame)
        self._buf += frame.to_bytes()
        return True

    # -- fault injection -----------------------------------------------------------

    def crash(self, *, at_byte: Optional[int] = None) -> None:
        """Kill the replica; ``at_byte`` truncates its durable log there.

        Truncation models a crash mid-write: the surviving prefix is
        re-parsed with the torn-tail discipline, so a half-written final
        frame is dropped and the log stays a dense committed prefix.
        """
        self.up = False
        if at_byte is None:
            return
        if at_byte < len(MAGIC):
            at_byte = len(MAGIC)
        frames, _torn = read_frames(bytes(self._buf[:at_byte]))
        self._frames = frames
        self._buf = bytearray(MAGIC)
        for frame in frames:
            self._buf += frame.to_bytes()

    def restore(self) -> None:
        self.up = True


class ReplicatedJournal:
    """Leader-side quorum journal over N :class:`JournalReplica` logs.

    The serve daemon journals through ``append_block`` /
    ``append_array`` and reads ``record_count`` / ``committed_blocks``.
    The replication verbs: ``fence`` a new epoch onto a majority,
    ``crash_replica``/``restore_replica``/``partition``/``heal`` for
    fault drills, and ``recover`` to rebuild the committed state from
    any surviving majority after the driver or the leader dies.
    """

    def __init__(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ConfigError(
                f"a replicated journal needs >= 1 replica, got {num_replicas}"
            )
        self.replicas: Dict[str, JournalReplica] = {
            f"journal-{i}": JournalReplica(f"journal-{i}")
            for i in range(num_replicas)
        }
        self._epoch = 0
        self._seq = 0
        self._frames: List[QuorumFrame] = []
        self._entries: Dict[int, bytes] = {}
        self.peak_lag = 0
        self.frames_transferred = 0
        self.stale_rejections = 0

    # -- introspection -------------------------------------------------------------

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        return len(self.replicas) // 2 + 1

    @property
    def replica_ids(self) -> List[str]:
        return sorted(self.replicas)

    @property
    def epoch(self) -> int:
        """The last epoch fenced onto a quorum (the live fencing token)."""
        return self._epoch

    @property
    def committed_seq(self) -> int:
        return self._seq

    @property
    def record_count(self) -> int:
        return len(self._frames)

    @property
    def committed_blocks(self) -> List[int]:
        return sorted(self._entries)

    @property
    def entries(self) -> Dict[int, bytes]:
        """Committed block id → payload (a copy)."""
        return dict(self._entries)

    def replica_lag(self) -> Dict[str, int]:
        """Committed frames each replica is missing (0 = fully caught up)."""
        return {
            rid: max(0, self._seq - replica.last_seq)
            for rid, replica in sorted(self.replicas.items())
        }

    def _note_lag(self) -> None:
        lags = self.replica_lag().values()
        if lags:
            self.peak_lag = max(self.peak_lag, max(lags))

    # -- fencing -------------------------------------------------------------------

    def fence(self, epoch: int) -> int:
        """Promise ``epoch`` onto a majority; returns the promise count.

        Raises:
            StaleLeaderError: the epoch regresses below the live fence.
            QuorumLostError: fewer than a majority could promise.
        """
        if epoch < self._epoch:
            raise StaleLeaderError(
                f"fencing token may not regress: {epoch} < {self._epoch}",
                epoch=epoch,
                fence=self._epoch,
            )
        promises = sum(
            1 for rid in self.replica_ids if self.replicas[rid].promise(epoch)
        )
        if promises < self.quorum:
            raise QuorumLostError(
                f"fencing epoch {epoch} reached {promises}/{self.num_replicas} "
                f"replicas; quorum is {self.quorum}",
                acks=promises,
                quorum=self.quorum,
            )
        self._epoch = epoch
        return promises

    # -- appends -------------------------------------------------------------------

    def _sync(self, replica: JournalReplica, *, leader_epoch: int) -> int:
        """Anti-entropy: copy the committed frames ``replica`` is missing."""
        moved = 0
        for frame in self._frames[replica.last_seq :]:
            if not replica.install(frame, leader_epoch=leader_epoch):
                break
            moved += 1
        self.frames_transferred += moved
        return moved

    def append_block(self, block_map, *, epoch: Optional[int] = None) -> bool:
        """Commit one block's metadata at majority quorum.

        ``epoch`` defaults to the last fenced epoch; a deposed leader
        still holding an older token passes it explicitly and is
        rejected.  Returns False when the block is already committed
        (idempotent replay: re-indexing a journaled block writes nothing).

        Raises:
            StaleLeaderError: a newer epoch has been fenced; this writer
                must stop.
            QuorumLostError: fewer than a majority of replicas reachable.
        """
        e = self._epoch if epoch is None else epoch
        block_id = block_map.block_id
        if block_id in self._entries:
            return False
        # Synchronous pre-check: the set of replicas that will accept is
        # exact, so a failed round writes nothing and logs never diverge.
        ready: List[JournalReplica] = []
        fenced = 0
        for rid in self.replica_ids:
            replica = self.replicas[rid]
            if not replica.available:
                continue
            if replica.promised_epoch > e:
                fenced += 1
                continue
            ready.append(replica)
        if len(ready) < self.quorum:
            if fenced:
                self.stale_rejections += 1
                raise StaleLeaderError(
                    f"append at epoch {e} fenced off by {fenced} replica(s) "
                    f"promised a newer epoch",
                    epoch=e,
                    fence=max(
                        r.promised_epoch for r in self.replicas.values()
                    ),
                )
            raise QuorumLostError(
                f"append reached {len(ready)}/{self.num_replicas} replicas; "
                f"quorum is {self.quorum}",
                acks=len(ready),
                quorum=self.quorum,
            )
        frame = QuorumFrame(e, self._seq + 1, block_id, block_map.to_bytes())
        for replica in ready:
            if replica.last_seq < self._seq:
                self._sync(replica, leader_epoch=e)
            if not replica.install(frame, leader_epoch=e):
                raise ConfigError(
                    f"replica {replica.replica_id} refused a pre-checked "
                    "frame — quorum bookkeeping is inconsistent"
                )
        self._seq += 1
        self._frames.append(frame)
        self._entries[block_id] = frame.payload
        self._note_lag()
        return True

    def append_array(self, array) -> int:
        """Commit every block of an array; returns frames written."""
        return sum(1 for bm in array if self.append_block(bm))

    # -- fault drill verbs ---------------------------------------------------------

    def _replica(self, replica_id: str) -> JournalReplica:
        try:
            return self.replicas[replica_id]
        except KeyError:
            raise ConfigError(f"unknown journal replica {replica_id!r}") from None

    def crash_replica(
        self, replica_id: str, *, at_byte: Optional[int] = None
    ) -> None:
        self._replica(replica_id).crash(at_byte=at_byte)

    def restore_replica(self, replica_id: str) -> int:
        """Bring a replica back and catch it up; returns frames transferred."""
        replica = self._replica(replica_id)
        replica.restore()
        return self._sync(replica, leader_epoch=self._epoch)

    def partition(self, replica_ids: Iterable[str]) -> None:
        for rid in replica_ids:
            self._replica(rid).reachable = False

    def heal(self, replica_ids: Iterable[str]) -> int:
        """Reconnect partitioned replicas and catch them up."""
        moved = 0
        for rid in sorted(replica_ids):
            replica = self._replica(rid)
            replica.reachable = True
            if replica.up:
                moved += self._sync(replica, leader_epoch=self._epoch)
        return moved

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> Dict[int, bytes]:
        """Rebuild committed state from a surviving majority.

        A new leader (or the restarted old one) reads every reachable
        replica, adopts the longest log among them — every committed
        frame was acked by a majority, and logs are dense prefixes, so
        any majority's longest log contains all of them — then
        anti-entropies the rest of the quorum up to it.  First commit
        per block wins, so replay is idempotent.  This is the one crash
        recovery path: a restarted driver and an elected successor both
        read committed state back through it.

        Raises:
            QuorumLostError: fewer than a majority of replicas reachable.
        """
        up = [self.replicas[rid] for rid in self.replica_ids if self.replicas[rid].available]
        if len(up) < self.quorum:
            raise QuorumLostError(
                f"recovery found {len(up)}/{self.num_replicas} replicas; "
                f"quorum is {self.quorum}",
                acks=len(up),
                quorum=self.quorum,
            )
        best = max(up, key=lambda r: (r.last_seq, r.last_epoch, r.replica_id))
        frames = list(best.frames)
        self._frames = frames
        self._seq = frames[-1].seq if frames else 0
        entries: Dict[int, bytes] = {}
        for frame in frames:
            if frame.block_id not in entries:
                entries[frame.block_id] = frame.payload
        self._entries = entries
        for replica in up:
            if replica is not best:
                self._sync(replica, leader_epoch=self._epoch)
        self._note_lag()
        return dict(entries)
