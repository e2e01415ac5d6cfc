"""Cost model: how simulated time advances per task.

Parameters are calibrated to the paper's testbed class (1.6 GHz Opterons,
GbE, SATA disks — Section V) at the *scaled* block size the experiments
use; only ratios matter for reproducing the paper's comparisons, and the
defaults put the four applications in the same relative regime the paper
reports (Fig. 5a: MovingAverage gains least, TopKSearch most).

Task time decomposition (selection tasks are priced by
:func:`price_selection`, analysis tasks in :mod:`repro.sim.adapter`):

- selection map task = overhead + block_bytes/disk + block_bytes·filter_cpu
  (+ block_bytes/network when reading a remote replica)
- analysis map (per node) = overhead + local_bytes/disk +
  local_bytes·cpu_per_byte + records·cpu_per_record
- shuffle / reduce: see :mod:`repro.sim.adapter` and the profiles'
  ``shuffle_selectivity`` / ``reduce_cost_per_byte``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..hdfs.cluster import DatasetView
    from ..hdfs.coded import CodedReader
    from ..hdfs.hedged import HedgedReader
    from ..hdfs.records import Record
    from ..hdfs.scrubber import ReadVerifier

from ..errors import ConfigError, JobError

__all__ = ["ClusterCostModel", "AppProfile", "PROFILES", "price_selection"]


@dataclass(frozen=True)
class ClusterCostModel:
    """Hardware-side cost parameters (seconds, bytes/second).

    Attributes:
        disk_read_bps: sequential local-disk read bandwidth.
        disk_write_bps: local-disk write bandwidth.
        network_bps: point-to-point network bandwidth (GbE-class).
        remote_read_penalty: multiplier on transfer time for non-local
            reads (protocol overhead over raw bandwidth).
        decode_bps: erasure-decode throughput (GF(256) table arithmetic
            is CPU-bound; modern single-core RS decode sustains hundreds
            of MB/s).  Charged on stripe bytes whenever a read or repair
            has to combine parity instead of copying a shard verbatim.
        task_overhead_s: fixed JVM/task-launch overhead per task.
        job_overhead_s: fixed per-job overhead (job setup/cleanup waves,
            scheduling) charged once per analysis job, identical for both
            scheduling methods.
        data_scale: simulated bytes per stored byte.  Experiments store
            scaled-down blocks (e.g. 64 KiB standing in for the paper's
            64 MB); ``data_scale=1024`` makes the clock advance as if the
            data were full size.  Applies uniformly to I/O, CPU and
            shuffle terms, so it changes magnitudes, never comparisons.
    """

    disk_read_bps: float = 80e6
    disk_write_bps: float = 60e6
    network_bps: float = 100e6
    remote_read_penalty: float = 1.2
    decode_bps: float = 400e6
    task_overhead_s: float = 0.15
    job_overhead_s: float = 1.5
    data_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("disk_read_bps", "disk_write_bps", "network_bps", "decode_bps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.remote_read_penalty < 1.0:
            raise ConfigError("remote_read_penalty must be >= 1")
        if self.task_overhead_s < 0:
            raise ConfigError("task_overhead_s must be non-negative")
        if self.job_overhead_s < 0:
            raise ConfigError("job_overhead_s must be non-negative")
        if self.data_scale <= 0:
            raise ConfigError("data_scale must be positive")

    # -- elementary costs -------------------------------------------------------

    def read_local(self, nbytes: float) -> float:
        """Seconds to read ``nbytes`` stored bytes from local disk."""
        return self.data_scale * nbytes / self.disk_read_bps

    def read_remote(self, nbytes: float) -> float:
        """Seconds to read ``nbytes`` stored bytes over the network."""
        scaled = self.data_scale * nbytes
        return self.remote_read_penalty * scaled / self.network_bps + self.read_local(
            nbytes
        )

    def write_local(self, nbytes: float) -> float:
        """Seconds to write ``nbytes`` stored bytes to local disk."""
        return self.data_scale * nbytes / self.disk_write_bps

    def transfer(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` stored bytes node-to-node."""
        return self.data_scale * nbytes / self.network_bps

    def decode(self, nbytes: float) -> float:
        """Seconds of CPU to erasure-decode ``nbytes`` of stripe data."""
        return self.data_scale * nbytes / self.decode_bps


@dataclass(frozen=True)
class AppProfile:
    """Per-application compute/shuffle weights.

    Attributes:
        name: application name (matches :data:`PROFILES` keys).
        cpu_cost_per_byte: map-side compute seconds per input byte.
        cpu_cost_per_record: map-side compute seconds per record.
        shuffle_selectivity: intermediate bytes emitted per input byte
            (post-combiner).
        reduce_cost_per_byte: reduce compute seconds per shuffled byte.
        filter_cpu_per_byte: selection-phase predicate cost per byte.
    """

    name: str
    cpu_cost_per_byte: float
    cpu_cost_per_record: float = 0.0
    shuffle_selectivity: float = 0.1
    reduce_cost_per_byte: float = 2e-8
    filter_cpu_per_byte: float = 5e-9

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("profile name must be non-empty")
        for field_name in (
            "cpu_cost_per_byte",
            "cpu_cost_per_record",
            "shuffle_selectivity",
            "reduce_cost_per_byte",
            "filter_cpu_per_byte",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be non-negative")

    def map_cpu_seconds(self, nbytes: float, nrecords: int) -> float:
        """Map-side compute seconds for a chunk of filtered sub-dataset."""
        return self.cpu_cost_per_byte * nbytes + self.cpu_cost_per_record * nrecords


#: The paper's four applications, ordered by compute weight.  The spread of
#: ``cpu_cost_per_byte`` (iterate-only -> tokenise+combine -> similarity
#: search) is what yields the improvement ordering of Fig. 5a.
PROFILES: dict = {
    "moving_average": AppProfile(
        name="moving_average",
        cpu_cost_per_byte=1.5e-8,    # a single pass of float parsing
        shuffle_selectivity=0.05,    # one average per window
        reduce_cost_per_byte=1e-8,
    ),
    "word_count": AppProfile(
        name="word_count",
        cpu_cost_per_byte=2.2e-7,    # tokenise + combine per word
        cpu_cost_per_record=2e-7,
        shuffle_selectivity=0.30,    # combiner compresses word counts
        reduce_cost_per_byte=3e-8,
    ),
    "histogram": AppProfile(
        name="histogram",
        cpu_cost_per_byte=2.5e-7,    # tokenise + aggregate plug-in
        cpu_cost_per_record=2e-7,
        shuffle_selectivity=0.20,
        reduce_cost_per_byte=3e-8,
    ),
    "top_k_search": AppProfile(
        name="top_k_search",
        cpu_cost_per_byte=5e-7,      # similarity comparison per sequence
        cpu_cost_per_record=3e-6,
        shuffle_selectivity=0.01,    # only local top-K leaves the mapper
        reduce_cost_per_byte=1e-8,
    ),
    "grep": AppProfile(
        name="grep",
        cpu_cost_per_byte=2e-8,
        shuffle_selectivity=0.02,
        reduce_cost_per_byte=1e-8,
    ),
}


def price_selection(
    cost: ClusterCostModel,
    dataset: "DatasetView",
    sub_id: str,
    placement: Mapping[int, Any],
    node: Hashable,
    bid: int,
    profile: AppProfile,
    *,
    verify: Optional["ReadVerifier"] = None,
    hedge: Optional["HedgedReader"] = None,
    when: float = 0.0,
    replicas: Optional[Sequence[Hashable]] = None,
    coded: Optional["CodedReader"] = None,
) -> Tuple[float, List["Record"], int]:
    """Price one selection task: read + filter + write for one block.

    Returns ``(duration, matched_records, block_bytes)``.  Every selection
    task is priced here: the engine's, the chaos runner's, the wave
    checkpoint's and the job-graph builder's.

    Without a reader, the read is a plain replica read: local when
    ``node`` holds a replica, remote otherwise.

    With a ``verify`` read verifier, the read goes through the
    checksum-verified path: a rotten local replica costs a remote refetch
    + in-place repair, and a block with no verified replica raises
    :class:`~repro.errors.IntegrityError` instead of producing output from
    corrupt data.  Without corruption the verified cost is identical to
    the plain one.

    With a ``hedge`` reader, remote reads go through the hedged path
    instead: the reader picks the healthiest reachable replica at clock
    ``when`` and races a backup read once its adaptive latency trigger
    fires (corrupt blocks are delegated to the hedge's wrapped verifier).
    ``replicas`` overrides the replica set considered for the read — the
    chaos runner passes only the holders reachable from ``node`` when a
    partition is active.

    With a ``coded`` reader (an erasure-coded dataset), the read assembles
    the k fastest fragments, hedges a spare, and degrades through parity —
    charging decode CPU via
    :meth:`~repro.mapreduce.costmodel.ClusterCostModel.decode` — when data
    fragments are rotten or unreachable.  ``verify`` and ``hedge`` are
    replica-path tools and are ignored for coded reads.

    Raises:
        JobError: when the block is not part of the dataset placement.
    """
    if bid not in placement:
        raise JobError(
            f"assignment references unknown block {bid} of dataset {dataset.name!r}"
        )
    block = dataset.block(bid)
    nbytes = block.used_bytes
    holders = tuple(replicas) if replicas is not None else tuple(placement[bid])
    read_args = (
        dataset.name, bid, node, holders, nbytes,
        cost.read_local, cost.read_remote, cost.write_local,
    )
    if coded is not None:
        read = coded.read_cost(*read_args, when=when, decode=cost.decode)
    elif hedge is not None:
        read = hedge.read_cost(*read_args, when=when)
    elif verify is not None:
        read = verify.read_cost(*read_args)
    else:
        read = cost.read_local(nbytes) if node in holders else cost.read_remote(nbytes)
    matched = block.filter(sub_id)
    out_bytes = sum(r.nbytes for r in matched)
    duration = (
        cost.task_overhead_s
        + read
        + profile.filter_cpu_per_byte * nbytes * cost.data_scale
        + cost.write_local(out_bytes)
    )
    return duration, matched, nbytes
