"""Long-lived multi-tenant analysis service over one DataNet deployment.

The serving layer stacks on the batch machinery: admission control and
weighted fair queueing (:mod:`repro.serve.admission`), a write-ahead
quorum journal for crash-safe incremental metadata
(:class:`~repro.replication.ReplicatedJournal`, a quorum of one at the
default single replica), and the driver event loop with deadlines, crash
recovery, fenced leader failover, and graceful degradation
(:mod:`repro.serve.service`).  :mod:`repro.serve.scenario` packages
deterministic drills for the CLI, CI soak, and tests.
"""

from .admission import (
    AdmissionController,
    TenantSpec,
    TokenBucket,
    WeightedFairQueue,
)
from .journal import array_digest
from .scenario import DrillConfig, DrillSetup, build_drill, run_service_drill
from .service import (
    AnalysisService,
    AppendBatch,
    JobRequest,
    MetaOutageWindow,
    ServiceConfig,
)

__all__ = [
    "AdmissionController",
    "AnalysisService",
    "AppendBatch",
    "DrillConfig",
    "DrillSetup",
    "JobRequest",
    "MetaOutageWindow",
    "ServiceConfig",
    "TenantSpec",
    "TokenBucket",
    "WeightedFairQueue",
    "array_digest",
    "build_drill",
    "run_service_drill",
]
