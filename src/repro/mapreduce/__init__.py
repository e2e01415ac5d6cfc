"""Discrete-event MapReduce engine.

The execution substrate standing in for the paper's Hadoop deployment.
Map/reduce functions *really execute* over stored records (outputs are
checkable), while per-node wall time advances on simulated clocks driven
by an explicit cost model — the standard way to study scheduling effects
without a 128-node testbed.

Modules:

- :mod:`repro.mapreduce.costmodel` — disk/network/CPU cost parameters and
  per-application profiles.
- :mod:`repro.mapreduce.job` — job definition (mapper/combiner/reducer).
- :mod:`repro.mapreduce.scheduler` — the *default Hadoop* block-locality
  scheduler (the paper's "without DataNet" baseline).
- :mod:`repro.mapreduce.engine` — phase execution: selection (filter map
  over blocks) and analysis (map/shuffle/reduce over filtered data), both
  timed on the discrete-event simulator (:mod:`repro.sim`).
- :mod:`repro.mapreduce.apps` — the paper's four analysis applications
  plus extras.
"""

from .costmodel import AppProfile, ClusterCostModel, PROFILES
from .job import MapReduceJob
from .scheduler import LocalityScheduler
from .engine import (
    MapReduceEngine,
    PhaseResult,
    JobResult,
    SelectionResult,
    ShuffleResult,
)

__all__ = [
    "AppProfile",
    "ClusterCostModel",
    "PROFILES",
    "MapReduceJob",
    "LocalityScheduler",
    "ShuffleResult",
    "MapReduceEngine",
    "PhaseResult",
    "JobResult",
    "SelectionResult",
]
