"""Discrete-event cluster simulator.

The one time model of the repository: every job time — the engine's
(:mod:`repro.mapreduce.engine`), the concurrent batch's and the analysis
service's — comes from an event-driven simulation of priced tasks, so
task-level interleavings (jobs sharing the cluster, slot contention,
speculative copies racing originals) follow the same rules as a single
job:

- :mod:`repro.sim.tasks` — tasks with durations, fixed node assignments
  and dependency edges.
- :mod:`repro.sim.simulator` — the event loop: per-node slot pools, FIFO
  ready queues, dependency release on completion.
- :mod:`repro.sim.adapter` — prices tasks and builds task graphs from
  MapReduce jobs (selection → map → shuffle → reduce), so a whole
  multi-job workload can be replayed event by event.
- :mod:`repro.sim.speculation` — backup copies of straggling tasks.
- :mod:`repro.sim.gantt` — text timelines of the simulated schedule.
"""

from .tasks import SimTask, TaskTimeline
from .simulator import DiscreteEventSimulator, SimulationResult
from .adapter import JobGraphBuilder, build_job_graph
from .speculation import SpeculativeSimulator, SpeculativeRun
from .gantt import render_gantt

__all__ = [
    "SimTask",
    "TaskTimeline",
    "DiscreteEventSimulator",
    "SimulationResult",
    "JobGraphBuilder",
    "build_job_graph",
    "SpeculativeSimulator",
    "SpeculativeRun",
    "render_gantt",
]
