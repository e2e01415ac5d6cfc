"""``repro.rebalance`` — fix placement skew instead of scheduling around it.

Everything else in the repo treats a skewed layout as a given: the
schedulers (`DistributionAwareScheduler`, ``gray_schedule``) route tasks
*around* it, and the SkewTune-style baseline migrates data *during* a
job and bills the job for it.  This package closes the loop the DataNet
paper motivates: since the resident ElasticMaps already know exactly how
every sub-dataset is spread, a background optimizer can move replicas
*between* jobs so future jobs start from a balanced layout.

Three pieces, used in sequence::

    profile = WorkloadProfile.uniform(hot_sub_ids)
    planner = RebalancePlanner(dataset, datanet, profile,
                               budget_fraction=0.25, seed=7)
    plan = planner.plan()                      # pure search, no mutation
    cluster.watch_placement(dataset.name, datanet)
    RebalanceExecutor(cluster).apply(plan)     # incremental, crash-safe

See :mod:`~repro.rebalance.costmodel` for the objective,
:mod:`~repro.rebalance.planner` for the seed-deterministic annealer and
its invariants, and :mod:`~repro.rebalance.executor` for the
crash-safe apply path.  ``repro rebalance`` runs the three-way
comparison experiment from the command line.
"""

from .costmodel import CostEvaluator, PlacementCostModel, WorkloadProfile
from .executor import ExecutionReport, RebalanceExecutor, layout_digest
from .planner import Move, RebalancePlan, RebalancePlanner, check_plan_invariants

__all__ = [
    "WorkloadProfile",
    "PlacementCostModel",
    "CostEvaluator",
    "RebalancePlanner",
    "RebalancePlan",
    "Move",
    "check_plan_invariants",
    "RebalanceExecutor",
    "ExecutionReport",
    "layout_digest",
]
