"""Tests for speculative execution in the event-driven simulator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sim import SpeculativeSimulator
from repro.sim.tasks import SimTask


def _maps(durations, kind="map"):
    """One task per node, ``t{i}`` on node ``i``."""
    return [
        SimTask(task_id=f"t{i}", node=i, duration=d, kind=kind)
        for i, d in enumerate(durations)
    ]


class TestSpeculation:
    def test_no_stragglers_no_backups(self):
        run = SpeculativeSimulator().run(_maps([10.0, 11.0, 10.5]))
        assert run.backups == {}
        assert run.wasted_seconds == 0.0
        assert run.makespan == 11.0

    def test_anomalous_straggler_rescued(self):
        """A straggler slow for *transient* reasons is helped: the backup
        reruns the same input faster on an idle host."""
        run = SpeculativeSimulator(relocation_speedup=2.0).run(
            _maps([10.0, 10.0, 10.0, 40.0])
        )
        assert "t3" in run.backups
        assert run.effective_end["t3"] < 40.0
        assert run.makespan < 40.0
        assert run.wasted_seconds > 0.0

    def test_data_imbalance_barely_helped(self):
        """The DataNet story: when the straggler's input is simply bigger,
        a backup still has to process it all — speculation recovers only
        the relocation speedup, not the imbalance."""
        run = SpeculativeSimulator(relocation_speedup=1.2).run(
            _maps([10.0, 10.0, 10.0, 40.0])
        )
        # backup: released at the median finish (10), runs 40/1.2 = 33.3
        # -> finishes ~43.3, after the original's 40
        assert "t3" in run.backups
        assert run.effective_end["t3"] >= 40.0 * 0.85
        assert run.makespan > 30.0  # nowhere near the balanced 10s

    def test_non_straggler_untouched(self):
        run = SpeculativeSimulator(relocation_speedup=3.0).run(
            _maps([10.0, 12.0, 50.0])
        )
        assert run.effective_end["t0"] == 10.0
        assert run.effective_end["t1"] == 12.0

    def test_backup_host_is_fastest_finisher(self):
        run = SpeculativeSimulator(relocation_speedup=2.0).run(
            _maps([5.0, 10.0, 10.0, 60.0])
        )
        assert run.timeline.tasks[run.backups["t3"]].node == 0

    def test_multiple_stragglers(self):
        run = SpeculativeSimulator(relocation_speedup=2.0).run(
            _maps([10.0, 10.0, 10.0, 50.0, 45.0])
        )
        assert set(run.backups) == {"t3", "t4"}
        assert run.makespan < 50.0

    def test_all_zero_durations(self):
        run = SpeculativeSimulator().run(_maps([0.0, 0.0]))
        assert run.makespan == 0.0
        assert run.backups == {}

    def test_validation(self):
        with pytest.raises(ConfigError):
            SpeculativeSimulator(slowdown_threshold=1.0)
        with pytest.raises(ConfigError):
            SpeculativeSimulator(relocation_speedup=0.9)
        with pytest.raises(ConfigError):
            SpeculativeSimulator(speculate_kinds=())
        with pytest.raises(ConfigError):
            _maps([-1.0])


class TestSchedulingVsSpeculation:
    def test_datanet_beats_speculation_on_imbalanced_input(self):
        """End-to-end: apply speculation to the imbalanced (stock) map
        phase and compare with DataNet's balanced phase — proactive
        balancing should win."""
        from repro.experiments import ReferenceConfig
        from repro.experiments.pipeline import run_reference_pipeline

        pipe = run_reference_pipeline(ReferenceConfig.small())
        base_maps = pipe.without_datanet.jobs["top_k_search"].map_times
        aware_maps = pipe.with_datanet.jobs["top_k_search"].map_times
        run = SpeculativeSimulator(slots_per_node=2).run(
            _maps([base_maps[n] for n in sorted(base_maps)])
        )
        assert max(aware_maps.values()) <= run.makespan * 1.1


class TestSpeculationEdgeCases:
    """Satellite coverage: all-slow waves, exact threshold ties, disabled
    speculation, and health-tightened thresholds."""

    def test_all_tasks_slow_wave_never_speculates(self):
        """A uniformly slow wave has no straggler: the median scales with
        the wave, so nothing crosses the relative threshold."""
        run = SpeculativeSimulator().run(_maps([500.0] * 6))
        assert run.backups == {} and run.wasted_seconds == 0.0
        assert run.makespan == 500.0
        assert len(run.ledger) == 6  # every task settled exactly once

    def test_exact_tie_at_threshold_not_speculated(self):
        """`duration == threshold * median` is NOT a straggler (strict >)."""
        run = SpeculativeSimulator(slowdown_threshold=1.5).run(
            _maps([1.0, 1.0, 1.0, 1.5])
        )
        assert run.backups == {}
        # ...and just past the tie, speculation fires
        run2 = SpeculativeSimulator(slowdown_threshold=1.5).run(
            _maps([1.0, 1.0, 1.0, 1.5000001])
        )
        assert "t3" in run2.backups

    def test_speculation_disabled_by_kind_filter(self):
        """A task set outside `speculate_kinds` gets no backups no matter
        how extreme the straggler."""
        run = SpeculativeSimulator(speculate_kinds=("reduce",)).run(
            _maps([1.0, 1.0, 1.0, 100.0], kind="map")
        )
        assert run.backups == {} and run.wasted_seconds == 0.0
        assert run.makespan == 100.0

    def test_single_candidate_never_speculates(self):
        run = SpeculativeSimulator().run(_maps([100.0]))
        assert run.backups == {}

    def test_health_tightens_threshold(self):
        """A suspected node's straggler multiple shrinks toward 1 with its
        health; a healthy node keeps the configured margin."""
        sim = SpeculativeSimulator(slowdown_threshold=1.5, health={3: 0.5})
        assert sim.threshold_for(0) == 1.5
        assert sim.threshold_for(3) == 1.25

    def test_health_tightens_threshold_in_simulator(self):
        """A 1.4x-median task on a suspected node is speculated even though
        it sits below the uniform 1.5x threshold."""
        tasks = _maps([1.0, 1.0, 1.0, 1.4])
        assert SpeculativeSimulator(slowdown_threshold=1.5).run(tasks).backups == {}
        run = SpeculativeSimulator(
            slowdown_threshold=1.5, health={3: 0.5}
        ).run(tasks)
        assert "t3" in run.backups

    def test_invalid_health_rejected(self):
        with pytest.raises(ConfigError):
            SpeculativeSimulator(health={0: 0.0})
        with pytest.raises(ConfigError):
            SpeculativeSimulator(health={0: 2.0})

    def test_backup_race_settled_through_ledger(self):
        """Every speculated task has exactly one counted completion and one
        duplicate — the ledger proves no double counting."""
        run = SpeculativeSimulator(relocation_speedup=2.0).run(
            _maps([1.0, 1.0, 1.0, 40.0])
        )
        assert "t3" in run.backups
        assert len(run.ledger) == 4  # one win per ORIGINAL task id
        assert run.ledger.duplicates == len(run.backups)
        win = run.ledger.winner("t3")
        assert win.arrival == run.effective_end["t3"]
        assert win.source == run.backups["t3"]  # the backup copy won
