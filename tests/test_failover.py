"""End-to-end failover drills: a leader crash mid-ingest must be
invisible in the final bytes — metadata, results, and layout digests all
byte-identical to the crash-free run at the same seed."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.metrics import ServiceSummary
from repro.obs import Observability
from repro.rebalance import layout_digest
from repro.serve import DrillConfig, build_drill, run_service_drill


def _run(config):
    setup = build_drill(config)
    summary = setup.service.run(setup.requests, setup.appends)
    return summary, layout_digest(setup.service._view)


@pytest.fixture(scope="module")
def base_drill():
    return DrillConfig(num_nodes=8, jobs=8, append_batches=2)


@pytest.fixture(scope="module")
def healthy(base_drill):
    return _run(replace(base_drill, journal_replicas=3))


class TestLeaderCrashDrill:
    def test_failover_is_byte_invisible(self, base_drill, healthy):
        """The acceptance criterion: leader crash + fenced failover ends
        with digests byte-identical to the crash-free run."""
        healthy_summary, healthy_layout = healthy
        crashed, layout = _run(
            replace(base_drill, journal_replicas=3, leader_crash=True)
        )
        assert crashed.leadership_changes == 1
        assert crashed.failover_downtime > 0
        assert crashed.journal_replays == 1
        assert crashed.silent_drops == 0
        assert crashed.metadata_digest == healthy_summary.metadata_digest
        assert crashed.results_digest == healthy_summary.results_digest
        assert layout == healthy_layout

    def test_rerun_is_identical(self, base_drill):
        config = replace(base_drill, journal_replicas=3, leader_crash=True)
        assert _run(config) == _run(config)

    def test_no_job_is_lost_across_failover(self, base_drill):
        summary, _ = _run(
            replace(base_drill, journal_replicas=3, leader_crash=True)
        )
        # in-flight work is parked and replayed, never dropped
        assert summary.requeued_on_crash >= 1
        assert summary.completed + summary.cancelled_deadline + \
            summary.cancelled_timeout == summary.admitted
        assert summary.service_crashes == 0  # the process never died

    @pytest.mark.parametrize("replicas", [1, 3, 5])
    def test_any_replica_count_converges(self, base_drill, replicas):
        crashed, layout = _run(
            replace(
                base_drill, journal_replicas=replicas, leader_crash=True
            )
        )
        clean, clean_layout = _run(
            replace(base_drill, journal_replicas=replicas)
        )
        assert crashed.leadership_changes == 1
        assert crashed.metadata_digest == clean.metadata_digest
        assert crashed.results_digest == clean.results_digest
        assert layout == clean_layout

    def test_failover_spans_and_metrics_emitted(self, base_drill):
        obs = Observability.create()
        setup = build_drill(
            replace(base_drill, journal_replicas=3, leader_crash=True),
            obs=obs,
        )
        setup.service.run(setup.requests, setup.appends)
        names = [s.name for s in obs.tracer.spans]
        assert "service/leader-crash" in names
        assert "service/failover" in names
        failover = next(
            s for s in obs.tracer.spans if s.name == "service/failover"
        )
        assert failover.attrs["term"] >= 1
        assert failover.attrs["leader"].startswith("journal-")
        from repro.obs.export import snapshot_text

        text = snapshot_text(tracer=obs.tracer, metrics=obs.metrics)
        assert "service_leadership_changes_total" in text
        assert "service_failover_latency_seconds" in text


class TestJournalReplicaFaultDrills:
    def test_replica_crash_is_byte_invisible(self, base_drill, healthy):
        healthy_summary, healthy_layout = healthy
        summary, layout = _run(
            replace(base_drill, journal_replicas=3, journal_crash=True)
        )
        assert summary.journal_replica_lag > 0  # the lag was real
        assert summary.leadership_changes == 0  # the leader never died
        assert summary.metadata_digest == healthy_summary.metadata_digest
        assert summary.results_digest == healthy_summary.results_digest
        assert layout == healthy_layout

    def test_minority_partition_is_byte_invisible(self, base_drill, healthy):
        healthy_summary, _ = healthy
        summary, _ = _run(
            replace(base_drill, journal_replicas=3, meta_partition=True)
        )
        assert summary.journal_replica_lag > 0
        assert summary.metadata_digest == healthy_summary.metadata_digest
        assert summary.results_digest == healthy_summary.results_digest

    def test_all_metadata_faults_together(self, base_drill, healthy):
        healthy_summary, healthy_layout = healthy
        summary, layout = _run(
            replace(
                base_drill,
                journal_replicas=5,
                leader_crash=True,
                journal_crash=True,
                meta_partition=True,
            )
        )
        assert summary.leadership_changes == 1
        assert summary.silent_drops == 0
        clean, clean_layout = _run(replace(base_drill, journal_replicas=5))
        assert summary.metadata_digest == clean.metadata_digest
        assert summary.results_digest == clean.results_digest
        assert layout == clean_layout


class TestDriverCrashDrill:
    @pytest.mark.parametrize("replicas", [1, 3, 5])
    def test_driver_crash_converges_at_any_replica_count(
        self, base_drill, replicas
    ):
        """A driver crash mid-append recovers through the quorum journal
        at every replica count, to the crash-free run's bytes."""
        crashed, layout = _run(
            replace(base_drill, journal_replicas=replicas, crash=True)
        )
        clean, clean_layout = _run(
            replace(base_drill, journal_replicas=replicas)
        )
        assert crashed.service_crashes == 1
        assert crashed.journal_replays == 1
        assert crashed.metadata_digest == clean.metadata_digest
        assert crashed.results_digest == clean.results_digest
        assert layout == clean_layout


class TestDrillConfigValidation:
    def test_journal_crash_needs_two_replicas(self):
        with pytest.raises(ConfigError):
            DrillConfig(journal_crash=True)

    def test_meta_partition_needs_three_replicas(self):
        with pytest.raises(ConfigError):
            DrillConfig(journal_replicas=2, meta_partition=True)

    def test_replicas_must_be_positive(self):
        with pytest.raises(ConfigError):
            DrillConfig(journal_replicas=0)

    def test_retry_knobs_validated_at_parse_time(self):
        with pytest.raises(ConfigError):
            DrillConfig(retry_jitter="gaussian")
        with pytest.raises(ConfigError):
            DrillConfig(retry_max_elapsed=-1.0)


class TestFailoverSummaryInvariants:
    def test_downtime_without_leadership_change_refused(self):
        with pytest.raises(ConfigError):
            ServiceSummary(
                tenants=1,
                submitted=1,
                admitted=1,
                completed=1,
                failover_downtime=2.0,
            )

    def test_lag_bounded_by_committed_records(self):
        with pytest.raises(ConfigError):
            ServiceSummary(
                tenants=1,
                submitted=1,
                admitted=1,
                completed=1,
                journal_records=3,
                journal_replica_lag=4,
            )

    def test_valid_failover_summary_formats(self):
        summary = ServiceSummary(
            tenants=1,
            submitted=1,
            admitted=1,
            completed=1,
            journal_records=5,
            leadership_changes=1,
            failover_downtime=0.97,
            journal_replica_lag=2,
        )
        text = summary.format()
        assert "leadership changes" in text
        assert "failover downtime (s)" in text
        assert "peak journal replica lag" in text
