"""Tests for the multi-tenant analysis service: admission, deadlines,
crash-safe journaling, and the deterministic soak drill."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import ElasticMapBuilder
from repro.core.elasticmap import BlockElasticMap, ElasticMapArray
from repro.errors import ConfigError, DeadlineExceeded, Overloaded, TornFrameError
from repro.faults import FaultPlan, RetryPolicy, ServiceCrash
from repro.metrics import ServiceSummary
from repro.obs import Observability
from repro.replication import QuorumFrame, ReplicatedJournal
from repro.replication.journal import read_frames
from repro.serve import (
    AdmissionController,
    DrillConfig,
    TenantSpec,
    TokenBucket,
    WeightedFairQueue,
    array_digest,
    build_drill,
    run_service_drill,
)
from repro.sim import DiscreteEventSimulator, SimTask


# ---------------------------------------------------------------------------
# admission control


class TestTokenBucket:
    def test_burst_then_quota(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # one token refills per second
        assert bucket.try_take(1.0)
        assert not bucket.try_take(1.0)

    def test_infinite_rate_never_blocks(self):
        bucket = TokenBucket(rate=math.inf, burst=1.0)
        for _ in range(10):
            assert bucket.try_take(0.0)

    def test_clock_must_not_go_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.try_take(5.0)
        with pytest.raises(ConfigError):
            bucket.try_take(4.0)


class TestWeightedFairQueue:
    def test_single_tenant_preserves_insertion_order(self):
        q: WeightedFairQueue[str] = WeightedFairQueue([TenantSpec("a")])
        for item in ("x", "y", "z"):
            q.push("a", item)
        assert [item for _t, item in q.drain()] == ["x", "y", "z"]

    def test_weights_shape_drain_ratio(self):
        q: WeightedFairQueue[int] = WeightedFairQueue(
            [TenantSpec("heavy", weight=2.0), TenantSpec("light", weight=1.0)]
        )
        for i in range(6):
            q.push("heavy", i)
            q.push("light", i)
        order = [t for t, _ in q.drain()]
        # among the first 6 pops, the weight-2 tenant gets twice the slots
        assert order[:6].count("heavy") == 4

    def test_unknown_tenant_rejected(self):
        q: WeightedFairQueue[int] = WeightedFairQueue([TenantSpec("a")])
        with pytest.raises(ConfigError):
            q.push("nope", 1)


class TestAdmissionController:
    def _controller(self, **kwargs) -> AdmissionController:
        tenants = kwargs.pop(
            "tenants",
            [TenantSpec("a", rate=1.0, burst=2.0), TenantSpec("b")],
        )
        return AdmissionController(tenants, **kwargs)

    def test_quota_starvation_is_typed(self):
        ctrl = self._controller()
        ctrl.submit("a", 1, 0.0)
        ctrl.submit("a", 2, 0.0)
        with pytest.raises(Overloaded) as exc:
            ctrl.submit("a", 3, 0.0)
        assert exc.value.reason == "quota"
        assert exc.value.tenant == "a"
        # the starved tenant's quota never throttles its neighbour
        ctrl.submit("b", 4, 0.0)
        assert ctrl.rejected == {"quota": 1}
        assert ctrl.silent_drops == 0

    def test_backpressure_past_high_water(self):
        ctrl = self._controller(high_water=2)
        ctrl.submit("b", 1, 0.0)
        ctrl.submit("b", 2, 0.0)
        with pytest.raises(Overloaded) as exc:
            ctrl.submit("b", 3, 0.0)
        assert exc.value.reason == "backpressure"
        assert ctrl.submitted == 3
        assert ctrl.admitted == 2
        assert ctrl.silent_drops == 0

    def test_closed_service_sheds_unavailable(self):
        ctrl = self._controller()
        with pytest.raises(Overloaded) as exc:
            ctrl.submit("b", 1, 0.0, open_for_business=False)
        assert exc.value.reason == "unavailable"

    def test_requeue_bypasses_quota_and_bound(self):
        ctrl = self._controller(high_water=1)
        ctrl.submit("b", 1, 0.0)
        ctrl.requeue("b", 2)  # over high-water, no Overloaded
        assert len(ctrl.queue) == 2


# ---------------------------------------------------------------------------
# journal


def _blocks(specs):
    """Build real BlockElasticMaps from [(block_id, [(sub, size), ...])]."""
    builder = ElasticMapBuilder(alpha=0.5)
    return [builder.build_block(bid, obs) for bid, obs in specs]


_obs_strategy = st.lists(
    st.tuples(
        st.sampled_from(["m1", "m2", "m3", "m4"]),
        st.integers(min_value=1, max_value=10_000),
    ),
    min_size=1,
    max_size=12,
)
_blocks_strategy = st.lists(_obs_strategy, min_size=1, max_size=6)


def _journal(blocks):
    """A one-replica quorum journal holding ``blocks``, its replica, and
    the replica log's length after each append (``offsets[k]`` is the
    log length after exactly ``k`` committed records)."""
    journal = ReplicatedJournal(1)
    (replica,) = journal.replicas.values()
    offsets = [len(replica)]
    for bm in blocks:
        assert journal.append_block(bm)
        offsets.append(len(replica))
    return journal, replica, offsets


def _to_array(entries):
    return ElasticMapArray(
        [BlockElasticMap.from_bytes(entries[bid]) for bid in sorted(entries)]
    )


def _committed(offsets, cut):
    return max(k for k, off in enumerate(offsets) if off <= cut)


class TestJournal:
    def test_round_trip(self):
        blocks = _blocks([(0, [("a", 10)]), (1, [("b", 20), ("a", 5)])])
        journal, replica, _offsets = _journal(blocks)
        frames, torn = read_frames(replica.to_bytes())
        assert [f.block_id for f in frames] == [0, 1]
        assert torn == 0
        entries = journal.recover()
        assert sorted(entries) == [0, 1]
        assert journal.record_count == 2
        assert [bm.to_bytes() for bm in _to_array(entries)] == [
            bm.to_bytes() for bm in blocks
        ]

    def test_duplicate_frames_first_commit_wins(self):
        (bm,) = _blocks([(0, [("a", 10)])])
        journal, replica, _offsets = _journal([bm])
        assert not journal.append_block(bm)  # idempotent
        assert journal.record_count == 1
        # a log that does hold two frames for one block: the first wins
        (other,) = _blocks([(0, [("b", 7)])])
        assert replica.install(
            QuorumFrame(journal.epoch, 2, 0, other.to_bytes()),
            leader_epoch=journal.epoch,
        )
        frames, _torn = read_frames(replica.to_bytes())
        assert [f.block_id for f in frames] == [0, 0]
        assert journal.recover() == {0: bm.to_bytes()}

    def test_bad_magic_raises(self):
        with pytest.raises(ConfigError):
            read_frames(b"NOPE" + b"\x00" * 16)

    @given(specs=_blocks_strategy, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_replay_after_crash_at_any_byte_is_byte_identical(
        self, specs, data
    ):
        """Crash anywhere in the log: recovering the prefix and
        re-indexing the lost blocks reproduces the uninterrupted array."""
        blocks = _blocks(list(enumerate(specs)))
        journal, replica, offsets = _journal(blocks)
        blob = replica.to_bytes()
        full_digest = array_digest(_to_array(journal.recover()))

        cut = data.draw(
            st.integers(min_value=offsets[0], max_value=len(blob)),
            label="crash offset",
        )
        frames, _torn = read_frames(blob[:cut])
        assert len(frames) == _committed(offsets, cut)

        # the driver dies with the log torn at ``cut``; the restart reads
        # back what the replica kept, then re-indexes the rest
        replica.crash(at_byte=cut)
        replica.restore()
        assert sorted(journal.recover()) == [f.block_id for f in frames]
        for bm in blocks:
            journal.append_block(bm)
        assert journal.record_count == len(blocks)
        assert array_digest(_to_array(journal.recover())) == full_digest

    def test_truncation_at_every_byte_never_raises(self):
        blocks = _blocks([(0, [("a", 10)]), (1, [("b", 7)])])
        _, full, offsets = _journal(blocks)
        blob = full.to_bytes()
        for cut in range(offsets[0], len(blob) + 1):
            committed = _committed(offsets, cut)
            frames, torn = read_frames(blob[:cut])
            assert len(frames) == committed
            assert torn == cut - offsets[committed]
            # a replica torn at ``cut`` catches up byte-identically
            journal, replica, _ = _journal(blocks)
            replica.crash(at_byte=cut)
            assert len(replica.frames) == committed
            assert journal.restore_replica(replica.replica_id) == 2 - committed
            assert replica.to_bytes() == blob

    def test_corrupt_checksum_stops_replay(self):
        blocks = _blocks([(0, [("a", 10)]), (1, [("b", 7)])])
        _, replica, offsets = _journal(blocks)
        blob = bytearray(replica.to_bytes())
        blob[offsets[2] - 1] ^= 0xFF  # flip a checksum byte of frame 1
        frames, torn = read_frames(bytes(blob))
        assert [f.block_id for f in frames] == [0]
        assert torn == offsets[2] - offsets[1]

    def test_corrupt_non_final_frame_raises_typed(self):
        """A checksum failure with committed frames *behind* it is silent
        data loss, not a crash artifact — replay must refuse, typed."""
        blocks = _blocks([(0, [("a", 10)]), (1, [("b", 7)]), (2, [("a", 3)])])
        _, replica, offsets = _journal(blocks)
        blob = bytearray(replica.to_bytes())
        blob[offsets[1] + 8] ^= 0xFF  # corrupt frame 1's head, frame 2 intact
        with pytest.raises(TornFrameError) as exc:
            read_frames(bytes(blob))
        assert exc.value.offset == offsets[1]
        assert exc.value.expected_checksum != exc.value.actual_checksum

    def test_torn_final_frame_is_clean_stop(self):
        """The same damage in the *final* frame is a torn write: replay
        stops cleanly at the last good frame."""
        blocks = _blocks([(0, [("a", 10)]), (1, [("b", 7)])])
        journal, replica, offsets = _journal(blocks)
        blob = replica.to_bytes()
        # truncated mid-frame: a crash cut the last write short
        frames, torn = read_frames(blob[: offsets[2] - 3])
        assert len(frames) == 1
        assert torn > 0
        replica.crash(at_byte=offsets[2] - 3)
        assert replica.to_bytes() == blob[: offsets[1]]


# ---------------------------------------------------------------------------
# retry jitter satellite


class TestRetryJitter:
    def test_defaults_unchanged(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(3) == 2.0

    def test_full_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0, jitter="full")
        a = policy.backoff(2, task_key="t", seed=1)
        b = policy.backoff(2, task_key="t", seed=1)
        assert a == b
        assert 0.0 <= a <= 2.0
        assert policy.backoff(2, task_key="t", seed=2) != a

    def test_max_elapsed_caps_delay(self):
        policy = RetryPolicy(backoff_base_s=4.0, max_elapsed_s=5.0)
        assert policy.backoff(1, waited_s=3.0) == 2.0
        assert policy.backoff(1, waited_s=5.0) == 0.0

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(jitter="gaussian")


# ---------------------------------------------------------------------------
# simulator cancellation


class TestSimulatorCancelAt:
    def _tasks(self):
        return [
            SimTask(task_id="a", node=0, duration=2.0),
            SimTask(task_id="b", node=0, duration=2.0, deps=frozenset({"a"})),
            SimTask(task_id="c", node=0, duration=2.0, deps=frozenset({"b"})),
        ]

    def test_cancel_cuts_pending_tasks(self):
        result = DiscreteEventSimulator(slots_per_node=1).run(
            self._tasks(), cancel_at=3.0
        )
        assert result.cancelled
        assert result.cancelled_tasks == ["b", "c"]
        assert set(result.timeline.intervals) == {"a"}

    def test_cancel_none_is_run_to_completion(self):
        full = DiscreteEventSimulator(slots_per_node=1).run(self._tasks())
        assert not full.cancelled
        assert full.makespan == 6.0

    def test_cancel_after_makespan_changes_nothing(self):
        full = DiscreteEventSimulator(slots_per_node=1).run(
            self._tasks(), cancel_at=100.0
        )
        assert not full.cancelled
        assert full.makespan == 6.0

    def test_negative_cancel_rejected(self):
        with pytest.raises(ConfigError):
            DiscreteEventSimulator().run(self._tasks(), cancel_at=-1.0)


# ---------------------------------------------------------------------------
# summary invariants


class TestServiceSummary:
    def test_silent_drop_refused(self):
        with pytest.raises(ConfigError):
            ServiceSummary(tenants=1, submitted=3, admitted=1, completed=1)

    def test_unterminated_job_refused(self):
        with pytest.raises(ConfigError):
            ServiceSummary(tenants=1, submitted=2, admitted=2, completed=1)

    def test_valid_summary_reconciles(self):
        summary = ServiceSummary(
            tenants=1,
            submitted=3,
            admitted=2,
            completed=1,
            cancelled_timeout=1,
            rejected={"quota": 1},
        )
        assert summary.silent_drops == 0
        assert summary.rejected_total == 1


# ---------------------------------------------------------------------------
# service drill (slow-ish: builds a real environment per drill)


@pytest.fixture(scope="module")
def small_drill():
    return DrillConfig(num_nodes=8, jobs=8, append_batches=1)


class TestServiceDrill:
    def test_rerun_is_identical(self, small_drill):
        first = run_service_drill(small_drill)
        second = run_service_drill(small_drill)
        assert first == second

    def test_crash_vs_no_crash_digests_agree(self, small_drill):
        from dataclasses import replace

        healthy = run_service_drill(small_drill)
        crashed = run_service_drill(replace(small_drill, crash=True))
        assert crashed.service_crashes == 1
        assert crashed.journal_replays == 1
        assert crashed.metadata_digest == healthy.metadata_digest
        assert crashed.results_digest == healthy.results_digest

    def test_timeout_job_cancelled_and_slot_released(self, small_drill):
        obs = Observability.create()
        summary = run_service_drill(small_drill, obs=obs)
        assert summary.cancelled_timeout == 1
        # every other admitted job still completed: the cancelled job's
        # slot was released back to the pool
        assert summary.completed == summary.admitted - 1
        job_spans = [
            s for s in obs.tracer.spans if s.category == "service-job"
        ]
        cancelled = [s for s in job_spans if s.attrs["status"] == "timeout"]
        assert len(cancelled) == 1
        # rollback: no partial task spans survive for the cancelled job
        prefix = f"task/{cancelled[0].name.split('/', 1)[1]}"
        assert not any(s.name.startswith(prefix) for s in obs.tracer.spans)

    def test_deadline_expired_in_queue_is_typed(self):
        setup = build_drill(DrillConfig(num_nodes=8, jobs=8, append_batches=1))
        from dataclasses import replace as dc_replace

        # shrink one queued job's deadline below its dispatch time
        requests = list(setup.requests)
        requests[3] = dc_replace(
            requests[3], deadline_s=requests[3].submit_time + 1e-6
        )
        summary = setup.service.run(requests, setup.appends)
        assert summary.cancelled_deadline >= 1
        assert summary.silent_drops == 0

    def test_degraded_windows_reported(self):
        summary = run_service_drill(
            DrillConfig(num_nodes=8, jobs=8, append_batches=1, partition=True)
        )
        assert summary.degraded_intervals
        assert summary.degraded_seconds > 0

    def test_overload_sheds_with_typed_backpressure(self):
        summary = run_service_drill(
            DrillConfig(
                num_nodes=8,
                jobs=16,
                append_batches=1,
                pressure=4.0,
                slots=1,
                high_water=3,
            )
        )
        assert summary.rejected.get("backpressure", 0) > 0
        assert summary.silent_drops == 0
        assert summary.wait_p99_s > 0


# ---------------------------------------------------------------------------
# typed errors


class TestServiceErrors:
    def test_overloaded_carries_tenant_and_reason(self):
        err = Overloaded("full", tenant="t", reason="backpressure")
        assert err.tenant == "t"
        assert err.reason == "backpressure"

    def test_deadline_exceeded_fields(self):
        err = DeadlineExceeded("late", job_id="j", tenant="t", limit_s=2.0)
        assert err.job_id == "j"
        assert err.limit_s == 2.0

    def test_service_crash_validation(self):
        with pytest.raises(ConfigError):
            ServiceCrash(time=-1.0)
        plan = FaultPlan(service_crashes=(ServiceCrash(time=5.0),))
        assert not plan.is_empty()
