"""Unit tests for the deterministic chaos decision engine."""

import time

import pytest

from repro.runtime import (
    CampaignInterrupted,
    ChaosError,
    ChaosPolicy,
    ChaosSpec,
    InfraError,
    JournalRecordError,
    JournalWriteError,
    TaskResult,
)
from repro.runtime.chaos import (
    EXECUTOR_POINTS,
    JOURNAL_POINTS,
    STORE_POINTS,
    apply_worker_action,
)

from .conftest import CHAOS_SEED


class TestChaosSpec:
    def test_defaults_are_all_off(self):
        spec = ChaosSpec()
        assert all(
            getattr(spec, p) == 0.0
            for p in EXECUTOR_POINTS + JOURNAL_POINTS
        )

    def test_from_string_round_trip(self):
        spec = ChaosSpec.from_string(
            "worker_crash=0.2, journal_corrupt=0.1,slow_seconds=0.5"
        )
        assert spec.worker_crash == 0.2
        assert spec.journal_corrupt == 0.1
        assert spec.slow_seconds == 0.5
        assert spec.worker_hang == 0.0

    def test_from_string_empty_means_no_chaos(self):
        assert ChaosSpec.from_string("") == ChaosSpec()

    def test_from_string_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="known points"):
            ChaosSpec.from_string("warp_drive=0.5")

    def test_from_string_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            ChaosSpec.from_string("worker_crash=often")

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            ChaosSpec(worker_crash=1.5)
        with pytest.raises(ValueError):
            ChaosSpec(journal_eio=-0.1)
        with pytest.raises(ValueError):
            ChaosSpec(slow_seconds=-1.0)

    def test_to_dict_covers_every_field(self):
        d = ChaosSpec().to_dict()
        assert set(EXECUTOR_POINTS + JOURNAL_POINTS) <= set(d)
        assert "slow_seconds" in d


class TestChaosPolicyDeterminism:
    def test_same_seed_same_schedule(self):
        spec = ChaosSpec(worker_crash=0.5, journal_corrupt=0.5)
        a = ChaosPolicy(spec, seed=CHAOS_SEED)
        b = ChaosPolicy(spec, seed=CHAOS_SEED)
        for i in range(50):
            for attempt in (1, 2, 3):
                assert a.task_action(f"t{i}", attempt) == b.task_action(
                    f"t{i}", attempt
                )
            assert a.journal_action(f"t{i}") == b.journal_action(f"t{i}")

    def test_different_seeds_differ_somewhere(self):
        spec = ChaosSpec(worker_crash=0.5)
        a = ChaosPolicy(spec, seed=CHAOS_SEED)
        b = ChaosPolicy(spec, seed=CHAOS_SEED + 1)
        assert any(
            a.task_action(f"t{i}", 1) != b.task_action(f"t{i}", 1)
            for i in range(64)
        )

    def test_zero_probability_never_fires(self):
        policy = ChaosPolicy(ChaosSpec(), seed=CHAOS_SEED)
        for i in range(64):
            assert policy.task_action(f"t{i}", 1) is None
            assert policy.journal_action(f"t{i}") is None

    def test_certain_probability_always_fires(self):
        policy = ChaosPolicy(ChaosSpec(worker_crash=1.0), seed=CHAOS_SEED)
        for i in range(16):
            assert policy.task_action(f"t{i}", 1) == ("crash", 0.0)

    def test_retries_roll_fresh_dice(self):
        """Executor decisions are keyed on (task id, attempt): the same
        task must both fire and not fire across enough attempts, which is
        what lets chaos campaigns converge to the fault-free result."""
        policy = ChaosPolicy(ChaosSpec(worker_crash=0.5), seed=CHAOS_SEED)
        fired = {
            policy.task_action("stable-id", attempt) is not None
            for attempt in range(1, 65)
        }
        assert fired == {True, False}

    def test_journal_decisions_keyed_per_task(self):
        """Journal faults replay for the same task id — the reason a
        resumed campaign must drop its chaos flags."""
        policy = ChaosPolicy(
            ChaosSpec(journal_enospc=0.5), seed=CHAOS_SEED
        )
        for i in range(16):
            first = policy.journal_action(f"t{i}")
            assert all(
                policy.journal_action(f"t{i}") == first for _ in range(3)
            )


class TestChaosPriorities:
    def test_harsher_executor_fault_wins(self):
        spec = ChaosSpec(
            worker_crash=1.0, worker_hang=1.0, task_error=1.0, slow_task=1.0
        )
        policy = ChaosPolicy(spec, seed=CHAOS_SEED)
        assert policy.task_action("t", 1) == ("crash", 0.0)

    def test_harsher_journal_fault_wins(self):
        spec = ChaosSpec(
            journal_enospc=1.0, journal_eio=1.0,
            journal_truncate=1.0, journal_corrupt=1.0,
        )
        policy = ChaosPolicy(spec, seed=CHAOS_SEED)
        assert policy.journal_action("t") == "journal_enospc"

    def test_slow_action_carries_duration(self):
        policy = ChaosPolicy(
            ChaosSpec(slow_task=1.0, slow_seconds=0.25), seed=CHAOS_SEED
        )
        assert policy.task_action("t", 1) == ("slow", 0.25)


class TestStorePoints:
    def test_defaults_are_all_off(self):
        spec = ChaosSpec()
        assert all(getattr(spec, p) == 0.0 for p in STORE_POINTS)

    def test_from_string_accepts_store_points(self):
        spec = ChaosSpec.from_string("store_locked=0.3,store_enospc=0.1")
        assert spec.store_locked == 0.3
        assert spec.store_enospc == 0.1

    def test_store_locked_rolls_fresh_dice_per_attempt(self):
        """Lock contention is keyed (txn, attempt) so a bounded retry
        can actually make progress — the same txn must both collide and
        not collide across enough attempts."""
        policy = ChaosPolicy(ChaosSpec(store_locked=0.5), seed=CHAOS_SEED)
        fired = {
            policy.store_locked_active(7, attempt)
            for attempt in range(64)
        }
        assert fired == {True, False}

    def test_store_enospc_replays_per_txn(self):
        """A full disk does not empty itself between attempts: the
        decision is keyed on the txn alone and replays identically."""
        policy = ChaosPolicy(ChaosSpec(store_enospc=0.5), seed=CHAOS_SEED)
        for seq in range(16):
            first = policy.store_enospc_active(seq)
            assert all(
                policy.store_enospc_active(seq) == first for _ in range(3)
            )


class TestApplyWorkerAction:
    def test_none_is_a_no_op(self):
        assert apply_worker_action(None) is None

    def test_error_raises_chaos_error(self):
        with pytest.raises(ChaosError):
            apply_worker_action(("error", 0.0))

    def test_slow_sleeps_then_returns(self):
        t0 = time.monotonic()
        apply_worker_action(("slow", 0.01))
        assert time.monotonic() - t0 >= 0.01


class TestErrorTaxonomy:
    """The new error types slot into the hierarchies callers already
    catch: chaos failures are infra failures, write failures are OSErrors,
    a drain is an interrupt."""

    def test_chaos_error_is_infra(self):
        assert issubclass(ChaosError, InfraError)

    def test_journal_write_error_is_os_error(self):
        assert issubclass(JournalWriteError, OSError)

    def test_campaign_interrupted_is_keyboard_interrupt(self):
        assert issubclass(CampaignInterrupted, KeyboardInterrupt)
        stop = CampaignInterrupted(3, 10, journal_path="j.jsonl")
        assert stop.completed == 3
        assert stop.total == 10
        assert stop.journal_path == "j.jsonl"

    def test_journal_record_error_is_value_error(self):
        assert issubclass(JournalRecordError, ValueError)

    def test_from_record_wraps_bare_exceptions(self):
        with pytest.raises(JournalRecordError):
            TaskResult.from_record({})
        with pytest.raises(JournalRecordError):
            TaskResult.from_record({"task": "a", "outcome": 7})
        with pytest.raises(JournalRecordError):
            TaskResult.from_record(
                {"task": "a", "outcome": "ok", "attempts": "many"}
            )
