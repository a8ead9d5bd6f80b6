"""Tests for the work-stealing executor over independent tasks."""

from __future__ import annotations

import random

import pytest

from repro.engine import scheduler
from repro.engine.scheduler import (
    ExecutorError,
    InlineExecutor,
    Task,
    WorkStealingExecutor,
    fork_available,
    resolve_jobs,
    usable_cpus,
)


def independent(count: int) -> list[Task]:
    return [Task(id=f"t{i}", kind="k", payload=i) for i in range(count)]


def echo_handler(kind, payload, state):
    return (kind, payload)


class TestInlineExecutor:
    def test_runs_tasks_first_in_first_out(self):
        order = []

        def handler(kind, payload, state):
            order.append(payload)
            return payload * 2

        with InlineExecutor(handler) as ex:
            results = ex.run([Task(id=name, kind="k", payload=value)
                              for name, value in (("a", 1), ("b", 2), ("c", 3))])
        assert results == {"a": 2, "b": 4, "c": 6}
        assert order == [1, 2, 3]
        assert ex.stats.tasks == 3

    def test_pick_first_sees_queue_in_submission_order(self):
        seen = []

        def pick(queued):
            seen.append(list(queued))
            return 0

        with InlineExecutor(echo_handler, pick=pick) as ex:
            ex.run([Task(id=name, kind="k") for name in ("a", "b", "c")])
        assert seen == [["a", "b", "c"], ["b", "c"], ["c"]]
        assert ex.stats.max_ready == 3

    def test_duplicate_id_rejected(self):
        with InlineExecutor(echo_handler) as ex:
            with pytest.raises(ValueError, match="duplicate"):
                ex.run([Task(id="a", kind="k"), Task(id="a", kind="k")])

    def test_broadcast_reaches_handler_state(self):
        def handler(kind, payload, state):
            return state["factor"] * payload

        with InlineExecutor(handler) as ex:
            ex.broadcast("factor", 7)
            results = ex.run([Task(id="a", kind="k", payload=3)])
        assert results == {"a": 21}

    def test_scrambled_completion_order_same_results(self):
        """An adversarial picker changes execution order, never results."""
        with InlineExecutor(echo_handler) as ex:
            baseline = ex.run(independent(30))
        rng = random.Random(1234)
        for _ in range(5):
            order = []

            def recording(kind, payload, state):
                order.append(payload)
                return echo_handler(kind, payload, state)

            with InlineExecutor(
                    recording,
                    pick=lambda queued: rng.randrange(len(queued))) as ex:
                scrambled = ex.run(independent(30))
            assert scrambled == baseline
            assert sorted(order) == list(range(30))
            assert order != list(range(30))

    def test_parent_task_results_returned_with_task_results(self):
        with InlineExecutor(echo_handler) as ex:
            results = ex.run([Task(id="a", kind="k", payload=1)],
                             parent_tasks=[("pre", lambda: 41)])
        assert results == {"pre": 41, "a": ("k", 1)}

    def test_stats_count_tasks_queue_and_idle_ratio(self):
        with InlineExecutor(echo_handler) as ex:
            ex.run(independent(50))
        stats = ex.stats.to_dict()
        assert stats["tasks"] == 50
        assert stats["max_ready"] == 50
        assert 0.0 <= stats["worker_idle_ratio"] <= 1.0


needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@needs_fork
class TestWorkStealingExecutor:
    def test_matches_inline_results(self):
        with InlineExecutor(echo_handler) as inline:
            expected = inline.run(independent(50))
        with WorkStealingExecutor(3, echo_handler) as ex:
            actual = ex.run(independent(50))
        assert actual == expected
        assert ex.stats.tasks == 50
        assert ex.stats.max_ready == 50
        assert ex.stats.jobs == 3

    def test_broadcast_visible_to_later_tasks(self):
        def handler(kind, payload, state):
            return state.get("base", 0) + payload

        with WorkStealingExecutor(2, handler) as ex:
            ex.broadcast("base", 100)
            first = ex.run([Task(id=f"t{i}", kind="k", payload=i)
                            for i in range(6)])
            ex.broadcast("base", 1000)
            second = ex.run([Task(id=f"u{i}", kind="k", payload=i)
                             for i in range(6)])
        assert first == {f"t{i}": 100 + i for i in range(6)}
        assert second == {f"u{i}": 1000 + i for i in range(6)}

    def test_persistent_pool_across_runs(self):
        with WorkStealingExecutor(2, echo_handler) as ex:
            for round_no in range(3):
                results = ex.run([Task(id=f"r{round_no}-{i}", kind="k",
                                       payload=i) for i in range(5)])
                assert len(results) == 5
            assert ex.stats.tasks == 15

    def test_parent_tasks_overlap_pool(self):
        with WorkStealingExecutor(2, echo_handler) as ex:
            results = ex.run(
                [Task(id=f"t{i}", kind="k", payload=i) for i in range(4)],
                parent_tasks=[("whole", lambda: "parent-ran")])
        assert results["whole"] == "parent-ran"
        assert results["t3"] == ("k", 3)

    def test_worker_error_propagates_with_traceback(self):
        def handler(kind, payload, state):
            if payload == "boom":
                raise ValueError("synthetic failure")
            return payload

        with WorkStealingExecutor(2, handler) as ex:
            with pytest.raises(ExecutorError, match="synthetic failure"):
                ex.run([Task(id="a", kind="k", payload="boom")])

    def test_run_after_close_rejected(self):
        ex = WorkStealingExecutor(2, echo_handler)
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.run([Task(id="a", kind="k")])

    def test_jobs_below_two_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingExecutor(1, echo_handler)

    def test_chunk_override_caps_dispatch(self, monkeypatch):
        monkeypatch.setattr(scheduler, "MAX_CHUNK", 1)
        with WorkStealingExecutor(2, echo_handler) as ex:
            results = ex.run([Task(id=f"t{i}", kind="k", payload=i)
                              for i in range(12)])
        assert len(results) == 12
        # A cap of 1 means every dispatch carried exactly one task.
        assert ex.stats.chunks == 12


def test_resolve_jobs():
    assert resolve_jobs(0) == usable_cpus()
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(-3) == 1
