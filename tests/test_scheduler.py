"""Tests for the dependency-counted work-stealing executor."""

from __future__ import annotations

import random

import pytest

from repro.engine import scheduler
from repro.engine.scheduler import (
    ExecutorError,
    InlineExecutor,
    Task,
    TaskGraph,
    WorkStealingExecutor,
    fork_available,
    resolve_jobs,
    usable_cpus,
)


def chain_and_leaves(chain_length: int, leaf_count: int) -> list[Task]:
    """One long dependency chain plus many independent leaves.

    The starvation shape: under wave-barrier scheduling every wave past the
    first holds a single chain link, so all but one worker idles.
    """
    tasks = [Task(id="chain0", kind="chain", payload=0)]
    for i in range(1, chain_length):
        tasks.append(Task(id=f"chain{i}", kind="chain", payload=i,
                          deps=(f"chain{i - 1}",)))
    for i in range(leaf_count):
        tasks.append(Task(id=f"leaf{i}", kind="leaf", payload=i))
    return tasks


def echo_handler(kind, payload, state):
    return (kind, payload)


class TestTaskGraph:
    def test_initial_ready_is_submission_order(self):
        graph = TaskGraph([
            Task(id="a", kind="k"),
            Task(id="b", kind="k", deps=("a",)),
            Task(id="c", kind="k"),
        ])
        assert graph.ready == ["a", "c"]
        assert graph.outstanding == 3

    def test_complete_enqueues_newly_ready(self):
        graph = TaskGraph([
            Task(id="a", kind="k"),
            Task(id="b", kind="k"),
            Task(id="c", kind="k", deps=("a", "b")),
        ])
        assert [t.id for t in graph.pop_ready(2)] == ["a", "b"]
        assert graph.complete("a") == []
        assert graph.complete("b") == ["c"]
        assert graph.ready == ["c"]
        graph.pop_ready(1)
        assert graph.complete("c") == []
        assert graph.done

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskGraph([Task(id="a", kind="k"), Task(id="a", kind="k")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TaskGraph([Task(id="a", kind="k", deps=("ghost",))])

    def test_pop_ready_respects_limit_and_position(self):
        graph = TaskGraph([Task(id=f"t{i}", kind="k") for i in range(5)])
        taken = graph.pop_ready(2, position=1)
        assert [t.id for t in taken] == ["t1", "t2"]
        assert graph.ready == ["t0", "t3", "t4"]

    def test_starvation_shape_keeps_pool_busy(self):
        """Ready queue never starves a 4-wide pool on chain+leaves.

        Simulates 4 workers each completing one task per step: while the
        chain is still being walked there must always be work for every
        worker — the leaves fill the gaps the barrier scheduler leaves idle.
        """
        jobs = 4
        chain_length, leaf_count = 12, 60
        graph = TaskGraph(chain_and_leaves(chain_length, leaf_count))
        steps = 0
        while not graph.done:
            remaining = graph.outstanding
            batch = graph.pop_ready(jobs)
            # The pool is busy: every slot fills whenever enough work remains.
            assert len(batch) == min(jobs, remaining)
            if remaining > jobs:
                assert len(batch) == jobs
            for task in batch:
                graph.complete(task.id)
            steps += 1
        # Perfect packing: ceil(total / jobs) steps, versus the barrier
        # schedule's chain_length waves of mostly-idle pools.
        total = chain_length + leaf_count
        assert steps == -(-total // jobs)
        assert steps < chain_length + -(-leaf_count // jobs)


class TestInlineExecutor:
    def test_runs_all_tasks_in_dependency_order(self):
        order = []

        def handler(kind, payload, state):
            order.append(payload)
            return payload * 2

        with InlineExecutor(handler) as ex:
            results = ex.run([
                Task(id="a", kind="k", payload=1),
                Task(id="b", kind="k", payload=2, deps=("a",)),
                Task(id="c", kind="k", payload=3),
            ])
        assert results == {"a": 2, "b": 4, "c": 6}
        assert order.index(1) < order.index(2)
        assert ex.stats.tasks == 3

    def test_payload_fn_sees_dependency_results(self):
        def handler(kind, payload, state):
            return payload + 1

        with InlineExecutor(handler) as ex:
            results = ex.run([
                Task(id="a", kind="k", payload=10),
                Task(id="b", kind="k", deps=("a",),
                     payload_fn=lambda done: done["a"] * 100),
            ])
        assert results == {"a": 11, "b": 1101}

    def test_broadcast_reaches_handler_state(self):
        def handler(kind, payload, state):
            return state["factor"] * payload

        with InlineExecutor(handler) as ex:
            ex.broadcast("factor", 7)
            results = ex.run([Task(id="a", kind="k", payload=3)])
        assert results == {"a": 21}

    def test_scrambled_completion_order_same_results(self):
        """An adversarial picker changes execution order, never results."""
        tasks = chain_and_leaves(8, 20)
        with InlineExecutor(echo_handler) as ex:
            baseline = ex.run([Task(**vars(t)) for t in tasks])
        rng = random.Random(1234)
        for _ in range(5):
            with InlineExecutor(
                    echo_handler,
                    pick=lambda ready: rng.randrange(len(ready))) as ex:
                scrambled = ex.run([Task(**vars(t)) for t in tasks])
            assert scrambled == baseline

    def test_cycle_detected(self):
        with InlineExecutor(echo_handler) as ex:
            with pytest.raises(ExecutorError, match="cycle"):
                ex.run([
                    Task(id="a", kind="k", deps=("b",)),
                    Task(id="b", kind="k", deps=("a",)),
                ])

    def test_parent_tasks_results_available_to_payload_fn(self):
        with InlineExecutor(echo_handler) as ex:
            results = ex.run(
                [Task(id="a", kind="k",
                      payload_fn=lambda done: done["pre"] + 1)],
                parent_tasks=[("pre", lambda: 41)])
        assert results["pre"] == 41
        assert results["a"] == ("k", 42)

    def test_barrier_estimate_exceeds_span_for_starvation_shape(self):
        with InlineExecutor(echo_handler) as ex:
            ex.run(chain_and_leaves(10, 40))
        stats = ex.stats.to_dict()
        assert stats["tasks"] == 50
        assert stats["max_ready"] >= 40
        assert "worker_idle_ratio" in stats


needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@needs_fork
class TestWorkStealingExecutor:
    def test_matches_inline_results(self):
        tasks = chain_and_leaves(10, 40)
        with InlineExecutor(echo_handler) as inline:
            expected = inline.run([Task(**vars(t)) for t in tasks])
        with WorkStealingExecutor(3, echo_handler) as ex:
            actual = ex.run([Task(**vars(t)) for t in tasks])
        assert actual == expected
        assert ex.stats.tasks == len(tasks)
        assert ex.stats.jobs == 3

    def test_dependency_results_ship_via_payload_fn(self):
        def handler(kind, payload, state):
            return payload + 1

        with WorkStealingExecutor(2, handler) as ex:
            results = ex.run([
                Task(id="a", kind="k", payload=1),
                Task(id="b", kind="k", payload=2),
                Task(id="c", kind="k", deps=("a", "b"),
                     payload_fn=lambda done: done["a"] * done["b"]),
            ])
        assert results == {"a": 2, "b": 3, "c": 7}

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
