"""Dependency-counted work-stealing task scheduler for the engine.

A parallel engine run drives every phase (constant facts, summaries,
checker shards) through one ready-queue executor:

* the engine submits one :class:`Task` per unit of work with its explicit
  dependency edges (``deps``).  Each task carries a pending-dependency
  counter; completing a task decrements its dependents and enqueues every
  newly-ready task — there is no inter-wave barrier, so a long chain and a
  pile of independent leaves drain concurrently;
* one pool of forked workers persists across *all* phases of a run.  Each
  worker owns an inbox queue and pulls continuously; the parent assigns
  ready tasks to idle workers the moment either appears, and batches large
  ready backlogs into chunks of at most :data:`MAX_CHUNK` so per-task
  dispatch overhead stays amortized;
* ``broadcast()`` pushes a (tag, value) pair into every worker's inbox —
  inbox FIFO order guarantees a worker sees the broadcast before any task
  dispatched after it, which is how the checker-shard phase ships the
  merged summaries once per worker instead of once per shard;
* results are keyed by task id and merged by the *caller* in a
  deterministic order, so completion order never influences any report —
  serial, scrambled-inline and parallel runs are byte-identical by
  construction (``InlineExecutor(pick=...)`` exists to assert exactly
  that in tests).

:class:`TaskGraph` is the pure scheduling core (dependency counters and the
FIFO ready queue) so its starvation behavior can be tested without
processes; the executors wrap it with real or inline execution.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Callable

#: handler(kind, payload, state) -> result; ``state`` is the worker-local
#: broadcast store ({tag: value}), empty until a broadcast arrives.
TaskHandler = Callable[[str, Any, dict], Any]

#: Dispatch at most this many tasks per worker message, however long the
#: ready backlog grows.
MAX_CHUNK = 16

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 10.0


def resolve_jobs(jobs: int) -> int:
    """``--jobs 0`` means "use every core": resolve it to :func:`usable_cpus`."""
    if jobs == 0:
        return usable_cpus()
    return max(1, jobs)


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Worker processes beyond this add fork, copy-on-write and IPC cost while
    time-slicing the same cores — the engine clamps its pool size here (to
    no fewer than two workers), so ``--jobs 8`` on a 2-core host forks two
    workers instead of paying four-way oversubscription for nothing.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class Task:
    """One schedulable unit of work.

    ``payload_fn`` late-binds the payload: it runs in the parent at dispatch
    time with the results of every completed task, so a task can ship data
    produced by its dependencies (an SCC task ships its callees' solved
    summaries) without the caller materializing it up front.
    """

    id: str
    kind: str
    deps: tuple[str, ...] = ()
    payload: Any = None
    payload_fn: Callable[[dict], Any] | None = None

    def bind(self, results: dict) -> Any:
        return self.payload_fn(results) if self.payload_fn is not None else self.payload


@dataclass
class SchedulerStats:
    """What the executor did, and how busy it kept the pool.

    Besides the raw wall numbers (which depend on how many cores the host
    really has), the stats carry each task's measured cost and dependencies
    — enough to *replay* the run deterministically:
    ``queue_span_estimate`` re-schedules the recorded graph at ``jobs``
    workers.
    """

    jobs: int = 1
    tasks: int = 0
    chunks: int = 0
    broadcasts: int = 0
    max_ready: int = 0
    busy_seconds: float = 0.0
    span_seconds: float = 0.0
    #: Per-task busy time keyed by id, for the schedule replay.
    task_busy: dict[str, float] = field(default_factory=dict)
    task_deps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: run() call the task belonged to; the replay never moves work across
    #: rounds (the real executor drains each round fully, too).
    task_round: dict[str, int] = field(default_factory=dict)
    rounds: int = 0

    @property
    def idle_ratio(self) -> float:
        """Fraction of pool capacity spent waiting, 0.0 (saturated) to 1.0."""
        capacity = self.jobs * self.span_seconds
        if capacity <= 0.0:
            return 0.0
        return max(0.0, min(1.0, 1.0 - self.busy_seconds / capacity))

    def queue_span_estimate(self) -> float:
        """Replayed wall time of the ready-queue schedule over these tasks.

        Event-driven list scheduling at ``jobs`` workers over the recorded
        dependency graph and per-task costs, one round at a time — the
        deterministic twin of what the executor actually did."""
        width = max(1, self.jobs)
        total = 0.0
        for round_no in range(max(self.rounds, 1)):
            ids = {task_id for task_id, busy in self.task_busy.items()
                   if self.task_round.get(task_id, 0) == round_no}
            if not ids:
                continue
            graph = TaskGraph([
                Task(id=task_id, kind="sim",
                     deps=tuple(dep for dep
                                in self.task_deps.get(task_id, ())
                                if dep in ids))
                for task_id in sorted(ids)])
            events: list[tuple[float, str]] = []
            free = width
            now = 0.0
            while not graph.done:
                while free and graph.ready:
                    (task,) = graph.pop_ready(1)
                    free -= 1
                    heapq.heappush(events,
                                   (now + self.task_busy.get(task.id, 0.0),
                                    task.id))
                if not events:
                    break
                now, task_id = heapq.heappop(events)
                free += 1
                graph.complete(task_id)
            total += now
        return total

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "tasks": self.tasks,
            "chunks": self.chunks,
            "broadcasts": self.broadcasts,
            "max_ready": self.max_ready,
            "busy_seconds": round(self.busy_seconds, 4),
            "span_seconds": round(self.span_seconds, 4),
            "worker_idle_ratio": round(self.idle_ratio, 4),
            "queue_span_estimate": round(self.queue_span_estimate(), 4),
        }


class TaskGraph:
    """The pure ready-queue core: dependency counters, FIFO among ready.

    Deterministic by construction — the ready order is submission order
    filtered by readiness, and :meth:`complete` appends newly-ready tasks
    in the dependents' submission order.
    """

    def __init__(self, tasks: "list[Task]") -> None:
        self.tasks: dict[str, Task] = {}
        self.pending: dict[str, int] = {}
        self.dependents: dict[str, list[str]] = {}
        self.ready: list[str] = []
        self.outstanding = 0
        for task in tasks:
            if task.id in self.tasks:
                raise ValueError(f"duplicate task id {task.id!r}")
            self.tasks[task.id] = task
        for task in tasks:
            missing = [dep for dep in task.deps if dep not in self.tasks]
            if missing:
                raise ValueError(
                    f"task {task.id!r} depends on unknown task(s) {missing}")
            self.pending[task.id] = len(task.deps)
            for dep in task.deps:
                self.dependents.setdefault(dep, []).append(task.id)
            self.outstanding += 1
            if not task.deps:
                self.ready.append(task.id)

    def pop_ready(self, limit: int, position: int = 0) -> list[Task]:
        """Take up to ``limit`` ready tasks starting at ``position``."""
        taken = self.ready[position:position + limit]
        del self.ready[position:position + limit]
        return [self.tasks[task_id] for task_id in taken]

    def complete(self, task_id: str) -> list[str]:
        """Mark ``task_id`` done; returns the ids that just became ready.

        Newly-ready tasks jump to the *front* of the ready queue: a task
        unblocked by a completion sits on a dependency chain, and chains
        are the critical path — leaves can fill the remaining slots any
        time, but delaying a chain link delays everything behind it.
        """
        self.outstanding -= 1
        newly_ready: list[str] = []
        for dependent in self.dependents.get(task_id, ()):
            self.pending[dependent] -= 1
            if self.pending[dependent] == 0:
                newly_ready.append(dependent)
        self.ready[0:0] = newly_ready
        return newly_ready

    @property
    def done(self) -> bool:
        return self.outstanding == 0


class ExecutorError(RuntimeError):
    """A task raised in a worker; carries the remote traceback."""


class InlineExecutor:
    """The executors' API with no processes: tasks run in the caller.

    ``pick(ready_ids)`` selects which ready task runs next (an index into
    the list); the default is FIFO.  Tests inject adversarial pickers to
    prove completion order cannot influence results.
    """

    parallel = False

    def __init__(self, handler: TaskHandler,
                 pick: Callable[[list[str]], int] | None = None) -> None:
        self.handler = handler
        self.pick = pick
        self.state: dict = {}
        self.stats = SchedulerStats(jobs=1)

    def broadcast(self, tag: str, value: Any) -> None:
        self.state[tag] = value
        self.stats.broadcasts += 1

    def run(self, tasks: "list[Task]",
            parent_tasks: "list[tuple[str, Callable[[], Any]]]" = ()) -> dict:
        started = time.perf_counter()
        graph = TaskGraph(tasks)
        round_no = self.stats.rounds
        self.stats.rounds += 1
        for task in tasks:
            self.stats.task_deps[task.id] = tuple(task.deps)
            self.stats.task_round[task.id] = round_no
        results: dict[str, Any] = {}
        for task_id, thunk in parent_tasks:
            results[task_id] = thunk()
        while not graph.done:
            if not graph.ready:
                stuck = [t for t, n in graph.pending.items()
                         if n > 0 and t not in results]
                raise ExecutorError(f"dependency cycle among tasks {stuck[:4]}")
            self.stats.max_ready = max(self.stats.max_ready, len(graph.ready))
            position = self.pick(list(graph.ready)) if self.pick else 0
            (task,) = graph.pop_ready(1, position)
            payload = task.bind(results)
            t0 = time.perf_counter()
            results[task.id] = self.handler(task.kind, payload, self.state)
            busy = time.perf_counter() - t0
            self.stats.tasks += 1
            self.stats.chunks += 1
            self.stats.busy_seconds += busy
            self.stats.task_busy[task.id] = busy
            graph.complete(task.id)
        self.stats.span_seconds += time.perf_counter() - started
        return results

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _worker_loop(worker_id: int, inbox, results, handler: TaskHandler) -> None:
    """One pool worker: pull from the inbox forever, push to the results.

    The handler and its captured context arrive through ``fork()`` — nothing
    here is pickled except task payloads and results.
    """
    state: dict = {}
    while True:
        message = inbox.get()
        if message is None:
            return
        kind = message[0]
        if kind == "bcast":
            _, tag, value = message
            state[tag] = value
            continue
        _, batch = message
        out = []
        for task_id, task_kind, payload in batch:
            started = time.perf_counter()
            try:
                value = handler(task_kind, payload, state)
            except BaseException:
                results.put(("err", worker_id, task_id, traceback.format_exc()))
                return
            out.append((task_id, time.perf_counter() - started, value))
        results.put(("done", worker_id, out))


class WorkStealingExecutor:
    """A persistent fork pool driven by the dependency-counted ready queue.

    Workers are forked at construction, inheriting the handler's captured
    context (the parsed program, call graph, registry...).  One executor
    serves every phase of an engine run; phases interleave freely because
    ``run`` is just "submit a task graph, drain it" and the pool never
    restarts in between.
    """

    parallel = True

    def __init__(self, jobs: int, handler: TaskHandler) -> None:
        if jobs < 2:
            raise ValueError("WorkStealingExecutor needs jobs >= 2; "
                             "use InlineExecutor for serial runs")
        if not fork_available():
            raise RuntimeError("fork start method unavailable")
        self.jobs = jobs
        self.stats = SchedulerStats(jobs=jobs)
        context = multiprocessing.get_context("fork")
        self._results = context.Queue()
        self._inboxes = []
        self._workers = []
        for worker_id in range(jobs):
            inbox = context.SimpleQueue()
            process = context.Process(
                target=_worker_loop,
                args=(worker_id, inbox, self._results, handler),
                name=f"repro-scheduler-{worker_id}",
                daemon=True)
            process.start()
            self._inboxes.append(inbox)
            self._workers.append(process)
        self._closed = False

    # -- messaging ----------------------------------------------------------

    def broadcast(self, tag: str, value: Any) -> None:
        """Ship (tag, value) to every worker's local state.

        Inbox FIFO order makes this race-free without acks: any task
        dispatched after the broadcast is behind it in every inbox.
        """
        for inbox in self._inboxes:
            inbox.put(("bcast", tag, value))
        self.stats.broadcasts += 1

    def _dispatch(self, graph: TaskGraph, idle: list[int], inflight: dict,
                  results: dict) -> None:
        """Hand ready tasks to idle workers, chunking large backlogs."""
        while idle and graph.ready:
            chunk_size = max(1, min(MAX_CHUNK,
                                    len(graph.ready) // (self.jobs * 2)))
            batch = graph.pop_ready(chunk_size)
            worker_id = idle.pop()
            message = [(task.id, task.kind, task.bind(results))
                       for task in batch]
            inflight[worker_id] = [task.id for task in batch]
            self._inboxes[worker_id].put(("tasks", message))
            self.stats.chunks += 1

    def _next_result(self):
        """Wait for one worker message, watching for dead workers."""
        while True:
            try:
                return self._results.get(timeout=_POLL_SECONDS)
            except Empty:
                dead = [p.name for p in self._workers if not p.is_alive()]
                if dead:
                    raise ExecutorError(
                        f"worker(s) died without reporting: {dead}") from None

    def run(self, tasks: "list[Task]",
            parent_tasks: "list[tuple[str, Callable[[], Any]]]" = ()) -> dict:
        """Drain one task graph; returns {task id: result}.

        ``parent_tasks`` run inline in the parent *after* the first dispatch
        round — the parent is otherwise idle while workers chew, so
        whole-program work (single-shard analyses) overlaps the pool for
        free instead of serializing behind it.
        """
        if self._closed:
            raise ExecutorError("executor already closed")
        started = time.perf_counter()
        graph = TaskGraph(tasks)
        round_no = self.stats.rounds
        self.stats.rounds += 1
        for task in tasks:
            self.stats.task_deps[task.id] = tuple(task.deps)
            self.stats.task_round[task.id] = round_no
        results: dict[str, Any] = {}
        idle = list(range(self.jobs))
        inflight: dict[int, list[str]] = {}
        self.stats.max_ready = max(self.stats.max_ready, len(graph.ready))
        self._dispatch(graph, idle, inflight, results)
        for task_id, thunk in parent_tasks:
            results[task_id] = thunk()
        while not graph.done:
            if not inflight:
                stuck = sorted(t for t, n in graph.pending.items() if n > 0)
                raise ExecutorError(f"dependency cycle among tasks {stuck[:4]}")
            message = self._next_result()
            if message[0] == "err":
                _, worker_id, task_id, remote_traceback = message
                raise ExecutorError(
                    f"task {task_id!r} failed in worker {worker_id}:\n"
                    f"{remote_traceback}")
            _, worker_id, batch = message
            inflight.pop(worker_id, None)
            idle.append(worker_id)
            for task_id, busy, value in batch:
                results[task_id] = value
                self.stats.tasks += 1
                self.stats.busy_seconds += busy
                self.stats.task_busy[task_id] = busy
                graph.complete(task_id)
            self.stats.max_ready = max(self.stats.max_ready, len(graph.ready))
            self._dispatch(graph, idle, inflight, results)
        self.stats.span_seconds += time.perf_counter() - started
        return results

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (OSError, ValueError):
                pass
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        self._results.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
