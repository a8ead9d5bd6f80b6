"""Work-stealing task executor for an analysis pass's independent tasks.

A parallel pass (:meth:`repro.service.IncrementalAnalyzer.analyze` at
``jobs`` > 1) sends two kinds of work to forked workers: one
constant-facts task per translation unit with unsolved functions, and the
per-unit checker shards it could not reuse.  No task
depends on another (summaries are solved in the parent, where one SCC's
fixpoint costs less than shipping its callee summaries to a worker), so
each executor drains a plain first-in first-out list:

* one pool of forked workers persists across every phase of a pass.  Each
  worker owns an inbox queue and pulls continuously; the parent hands
  queued tasks to idle workers the moment either appears, and batches
  long backlogs into chunks of at most :data:`MAX_CHUNK` so per-task
  dispatch overhead stays amortized;
* ``broadcast()`` pushes a (tag, value) pair into every worker's inbox —
  inbox FIFO order guarantees a worker sees the broadcast before any task
  dispatched after it, which is how the checker-shard phase ships the
  merged artifacts once per worker instead of once per shard;
* results are keyed by task id and merged by the *caller* in a
  deterministic order, so completion order never influences any report —
  serial, scrambled-inline and parallel runs are byte-identical by
  construction (``InlineExecutor(pick=...)`` exists to assert exactly
  that in tests).
"""

from __future__ import annotations

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
#: queued backlog grows.
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
    time-slicing the same cores — a pass clamps its pool size here (to
    no fewer than two workers), so ``--jobs 8`` on a 2-core host forks two
    workers instead of paying four-way oversubscription for nothing.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def worker_count(jobs: int) -> int:
    """How many worker processes a pass at ``jobs`` forks; 1 means serial.

    The count is the size of the pass's one pool, the executor; the parse
    forks nothing.  ``jobs=0`` resolves to every usable CPU.  Without
    ``fork`` there is no pool at all.  Otherwise the pool is clamped to the
    affinity mask — workers beyond it only add fork/IPC cost while
    time-slicing the same cores — but an explicit ``jobs >= 2`` keeps a
    floor of two workers so parallel behavior stays testable on any host.
    """
    jobs = resolve_jobs(jobs)
    if jobs < 2 or not fork_available():
        return 1
    return min(jobs, max(2, usable_cpus()))


@dataclass
class Task:
    """One independent unit of work."""

    id: str
    kind: str
    payload: Any = None


@dataclass
class SchedulerStats:
    """What the executor did, and how busy it kept the pool."""

    jobs: int = 1
    tasks: int = 0
    chunks: int = 0
    broadcasts: int = 0
    #: The longest task list one ``run`` call queued.
    max_ready: int = 0
    busy_seconds: float = 0.0
    span_seconds: float = 0.0
    #: Per-task busy time keyed by id (the pass sums it per phase).
    task_busy: dict[str, float] = field(default_factory=dict)

    @property
    def idle_ratio(self) -> float:
        """Fraction of pool capacity spent waiting, 0.0 (saturated) to 1.0."""
        capacity = self.jobs * self.span_seconds
        if capacity <= 0.0:
            return 0.0
        return max(0.0, min(1.0, 1.0 - self.busy_seconds / capacity))

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
        }


def _queue(tasks: "list[Task]", stats: SchedulerStats) -> "list[Task]":
    """One ``run`` call's first-in first-out queue; task ids must be unique."""
    seen: set[str] = set()
    for task in tasks:
        if task.id in seen:
            raise ValueError(f"duplicate task id {task.id!r}")
        seen.add(task.id)
    stats.max_ready = max(stats.max_ready, len(tasks))
    return list(tasks)


class ExecutorError(RuntimeError):
    """A task raised in a worker; carries the remote traceback."""


class InlineExecutor:
    """The executors' API with no processes: tasks run in the caller.

    ``pick(queued_ids)`` selects which queued task runs next (an index into
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
        queue = _queue(tasks, self.stats)
        results: dict[str, Any] = {}
        for task_id, thunk in parent_tasks:
            results[task_id] = thunk()
        while queue:
            position = self.pick([t.id for t in queue]) if self.pick else 0
            task = queue.pop(position)
            t0 = time.perf_counter()
            results[task.id] = self.handler(task.kind, task.payload, self.state)
            busy = time.perf_counter() - t0
            self.stats.tasks += 1
            self.stats.chunks += 1
            self.stats.busy_seconds += busy
            self.stats.task_busy[task.id] = busy
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
    """A persistent fork pool that drains FIFO task lists.

    Workers are forked at construction, inheriting the handler's captured
    context (the parsed program, call graph, registry...).  One executor
    serves every phase of an analysis pass: ``run`` is just "submit a task
    list, drain it", and the pool never restarts in between.
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

    def _dispatch(self, queue: "list[Task]", idle: list[int]) -> None:
        """Hand queued tasks to idle workers, chunking large backlogs."""
        while idle and queue:
            chunk_size = max(1, min(MAX_CHUNK, len(queue) // (self.jobs * 2)))
            batch = queue[:chunk_size]
            del queue[:chunk_size]
            worker_id = idle.pop()
            self._inboxes[worker_id].put(
                ("tasks", [(task.id, task.kind, task.payload)
                           for task in batch]))
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
        """Drain one task list; returns {task id: result}.

        ``parent_tasks`` run inline in the parent *after* the first dispatch
        round — the parent is otherwise idle while workers chew, so
        whole-program work (single-shard analyses) overlaps the pool for
        free instead of serializing behind it.
        """
        if self._closed:
            raise ExecutorError("executor already closed")
        started = time.perf_counter()
        queue = _queue(tasks, self.stats)
        results: dict[str, Any] = {}
        idle = list(range(self.jobs))
        self._dispatch(queue, idle)
        for task_id, thunk in parent_tasks:
            results[task_id] = thunk()
        while len(idle) < self.jobs:
            message = self._next_result()
            if message[0] == "err":
                _, worker_id, task_id, remote_traceback = message
                raise ExecutorError(
                    f"task {task_id!r} failed in worker {worker_id}:\n"
                    f"{remote_traceback}")
            _, worker_id, batch = message
            idle.append(worker_id)
            for task_id, busy, value in batch:
                results[task_id] = value
                self.stats.tasks += 1
                self.stats.busy_seconds += busy
                self.stats.task_busy[task_id] = busy
            self._dispatch(queue, idle)
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
