"""Outside-in layer tracing for the benchmark.

The toolchain has no span API of its own, so the tracer times each layer
from outside: :meth:`Tracer.install` wraps the public function of every
layer *where its caller imports it* (``repro.service.incremental.
build_direct_callgraph``, each adapter's ``run_shard``, the store's
``get``/``put_many``/``touch``...) and :meth:`Tracer.uninstall` puts the
originals back.  Untraced runs never install anything, so end-to-end
numbers carry no tracing cost; a traced run measures that cost itself.

Every benchmark operation (one cold analysis, one incremental pass...) is
an *op*: the root span of the layer spans it causes.  Spans stay in memory
and are written out once, as a Chrome trace-event file that opens in
Perfetto.  :func:`layer_metrics` folds them into the per-layer metrics of
``BENCHMARK.json``: each is the mean, over the ops of the kinds that
exercise the layer, of a span total, a span count, an op's self time or a
counter the op recorded from its report.  A layer that does not run in a
workload reads 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Checker adapters whose ``run_shard`` is a layer of its own.
CHECKERS = (("deputy", "DeputyAnalysis"), ("blockstop", "BlockStopAnalysis"),
            ("errcheck", "ErrcheckAnalysis"), ("lockcheck", "LockcheckAnalysis"),
            ("stackcheck", "StackcheckAnalysis"), ("ccount", "CCountAnalysis"))


def _store_get_counts(args, result) -> dict:
    return {"hits": int(result is not None)}


def _store_put_counts(args, result) -> dict:
    return {"rows": len(args[2])}


#: (module, attribute or Class.method, span name, counter hook).  The batch
#: engine and the incremental service import the same layer functions
#: separately, so both import sites are wrapped under one span name.
LAYER_HOOKS = (
    # kernel / minic: the parse front end
    ("repro.engine.core", "parse_corpus", "parse", None),
    ("repro.service.incremental", "IncrementalAnalyzer._parse_source", "parse", None),
    ("repro.kernel.parallel", "parse_corpus_parallel", "parse_parallel", None),
    # blockstop: call graph, points-to, blocking facts
    ("repro.engine.artifacts", "build_direct_callgraph", "callgraph", None),
    ("repro.service.incremental", "build_direct_callgraph", "callgraph", None),
    ("repro.blockstop.pointsto", "FunctionPointerAnalysis.collect", "pointsto.collect", None),
    ("repro.blockstop.pointsto", "FunctionPointerAnalysis.resolve", "pointsto.resolve", None),
    ("repro.engine.artifacts", "derive_blocking", "blocking", None),
    ("repro.service.incremental", "derive_blocking", "blocking", None),
    ("repro.engine.artifacts", "find_irq_handlers", "irq_handlers", None),
    ("repro.service.incremental", "find_irq_handlers", "irq_handlers", None),
    ("repro.engine.artifacts", "find_error_returning_functions", "error_returning", None),
    ("repro.service.incremental", "find_error_returning_functions", "error_returning", None),
    # dataflow: the domain product, condensation, SCC summaries
    ("repro.engine.core", "solve_program_facts", "facts", None),
    ("repro.service.incremental", "IncrementalAnalyzer._solve_consts", "facts", None),
    ("repro.engine.artifacts", "condense_callgraph", "condense", None),
    ("repro.service.incremental", "condense_callgraph", "condense", None),
    ("repro.service.incremental", "scc_fingerprints", "scc_keys", None),
    ("repro.engine.core", "solve_summaries", "summaries", None),
    ("repro.service.incremental", "IncrementalAnalyzer._solve_summaries", "summaries", None),
    ("repro.dataflow.interproc", "solve_scc", "solve_scc", None),
    ("repro.service.incremental", "solve_scc", "solve_scc", None),
    # deputy, ccount, analyses: one span per checker shard
    *(("repro.engine.analyses", f"{cls}.run_shard", f"checker.{name}", None)
      for name, cls in CHECKERS),
    # engine: the artifact cache's disk layer
    ("repro.engine.artifacts", "ArtifactCache._load_disk", "cache.read", None),
    ("repro.engine.artifacts", "ArtifactCache._store_disk", "cache.write", None),
    # service: the incremental pass's own steps and the warm-start store
    ("repro.service.incremental", "IncrementalAnalyzer._reconcile_parse", "reconcile", None),
    ("repro.service.incremental", "IncrementalAnalyzer._link", "link", None),
    ("repro.service.incremental", "IncrementalAnalyzer._fingerprint", "fingerprint", None),
    ("repro.service.incremental", "IncrementalAnalyzer._run_shards", "shards", None),
    ("repro.service.store", "PersistentStore.get", "store.get", _store_get_counts),
    ("repro.service.store", "PersistentStore.put_many", "store.put", _store_put_counts),
    ("repro.service.store", "PersistentStore.touch", "store.touch", None),
)

#: Op kinds.  Batch workloads run ``serial``/``parallel``/``warm`` ops; the
#: edit workload runs ``cold`` (set-up), ``pass``/``noop`` and ``restart``.
MAIN = ("serial", "pass", "noop")
PASSES = ("pass", "noop")

#: Per-layer metric -> (statistic, source, op kinds); the units are in
#: ``BENCHMARK.json``.  Statistics: ``span_s`` (seconds in outermost spans of that name), ``span_n``
#: (their count), ``self_s`` (op time not covered by its direct children),
#: ``counter`` (a value the op recorded), ``extra`` (measured once per run).
LAYER_METRICS = {
    "parse.s": ("span_s", "parse", MAIN),
    "parse_parallel.s": ("span_s", "parse_parallel", ("parallel",)),
    "parse_parallel.adopted": ("counter", "parse.adopted", ("parallel",)),
    "parse_parallel.fallbacks": ("counter", "parse.fallbacks", ("parallel",)),
    "callgraph.s": ("span_s", "callgraph", MAIN),
    "pointsto.collect_s": ("span_s", "pointsto.collect", MAIN),
    "pointsto.resolve_s": ("span_s", "pointsto.resolve", MAIN),
    "blocking.s": ("span_s", "blocking", MAIN),
    "irq_handlers.s": ("span_s", "irq_handlers", MAIN),
    "error_returning.s": ("span_s", "error_returning", MAIN),
    "facts.s": ("span_s", "facts", MAIN),
    "facts.consts_s": ("extra", "facts.consts_s", ()),
    "facts.intervals_s": ("extra", "facts.intervals_s", ()),
    "facts.octagons_s": ("extra", "facts.octagons_s", ()),
    "facts.infeasible_edges": ("counter", "facts.infeasible_edges", MAIN),
    "condense.s": ("span_s", "condense", MAIN),
    "summaries.s": ("span_s", "summaries", MAIN),
    "summaries.sccs": ("span_n", "solve_scc", MAIN),
    **{f"checker.{name}.s": ("span_s", f"checker.{name}", MAIN)
       for name, _ in CHECKERS},
    "deputy.checks_total": ("counter", "deputy.checks_total", MAIN),
    "deputy.checks_discharged": ("counter", "deputy.checks_discharged", MAIN),
    "deputy.checks_relational": ("counter", "deputy.checks_relational", MAIN),
    "engine.phase.parse_s": ("counter", "phase.parse", ("serial",)),
    "engine.phase.artifacts_s": ("counter", "phase.artifacts", ("serial",)),
    "engine.phase.checkers_s": ("counter", "phase.checkers", ("serial",)),
    "engine.overhead_s": ("self_s", "", ("serial",)),
    "scheduler.worker_idle_ratio": ("counter", "scheduler.worker_idle_ratio",
                                    ("parallel",)),
    "scheduler.tasks": ("counter", "scheduler.tasks", ("parallel",)),
    "cache.disk_hits": ("counter", "cache.disk_hits", ("warm",)),
    "cache.read_s": ("span_s", "cache.read", ("warm",)),
    "cache.write_s": ("span_s", "cache.write", ("serial",)),
    "incremental.parsed_units": ("counter", "inc.parsed_units", PASSES),
    "incremental.consts_solved": ("counter", "inc.consts_solved", PASSES),
    "incremental.dirty_sccs": ("counter", "inc.dirty_sccs", PASSES),
    "incremental.sccs_reused": ("counter", "inc.sccs_reused", PASSES),
    "incremental.shards_rerun": ("counter", "inc.shards_rerun", PASSES),
    "incremental.reuse_ratio": ("counter", "inc.reuse_ratio", PASSES),
    "incremental.reconcile_s": ("span_s", "reconcile", PASSES),
    "incremental.link_s": ("span_s", "link", PASSES),
    "incremental.fingerprint_s": ("span_s", "fingerprint", PASSES),
    "incremental.scc_keys_s": ("span_s", "scc_keys", PASSES),
    "incremental.solve_scc_s": ("span_s", "solve_scc", PASSES),
    "incremental.shard_s": ("span_s", "shards", PASSES),
    "incremental.residual_s": ("self_s", "", PASSES),
    "store.get_calls": ("span_n", "store.get", ("restart",)),
    "store.hits": ("counter", "store.get.hits", ("restart",)),
    "store.get_s": ("span_s", "store.get", ("restart",)),
    "store.put_rows": ("counter", "store.put.rows", ("cold",)),
    "store.put_s": ("span_s", "store.put", ("cold",)),
    "store.touch_s": ("span_s", "store.touch", PASSES),
    "trace.overhead_ratio": ("extra", "trace.overhead_ratio", ()),
    "trace.overhead_s": ("extra", "trace.overhead_s", ()),
}


@dataclass
class Span:
    name: str
    start: float
    op: "Op | None"
    parent: "Span | None"
    #: False when an enclosing open span has the same name (not summed).
    outermost: bool = True
    end: float = 0.0
    children_s: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass
class Op:
    """One benchmark operation: the root span of the layer spans it causes."""

    kind: str
    start: float
    end: float = 0.0
    children_s: float = 0.0
    counters: dict = field(default_factory=dict)
    span_s: Counter = field(default_factory=Counter)
    span_n: Counter = field(default_factory=Counter)

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.children_s


class Tracer:
    """Wraps layer entry points and records their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[Op] = []
        #: Per-run measurements that belong to no single op.
        self.extras: dict[str, float] = {}
        self.installed = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self._open: Counter = Counter()
        self._op: Op | None = None

    # -- ops and spans --------------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        op = Op(kind=kind, start=time.perf_counter())
        self.ops.append(op)
        self._op = op
        try:
            yield op
        finally:
            op.end = time.perf_counter()
            self._op = None

    def _begin(self, name: str) -> Span:
        span = Span(name=name, start=time.perf_counter(), op=self._op,
                    parent=self._stack[-1] if self._stack else None,
                    outermost=self._open[name] == 0)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1
        self.spans.append(span)
        duration = span.end - span.start
        op = span.op
        if span.parent is not None:
            span.parent.children_s += duration
        elif op is not None:
            op.children_s += duration
        if op is None:
            return
        if span.outermost:
            op.span_s[span.name] += duration
        op.span_n[span.name] += 1
        for key, value in span.counters.items():
            op.counters[f"{span.name}.{key}"] = (
                op.counters.get(f"{span.name}.{key}", 0) + value)

    # -- installing the wrappers ------------------------------------------------

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counters.update(count(args, result))
                return result
            finally:
                tracer._end(span)

        return traced

    def install(self) -> None:
        if self.installed:
            return
        for module_name, attr, name, count in LAYER_HOOKS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))
            self._patches.append((owner, attr, original))
        self.installed = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    # -- output -----------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace events (load the file in Perfetto)."""
        origin = min((op.start for op in self.ops), default=0.0)
        pid = os.getpid()

        def event(name, category, start, end, args):
            return {"name": name, "cat": category, "ph": "X", "pid": pid,
                    "tid": 1, "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3), "args": args}

        events = [event(f"op:{op.kind}", op.kind, op.start, op.end,
                        {k: v for k, v in op.counters.items()
                         if isinstance(v, (int, float))})
                  for op in self.ops]
        events.extend(event(span.name, span.op.kind if span.op else "none",
                            span.start, span.end, span.counters)
                      for span in self.spans)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))


def _op_value(op: Op, statistic: str, source: str) -> float:
    if statistic == "span_s":
        return op.span_s.get(source, 0.0)
    if statistic == "span_n":
        return op.span_n.get(source, 0)
    if statistic == "self_s":
        return op.self_s
    return op.counters.get(source, 0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric: its mean over the ops that exercise it."""
    values: dict[str, float] = {}
    for name, (statistic, source, kinds) in LAYER_METRICS.items():
        if statistic == "extra":
            values[name] = tracer.extras.get(source, 0.0)
            continue
        samples = [_op_value(op, statistic, source)
                   for op in tracer.ops if op.kind in kinds]
        values[name] = sum(samples) / len(samples) if samples else 0.0
    return values
