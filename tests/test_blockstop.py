"""Tests for BlockStop: call graph, points-to, blocking propagation, checker."""

import pytest

from repro.blockstop import (
    Precision,
    RuntimeCheckSet,
    build_direct_callgraph,
    build_report,
    check_blockstop,
    collect_seeds,
    derive_blocking,
    emit_annotations,
    insert_assertions,
)
from repro.blockstop import runtime_checks as bs_runtime
from repro.engine import build_shared_artifacts
from repro.machine import CheckFailure, Interpreter, link_units
from repro.minic import parse_source


def build(source):
    return link_units([parse_source(source)])


def bundle(source, precision=Precision.TYPE_BASED):
    return build_shared_artifacts(build(source), precision)


SIMPLE_SOURCE = """
void schedule(void) blocking;
void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);

void helper(void) { schedule(); }
void outer(void) { helper(); }

static int lock;

void bad_atomic(void) {
    spin_lock_irqsave(&lock);
    helper();
    spin_unlock_irqrestore(&lock);
}

void good_atomic(void) {
    spin_lock_irqsave(&lock);
    lock = lock + 1;
    spin_unlock_irqrestore(&lock);
}
"""

GFP_SOURCE = """
void *kmalloc(unsigned int size, int flags) blocking_if_wait;
void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);
static int lock;

void atomic_alloc_ok(void) {
    spin_lock_irqsave(&lock);
    kmalloc(64, 1);
    spin_unlock_irqrestore(&lock);
}

void atomic_alloc_bad(void) {
    spin_lock_irqsave(&lock);
    kmalloc(64, 17);
    spin_unlock_irqrestore(&lock);
}
"""

FNPTR_SOURCE = """
void schedule(void) blocking;
struct sleepy_ops { int (*hook)(int); };
struct quick_ops { int (*hook)(int); };

int sleepy_hook(int x) { schedule(); return x; }
int quick_hook(int x) { return x + 1; }

static struct sleepy_ops sleepy = { .hook = sleepy_hook };
static struct quick_ops quick = { .hook = quick_hook };

void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);
static int lock;

int call_quick_atomically(void) {
    int r;
    spin_lock_irqsave(&lock);
    r = quick.hook(1);
    spin_unlock_irqrestore(&lock);
    return r;
}
"""


class TestCallGraph:
    def test_direct_edges(self):
        program = build(SIMPLE_SOURCE)
        graph, indirect = build_direct_callgraph(program)
        assert "helper" in graph.callees("outer")
        assert "schedule" in graph.callees("helper")
        assert indirect == []

    def test_reverse_reachability(self):
        program = build(SIMPLE_SOURCE)
        graph, _ = build_direct_callgraph(program)
        callers = graph.reverse_reachable({"schedule"})
        assert {"schedule", "helper", "outer", "bad_atomic"} <= callers
        assert "good_atomic" not in callers

    def test_shortest_path(self):
        program = build(SIMPLE_SOURCE)
        graph, _ = build_direct_callgraph(program)
        path = graph.shortest_path("outer", {"schedule"})
        assert path == ["outer", "helper", "schedule"]

    def test_indirect_calls_collected(self):
        program = build(FNPTR_SOURCE)
        graph, indirect = build_direct_callgraph(program)
        assert len(indirect) == 1
        assert indirect[0].caller == "call_quick_atomically"


class TestBlockingPropagation:
    def test_annotation_seeds(self):
        program = build(SIMPLE_SOURCE)
        info = collect_seeds(program)
        assert "schedule" in info.seeds

    def test_summary_derived_closure(self):
        program = build(SIMPLE_SOURCE)
        graph, _ = build_direct_callgraph(program)
        info = derive_blocking(program, graph)
        assert {"schedule", "helper", "outer"} <= info.may_block
        assert "good_atomic" not in info.may_block

    def test_gfp_atomic_call_does_not_block(self):
        program = build(GFP_SOURCE)
        graph, _ = build_direct_callgraph(program)
        info = derive_blocking(program, graph)
        assert "atomic_alloc_bad" in info.may_block
        assert "atomic_alloc_ok" not in info.may_block

    def test_emitted_annotations(self):
        program = build(SIMPLE_SOURCE)
        graph, _ = build_direct_callgraph(program)
        info = derive_blocking(program, graph)
        annotations = emit_annotations(info, graph)
        assert annotations.get("outer") == "blocking"
        assert "good_atomic" not in annotations


class TestChecker:
    def test_direct_violation_detected(self):
        result = check_blockstop(bundle(SIMPLE_SOURCE))
        callers = {v.caller for v in result.reported}
        assert "bad_atomic" in callers
        assert "good_atomic" not in callers

    def test_gfp_wait_violation_only(self):
        result = check_blockstop(bundle(GFP_SOURCE))
        callers = {v.caller for v in result.reported}
        assert callers == {"atomic_alloc_bad"}

    def test_type_based_pointsto_produces_false_positive(self):
        result = check_blockstop(bundle(FNPTR_SOURCE, Precision.TYPE_BASED))
        callees = {v.callee for v in result.reported}
        assert "sleepy_hook" in callees  # false positive: never actually called

    def test_field_sensitive_pointsto_removes_false_positive(self):
        result = check_blockstop(bundle(FNPTR_SOURCE, Precision.FIELD_SENSITIVE))
        callees = {v.callee for v in result.reported}
        assert "sleepy_hook" not in callees

    def test_runtime_check_silences_report(self):
        checks = RuntimeCheckSet({"sleepy_hook"})
        result = check_blockstop(bundle(FNPTR_SOURCE), runtime_checks=checks)
        assert not result.reported
        assert result.silenced

    def test_report_summary(self):
        result = check_blockstop(bundle(SIMPLE_SOURCE))
        report = build_report(result)
        assert report.functions_analyzed >= 4
        assert report.violations_reported >= 1
        assert "bad_atomic" in str(report)


class TestRuntimeAssertion:
    def test_assertion_inserted_and_panics_in_atomic_context(self):
        source = """
        int sensitive(int x) { return x + 1; }
        int call_it(void) { __hw_cli(); return sensitive(1); }
        """
        program = build(source)
        inserted = insert_assertions(program, RuntimeCheckSet({"sensitive"}))
        assert inserted == 1
        interp = Interpreter(program)
        bs_runtime.install(interp)
        with pytest.raises(CheckFailure) as excinfo:
            interp.run("call_it")
        assert excinfo.value.tool == "blockstop"

    def test_assertion_passes_in_process_context(self):
        source = "int sensitive(int x) { return x * 2; }"
        program = build(source)
        insert_assertions(program, RuntimeCheckSet({"sensitive"}))
        interp = Interpreter(program)
        stats = bs_runtime.install(interp)
        assert interp.run("sensitive", 21).value == 42
        assert stats.assertions_executed == 1
        assert stats.assertion_failures == 0


class TestOnKernelCorpus:
    def test_kernel_seeded_bugs_found(self, kernel_artifacts):
        result = check_blockstop(kernel_artifacts)
        callers = {v.caller for v in result.reported}
        assert "buggy_stats_update" in callers
        assert "disk_timeout_interrupt" in callers

    def test_kernel_irq_handlers_discovered(self, kernel_artifacts):
        result = check_blockstop(kernel_artifacts)
        assert "timer_interrupt" in result.irq_handlers
        assert "disk_timeout_interrupt" in result.irq_handlers

    def test_kernel_blocking_set_contains_syscalls(self, kernel_artifacts):
        result = check_blockstop(kernel_artifacts)
        assert "schedule" in result.blocking.may_block
        assert "do_fork" in result.blocking.may_block
        assert "pipe_write" in result.blocking.may_block

    @pytest.mark.parametrize("precision, edges", [
        (Precision.TYPE_BASED, 61), (Precision.FIELD_SENSITIVE, 43)])
    def test_kernel_indirect_call_edges(self, kernel_program, precision, edges):
        # Each (caller, callee) pair the indirect calls resolve to: the
        # graph's per-caller map, which holds no call sites.
        shared = build_shared_artifacts(kernel_program, precision)
        assert build_report(check_blockstop(shared)).indirect_edges == edges
