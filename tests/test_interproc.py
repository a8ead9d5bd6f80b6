"""Tests for the interprocedural summary framework: SCC condensation,
bottom-up summary solving (including every recursion shape), the ported
consumers (lockcheck, blockstop, errcheck, stackcheck), oracle equivalence
against hand-inlined corpora, and the engine/CLI wiring."""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.analyses import analyse_locks, analyse_stack, check_locks
from repro.analyses.errcheck import find_error_returning_functions
from repro.blockstop import build_direct_callgraph, check_blockstop
from repro.blockstop.pointsto import FunctionPointerAnalysis, Precision
from repro.dataflow import (
    condense_callgraph,
    solve_summaries,
)
from repro.engine import AnalysisEngine, build_shared_artifacts
from repro.engine.cli import main as cli_main
from repro.machine import link_units
from repro.minic import parse_source


def build(source):
    return link_units([parse_source(source)])


def bundle(source):
    return build_shared_artifacts(build(source))


def summarise(source, pointsto=False):
    program = build(source)
    graph, indirect = build_direct_callgraph(program)
    if pointsto:
        analysis = FunctionPointerAnalysis(program, Precision.TYPE_BASED)
        analysis.collect()
        analysis.resolve(graph, indirect)
    return program, graph, solve_summaries(program, graph)


LOCK_PROTOS = """
void spin_lock(int *lock);
void spin_unlock(int *lock);
unsigned long spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock, unsigned long flags);
void local_irq_disable(void);
void local_irq_enable(void);
void schedule(void) blocking;
static int lock_a;
static int lock_b;
"""


# ---------------------------------------------------------------------------
# Condensation: ordering and every recursion shape
# ---------------------------------------------------------------------------

class TestCondensation:
    def test_bottom_up_order_and_waves(self):
        program, graph, _ = summarise("""
        int leaf(int x) { return x + 1; }
        int mid(int x) { return leaf(x); }
        int top(int x) { return mid(x) + leaf(x); }
        """)
        condensation = condense_callgraph(graph)
        position = {name: index for index, scc in enumerate(condensation.sccs)
                    for name in scc}
        assert position["leaf"] < position["mid"] < position["top"]
        depth_of = {name: wave_index
                    for wave_index, wave in enumerate(condensation.waves)
                    for scc_index in wave
                    for name in condensation.sccs[scc_index]}
        assert depth_of["leaf"] < depth_of["mid"] < depth_of["top"]
        assert not condensation.recursive_functions()

    def test_self_loop(self):
        _, graph, summaries = summarise("""
        int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
        """)
        condensation = condense_callgraph(graph)
        assert condensation.is_recursive("fact")
        assert condensation.recursive_functions() == {"fact"}
        assert len(condensation.members("fact")) == 1
        assert summaries["fact"].defined    # converged despite the cycle

    def test_mutual_recursion(self):
        _, graph, summaries = summarise("""
        int odd(int n);
        int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
        int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
        """)
        condensation = condense_callgraph(graph)
        assert condensation.recursive_functions() == {"even", "odd"}
        assert condensation.members("even") == ("even", "odd")
        assert summaries["even"].defined and summaries["odd"].defined

    def test_indirect_cycle_through_function_pointer(self):
        program, graph, _ = summarise("""
        struct ops { int (*hook)(int); };
        int pong(int x);
        int ping(int x) {
            struct ops o;
            o.hook = pong;
            return o.hook(x);
        }
        int pong(int x) { return ping(x); }
        """, pointsto=True)
        condensation = condense_callgraph(graph)
        # The cycle only closes through the points-to-resolved edge.
        assert condensation.is_recursive("ping")
        assert condensation.is_recursive("pong")
        assert set(condensation.members("ping")) == {"ping", "pong"}


# ---------------------------------------------------------------------------
# Summary contents
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_irq_delta_of_disable_helper(self):
        _, _, summaries = summarise(LOCK_PROTOS + """
        void freeze(void) { local_irq_disable(); }
        void thaw(void) { local_irq_enable(); }
        void balanced(void) { local_irq_disable(); local_irq_enable(); }
        """)
        assert summaries["freeze"].irq_delta == 1
        assert summaries["thaw"].irq_delta == -1
        assert summaries["balanced"].irq_delta == 0

    def test_irq_delta_transits_through_wrappers(self):
        _, _, summaries = summarise(LOCK_PROTOS + """
        void freeze(void) { local_irq_disable(); }
        void freeze_twice(void) { freeze(); freeze(); }
        """)
        assert summaries["freeze_twice"].irq_delta == 2

    def test_lock_wrapper_holds_and_releases(self):
        _, _, summaries = summarise(LOCK_PROTOS + """
        void take(void) { spin_lock(&lock_a); }
        void drop(void) { spin_unlock(&lock_a); }
        void both(void) { take(); drop(); }
        """)
        assert summaries["take"].locks_held == (("&(lock_a)", 1),)
        assert "&(lock_a)" in summaries["take"].may_return_held
        assert summaries["drop"].locks_released == (("&(lock_a)", 1),)
        assert summaries["both"].locks_held == ()
        assert summaries["both"].may_return_held == ()

    def test_leak_is_may_but_not_must(self):
        _, _, summaries = summarise(LOCK_PROTOS + """
        int leaky(int n) {
            spin_lock(&lock_a);
            if (n < 0) { return -1; }
            spin_unlock(&lock_a);
            return 0;
        }
        """)
        summary = summaries["leaky"]
        assert summary.locks_held == ()         # not held on every path
        assert summary.may_return_held == ("&(lock_a)",)

    def test_parameter_lock_names_do_not_escape(self):
        _, _, summaries = summarise(LOCK_PROTOS + """
        void lock_it(int *which) { spin_lock(which); }
        """)
        summary = summaries["lock_it"]
        assert summary.locks_held == ()
        assert summary.may_return_held == ()
        assert summary.acquires == ()

    def test_may_block_through_recursion(self):
        _, _, summaries = summarise(LOCK_PROTOS + """
        int walk_tree(int n) {
            if (n == 0) { return 0; }
            schedule();
            return walk_tree(n - 1);
        }
        int visits(int n) { return walk_tree(n); }
        """)
        assert summaries["walk_tree"].may_block
        assert summaries["visits"].may_block

    def test_error_return_propagation(self):
        program, _, summaries = summarise("""
        int helper(int n) { if (n < 0) { return -22; } return 0; }
        int wrapper(int n) { return helper(n); }
        int launderer(int n) { helper(n); return 0; }
        """)
        assert summaries["helper"].error_returns == (-22,)
        assert summaries["wrapper"].error_returns == (-22,)
        assert summaries["launderer"].error_returns == ()
        names = find_error_returning_functions(program, summaries)
        assert {"helper", "wrapper"} <= names
        assert "launderer" not in names

    def test_stack_depth_is_bottom_up(self):
        _, _, summaries = summarise("""
        int leaf(int x) { return x; }
        int mid(int x) { return leaf(x); }
        int top(int x) { return mid(x); }
        """)
        assert (summaries["top"].stack_depth
                == summaries["top"].frame_size + summaries["mid"].stack_depth)
        assert (summaries["mid"].stack_depth
                == summaries["mid"].frame_size + summaries["leaf"].stack_depth)


# ---------------------------------------------------------------------------
# Ported consumers on small programs
# ---------------------------------------------------------------------------

class TestInterprocLockcheck:
    def test_returns_with_lock_held_and_caller_inheritance(self):
        report = analyse_locks(bundle(LOCK_PROTOS + """
        int leaky(int n) {
            spin_lock(&lock_a);
            if (n < 0) { return -1; }
            spin_unlock(&lock_a);
            return 0;
        }
        int caller(int n) { return leaky(n); }
        """))
        flagged = {(leak.function, leak.lock) for leak in report.leaked_returns}
        assert ("leaky", "&(lock_a)") in flagged
        assert ("caller", "&(lock_a)") in flagged
        by_function = {leak.function: leak for leak in report.leaked_returns}
        assert by_function["caller"].via_callee == "leaky"

    def test_balanced_wrappers_are_not_leaks(self):
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void take(void) { spin_lock(&lock_a); }
        void drop(void) { spin_unlock(&lock_a); }
        int fine(void) { take(); drop(); return 0; }
        """))
        functions = {leak.function for leak in report.leaked_returns}
        # The deliberate wrapper holds on *every* path: its callers' contract.
        assert "fine" not in functions
        assert "drop" not in functions

    def test_interprocedural_double_acquire(self):
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void helper(void) { spin_lock(&lock_a); spin_unlock(&lock_a); }
        void deadlocks(void) {
            spin_lock(&lock_a);
            helper();
            spin_unlock(&lock_a);
        }
        void fine(void) { helper(); }
        """))
        doubles = {(acq.function, acq.lock, acq.via_callee)
                   for acq in report.double_acquires}
        assert ("deadlocks", "&(lock_a)", "helper") in doubles
        assert all(function != "fine" for function, _, _ in doubles)
        assert not report.deadlock_free

    def test_oracle_matches_hand_inlined_double_acquire(self):
        modular = analyse_locks(bundle(LOCK_PROTOS + """
        void helper(void) { spin_lock(&lock_a); spin_unlock(&lock_a); }
        void caller(void) { spin_lock(&lock_a); helper(); spin_unlock(&lock_a); }
        """))
        inlined = analyse_locks(bundle(LOCK_PROTOS + """
        void caller(void) {
            spin_lock(&lock_a);
            spin_lock(&lock_a);
            spin_unlock(&lock_a);
            spin_unlock(&lock_a);
        }
        """))
        assert {acq.function for acq in modular.double_acquires} == {"caller"}
        assert {acq.function for acq in inlined.double_acquires} == {"caller"}
        assert ({acq.lock for acq in modular.double_acquires}
                == {acq.lock for acq in inlined.double_acquires})

    def test_oracle_matches_hand_inlined_leak(self):
        modular = analyse_locks(bundle(LOCK_PROTOS + """
        int grab(int n) {
            spin_lock(&lock_a);
            if (n < 0) { return -1; }
            spin_unlock(&lock_a);
            return 0;
        }
        int caller(int n) { return grab(n); }
        """))
        inlined = analyse_locks(bundle(LOCK_PROTOS + """
        int caller(int n) {
            spin_lock(&lock_a);
            if (n < 0) { return -1; }
            spin_unlock(&lock_a);
            return 0;
        }
        """))
        assert "caller" in {leak.function for leak in modular.leaked_returns}
        assert "caller" in {leak.function for leak in inlined.leaked_returns}
        assert ({leak.lock for leak in modular.leaked_returns}
                == {leak.lock for leak in inlined.leaked_returns})


class TestInterprocBlockstop:
    IRQ_DELTA_SOURCE = LOCK_PROTOS + """
    void freeze(void) { local_irq_disable(); }
    void thaw(void) { local_irq_enable(); }
    void bad(void) { freeze(); schedule(); thaw(); }
    void good(void) { freeze(); thaw(); schedule(); }
    """

    def test_atomic_context_through_callee_irq_delta(self):
        result = check_blockstop(bundle(self.IRQ_DELTA_SOURCE))
        callers = {v.caller for v in result.reported}
        assert "bad" in callers
        assert "good" not in callers

    def test_intraprocedural_scan_misses_it(self):
        result = check_blockstop(replace(bundle(self.IRQ_DELTA_SOURCE),
                                         summaries={}))   # summaries withheld
        assert "bad" not in {v.caller for v in result.reported}

    def test_oracle_matches_hand_inlined_corpus(self):
        inlined = check_blockstop(bundle(LOCK_PROTOS + """
        void bad(void) {
            local_irq_disable();
            schedule();
            local_irq_enable();
        }
        void good(void) {
            local_irq_disable();
            local_irq_enable();
            schedule();
        }
        """))
        modular = check_blockstop(bundle(self.IRQ_DELTA_SOURCE))
        assert ({v.caller for v in modular.reported}
                == {v.caller for v in inlined.reported} == {"bad"})
        assert ({v.callee for v in modular.reported}
                == {v.callee for v in inlined.reported} == {"schedule"})


class TestInterprocStackcheck:
    def test_bounded_escape_through_recursive_scc_is_not_dropped(self):
        """A bounded chain may pass through a recursive SCC before escaping
        to a deep out-of-SCC callee; that escape depth must survive into
        the SCC members' (and their callers') reported depth."""
        program = build("""
        int helper(void) stacksize(4000) { return 1; }
        int pong(int n);
        int ping(int n) { if (n == 0) { return helper(); } return pong(n - 1); }
        int pong(int n) { return ping(n - 1); }
        int entry(void) { return ping(5); }
        """)
        report = analyse_stack(build_shared_artifacts(program))
        assert report.recursive_functions == {"ping", "pong"}
        assert report.max_depth["ping"] > 4000
        assert report.max_depth["entry"] > 4000

    def test_recursion_from_condensation(self):
        program = build("""
        int odd(int n);
        int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
        int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
        int straight(int n) { return even(n); }
        """)
        report = analyse_stack(build_shared_artifacts(program))
        assert report.recursive_functions == {"even", "odd"}
        assert "straight" not in report.recursive_functions
        assert report.max_depth["straight"] > 0


# ---------------------------------------------------------------------------
# Kernel-corpus acceptance: the seeded interprocedural bugs
# ---------------------------------------------------------------------------

class TestKernelCorpusInterproc:
    @pytest.fixture(scope="class")
    def artifacts(self, kernel_artifacts):
        return kernel_artifacts

    def test_seeded_lock_leak_found_and_propagated(self, artifacts):
        facts = check_locks(artifacts)
        flagged = {(leak.function, leak.lock) for leak in facts.leaks}
        assert ("audit_reserve_slot", "&(audit_slot_lock)") in flagged
        assert ("buggy_audit_reserve", "&(audit_slot_lock)") in flagged

    def test_seeded_lock_leak_invisible_intraprocedurally(self, artifacts):
        facts = check_locks(replace(artifacts, summaries={}))    # no summaries
        # audit_try_slot_trace is the live if (1) twin of the pruned
        # condition-gated leak: it leaks within one function, while its
        # caller's leak (audit_probe_trace) needs the summaries.
        assert {leak.function for leak in facts.leaks} == {
            "audit_reserve_slot", "audit_try_slot_trace"}

    def test_seeded_irq_delta_bug_found(self, artifacts):
        result = check_blockstop(artifacts)
        flagged = {(v.caller, v.callee) for v in result.reported}
        assert ("buggy_deferred_flush", "audit_log_event") in flagged

    def test_seeded_irq_delta_bug_invisible_intraprocedurally(self, artifacts):
        result = check_blockstop(replace(artifacts, summaries={}))   # summaries withheld
        assert "buggy_deferred_flush" not in {v.caller for v in result.reported}

    def test_corpus_has_no_spurious_leaks(self, artifacts):
        facts = check_locks(artifacts)
        # The four leaks are all seeded: the PR 3 interprocedural pair and
        # the PR 4 condition-gated live twin plus its caller.  The if (0)
        # variants (audit_try_slot_debug / audit_probe_debug) must *not*
        # appear — their acquire sits on an infeasible edge.
        assert {leak.function for leak in facts.leaks} == {
            "audit_reserve_slot", "buggy_audit_reserve",
            "audit_try_slot_trace", "audit_probe_trace"}
        assert not facts.interproc_acquires

    def test_blocking_matches_summary_bits(self, artifacts):
        summaries = artifacts.summaries
        derived = {name for name, summary in summaries.items()
                   if summary.may_block} | artifacts.blocking.seeds
        assert derived == artifacts.blocking.may_block


# ---------------------------------------------------------------------------
# Engine wiring: waves, parallel equivalence, persistence
# ---------------------------------------------------------------------------

class TestEngineSummaries:
    def test_wave_parallel_solve_matches_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        engine = AnalysisEngine()
        engine.run(analyses="stackcheck", jobs=2)
        artifacts = engine.artifacts()
        parallel = artifacts.summaries
        serial = solve_summaries(artifacts.program, artifacts.graph,
                                 condense_callgraph(artifacts.graph))
        assert parallel == serial
        assert list(parallel) == list(serial)   # merge order identical too

    def test_summary_cache_round_trips_through_disk(self, tmp_path):
        first = AnalysisEngine(cache_dir=tmp_path)
        report_one = first.run(analyses="stackcheck")
        assert report_one.summary_stats["cache_hit"] is False
        second = AnalysisEngine(cache_dir=tmp_path)
        report_two = second.run(analyses="stackcheck")
        assert report_two.summary_stats["cache_hit"] is True
        assert (report_one.analyses["stackcheck"].metrics
                == report_two.analyses["stackcheck"].metrics)

    def test_summary_stats_reported(self):
        report = AnalysisEngine().run(analyses="stackcheck")
        stats = report.summary_stats
        assert stats["functions"] > 100
        assert stats["sccs"] > 0
        assert stats["waves"] > 1
        assert "summaries:" in report.render_text()


# ---------------------------------------------------------------------------
# CLI: the callgraph subcommand and the bench trajectory
# ---------------------------------------------------------------------------

class TestCallgraphCli:
    def test_text_output_has_condensation_and_witness(self, capsys):
        assert cli_main(["callgraph"]) == 0
        out = capsys.readouterr().out
        assert "call-graph condensation" in out
        assert "bottom-up waves" in out
        assert "may-block witnesses" in out
        # The seeded interprocedural bug's witness chain is explained.
        assert "buggy_deferred_flush:" in out

    def test_single_function_witness(self, capsys):
        assert cli_main(["callgraph", "--function", "buggy_stats_update"]) == 0
        out = capsys.readouterr().out
        assert "buggy_stats_update -> audit_log_event" in out

    def test_json_output(self, capsys):
        assert cli_main(["callgraph", "--format", "json",
                         "--function", "schedule"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-engine-callgraph/1"
        summary = payload["summaries"]["schedule"]
        assert summary["may_block"] is True
        assert summary["witness"] == ["schedule"]

    def test_unknown_function_rejected(self, capsys):
        assert cli_main(["callgraph", "--function", "nonsense"]) == 2
        assert "unknown function" in capsys.readouterr().err

    def test_bench_json_accumulates_runs(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        for _ in range(2):
            assert cli_main(["run", "--analyses", "stackcheck",
                             "--cache-dir", str(tmp_path / "cache"),
                             "--bench-json", str(path)]) == 0
            capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-engine-bench/1"
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["summary_stats"]["cache_hit"] is False
        assert payload["runs"][1]["summary_stats"]["cache_hit"] is True
        assert payload["summary_cache_hit_rate"] == 0.5
