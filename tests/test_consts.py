"""Condition-aware dataflow: the constant-propagation lattice, branch-edge
refinement, infeasible-edge pruning in every client solve, and the engine's
keyed constant-facts artifact."""

import json
import multiprocessing

import pytest

from repro.analyses.errcheck import check_error_returns
from repro.analyses.lockcheck import analyse_locks, check_locks
from repro.blockstop.callgraph import build_direct_callgraph
from repro.blockstop.checker import check_blockstop
from repro.dataflow import build_cfg, solve_summaries
from repro.dataflow.cfg import COND
from repro.dataflow.consts import (
    ConstDomain,
    FunctionConsts,
    eval_const,
    trackable_names,
)
from repro.dataflow.domains import ProductWalk, solve_function_facts, solve_program_facts
from repro.deputy.checker import ObligationKind, ObligationStatus, check_program
from repro.engine.artifacts import build_shared_artifacts
from repro.engine.cli import main as cli_main
from repro.engine.core import AnalysisEngine
from repro.kernel.build import parse_corpus
from repro.kernel.corpus import CorpusFile
from repro.minic.parser import parse_expression


def parse(source: str, filename: str = "test.c"):
    return parse_corpus((CorpusFile(filename, source),))


def expr(text: str):
    return parse_expression(text)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class TestEvalConst:
    @pytest.mark.parametrize("text, expected", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("-(20 + 2)", -22),
        ("0 - 22", -22),
        ("7 / 2", 3),
        ("-7 / 2", -3),          # C truncates toward zero
        ("-7 % 2", -1),
        ("1 << 4", 16),
        ("255 >> 4", 15),
        ("0x10 | 1", 17),
        ("6 & 3", 2),
        ("5 ^ 1", 4),
        ("~0", -1),
        ("!0", 1),
        ("!42", 0),
        ("3 == 3", 1),
        ("3 != 3", 0),
        ("2 < 3", 1),
        ("1 ? 10 : 20", 10),
        ("0 ? 10 : 20", 20),
        ("'A'", 65),
    ])
    def test_folds(self, text, expected):
        assert eval_const(expr(text)) == expected

    def test_division_by_zero_is_unknown(self):
        assert eval_const(expr("1 / 0")) is None
        assert eval_const(expr("1 % 0")) is None

    def test_short_circuit_decides_without_right_operand(self):
        assert eval_const(expr("0 && unknown")) == 0
        assert eval_const(expr("3 || unknown")) == 1
        assert eval_const(expr("1 && unknown")) is None

    def test_idents_fold_through_the_environment(self):
        assert eval_const(expr("x + 1"), {"x": 4}) == 5
        assert eval_const(expr("x + 1"), {}) is None

    def test_ternary_with_agreeing_arms(self):
        assert eval_const(expr("unknown ? 3 : 3")) == 3
        assert eval_const(expr("unknown ? 3 : 4")) is None

    def test_casts_are_value_transparent(self):
        assert eval_const(expr("(int)12")) == 12

    def test_calls_never_fold(self):
        assert eval_const(expr("f() + 1")) is None


# ---------------------------------------------------------------------------
# Trackable names and the transfer
# ---------------------------------------------------------------------------

TRANSFER_SRC = r"""
int global_mode;
void helper(int *p);
void f(int a, int b) {
    int x;
    int escaped;
    int arr[4];
    x = 1;
    escaped = 2;
    helper(&escaped);
    arr[0] = 3;
}
"""


def walk_consts(env, expression, safe):
    """``env`` after ``expression``: the product walk over constants alone."""
    (after,) = ProductWalk((ConstDomain(None, None, safe),), safe).expr(expression, (env,))
    return after


class TestTrackableNames:
    def test_safe_names(self):
        program = parse(TRANSFER_SRC)
        safe = trackable_names(program.functions["f"])
        assert {"a", "b", "x"} <= safe
        assert "escaped" not in safe      # address taken
        assert "arr" not in safe          # arrays decay to pointers
        assert "global_mode" not in safe  # globals are never tracked

    def test_transfer_binds_and_kills(self):
        safe = frozenset({"x", "y"})
        env = walk_consts({}, expr("x = 3"), safe)
        assert env == {"x": 3}
        env = walk_consts(env, expr("y = x + 1"), safe)
        assert env == {"x": 3, "y": 4}
        env = walk_consts(env, expr("x = f()"), safe)
        assert env == {"y": 4}            # unknown value kills the binding
        env = walk_consts(env, expr("y += 2"), safe)
        assert env == {"y": 6}
        env = walk_consts(env, expr("y++"), safe)
        assert env == {"y": 7}

    def test_assignment_under_short_circuit_joins_not_binds(self):
        """An assignment that only *may* execute must not bind its value."""
        safe = frozenset({"k"})
        assert walk_consts({"k": 0}, expr("flag && (k = 1)"), safe) == {}
        assert walk_consts({"k": 0}, expr("flag || (k = 1)"), safe) == {}
        # A decided left operand settles whether the right side runs.
        assert walk_consts({"k": 0}, expr("0 && (k = 1)"), safe) == {"k": 0}
        assert walk_consts({"k": 0}, expr("1 && (k = 1)"), safe) == {"k": 1}
        assert walk_consts({"k": 0}, expr("1 || (k = 1)"), safe) == {"k": 0}

    def test_assignment_in_ternary_arms_joins(self):
        safe = frozenset({"k"})
        assert walk_consts({}, expr("flag ? (k = 1) : (k = 2)"), safe) == {}
        assert walk_consts({}, expr("flag ? (k = 1) : (k = 1)"), safe) == {"k": 1}
        assert walk_consts({}, expr("1 ? (k = 1) : (k = 2)"), safe) == {"k": 1}

    def test_shadowed_names_are_not_trackable(self):
        program = parse(
            "void f(int p) { int k; k = 9; { int k; k = 1; } if (p) { int p; } }"
        )
        safe = trackable_names(program.functions["f"])
        assert "k" not in safe            # inner declaration shadows the outer
        assert "p" not in safe            # local shadows the parameter


# ---------------------------------------------------------------------------
# Branch-edge refinement and infeasibility
# ---------------------------------------------------------------------------

class TestEdgeRefinement:
    def prune(self, body: str, params: str = "int n"):
        program = parse("void f(%s) { %s }" % (params, body))
        func = program.functions["f"]
        cfg = build_cfg(func)
        return cfg, solve_function_facts(func, cfg, domains=("consts",))

    def test_if_zero_arm_is_unreachable(self):
        cfg, fc = self.prune("if (0) { n = 1; } n = 2;")
        assert fc.prunes
        # The true edge is pruned and the then-block never becomes reachable.
        dead = [b.index for b in cfg.blocks
                if b.index not in fc.reachable and b.elements]
        assert dead, "the if (0) arm should be unreachable"

    def test_if_one_keeps_the_arm_and_prunes_the_false_edge(self):
        cfg, fc = self.prune("if (1) { n = 1; } else { n = 2; } n = 3;")
        labels = {cfg.blocks[b].succs[pos].label for b, pos in fc.infeasible}
        assert labels == {"false"}

    def test_env_dependent_pruning(self):
        cfg, fc = self.prune("int x; x = 0; if (x) { n = 1; }")
        assert fc.prunes
        cfg2, fc2 = self.prune("int x; x = n; if (x) { n = 1; }")
        assert not fc2.prunes             # x unknown: nothing to prune

    def test_equality_edge_facts(self):
        cfg, fc = self.prune("if (n == 5) { n = n + 1; }")
        facts = set()
        for binding in fc.edge_facts.values():
            facts.update(binding)
        assert ("n", 5) in facts

    def test_condition_with_side_effects_contributes_nothing(self):
        cfg, fc = self.prune("int x; x = 0; if (x++) { n = 1; }")
        assert not fc.prunes
        assert not fc.edge_facts

    def test_switch_constant_scrutinee_keeps_one_live_case_edge(self):
        cfg, fc = self.prune(
            "switch (3) { case 1: n = 1; break; case 3: n = 3; break; "
            "default: n = 9; break; }")
        dispatch = [b for b in cfg.blocks
                    if b.elements and b.elements[-1].kind == COND]
        block = dispatch[0]
        live = [edge for pos, edge in enumerate(block.succs)
                if (block.index, pos) not in fc.infeasible]
        assert len(live) == 1
        assert live[0].label == "case"

    def test_switch_unmatched_constant_takes_default(self):
        cfg, fc = self.prune(
            "switch (7) { case 1: n = 1; break; default: n = 9; break; }")
        dispatch = [b for b in cfg.blocks
                    if b.elements and b.elements[-1].kind == COND][0]
        live = [edge.label for pos, edge in enumerate(dispatch.succs)
                if (dispatch.index, pos) not in fc.infeasible]
        assert live == ["default"]

    def test_switch_case_edges_bind_the_scrutinee(self):
        cfg, fc = self.prune(
            "switch (n) { case 2: n = n + 1; break; default: break; }")
        facts = set()
        for binding in fc.edge_facts.values():
            facts.update(binding)
        assert ("n", 2) in facts

    def test_do_while_zero_body_runs_once(self):
        cfg, fc = self.prune("do { n = n + 1; } while (0); n = n + 2;")
        # Only the back edge (the cond's true edge) is pruned: the body is
        # still reachable (it runs exactly once), the loop never repeats.
        assert len(fc.infeasible) == 1
        ((block_index, pos),) = fc.infeasible
        assert cfg.blocks[block_index].succs[pos].label == "true"
        body_blocks = [b.index for b in cfg.blocks
                       if any(e.kind == "expr" for e in b.elements)]
        assert all(b in fc.reachable for b in body_blocks)

    def test_while_zero_body_is_unreachable(self):
        cfg, fc = self.prune("while (0) { n = 1; } n = 2;")
        dead = [b.index for b in cfg.blocks
                if b.index not in fc.reachable and b.elements]
        assert dead, "the while (0) body should be unreachable"

    def test_maybe_assignment_never_prunes_a_live_edge(self):
        """`flag && (k = 1)` may leave k = 0: `if (k == 0)` stays feasible,
        so a lock acquired in that arm is still seen (no false negative)."""
        program = parse(
            "struct spinlock g;\n"
            "int f(int flag) {\n"
            "    int k;\n"
            "    k = 0;\n"
            "    flag && (k = 1);\n"
            "    if (k == 0) { spin_lock(&g); return 1; }\n"
            "    return 0;\n"
            "}\n"
        )
        func = program.functions["f"]
        assert not solve_function_facts(func, domains=("consts",)).prunes
        facts = check_locks(build_shared_artifacts(program))
        assert [a for a in facts.acquisitions if a.function == "f"]

    def test_shadowed_binding_never_prunes_a_live_edge(self):
        program = parse(
            "struct spinlock g;\n"
            "int f(int flag) {\n"
            "    int k;\n"
            "    k = 9;\n"
            "    if (flag) { int k; k = 1; }\n"
            "    if (k == 9) { spin_lock(&g); return 1; }\n"
            "    return 0;\n"
            "}\n"
        )
        assert not solve_function_facts(program.functions["f"],
                                        domains=("consts",)).prunes
        facts = check_locks(build_shared_artifacts(program))
        assert [a for a in facts.acquisitions if a.function == "f"]

    def test_goto_into_a_dead_arm_revives_it(self):
        cfg, fc = self.prune(
            "if (n > 0) { goto out; } "
            "if (0) { out: n = 5; } "
            "n = 6;")
        # The if (0) edge is pruned, but the labelled block is still entered
        # through the goto, so it stays reachable.
        assert fc.prunes
        label_blocks = [b.index for b in cfg.blocks
                        if any("5" in str(getattr(e.expr, "value", ""))
                               for e in b.elements)]
        assert all(b in fc.reachable for b in label_blocks)


# ---------------------------------------------------------------------------
# Client pruning: lockcheck, blockstop, errcheck
# ---------------------------------------------------------------------------

GATED_LOCK_SRC = r"""
#define DEBUG 0
#define TRACE 1
struct spinlock lk;
int gated(int n) {
    if (DEBUG) {
        spin_lock(&lk);
        if (n > 4) { return -1; }
        spin_unlock(&lk);
    }
    return 0;
}
int live(int n) {
    if (TRACE) {
        spin_lock(&lk);
        if (n > 4) { return -1; }
        spin_unlock(&lk);
    }
    return 0;
}
int call_gated(int n) { return gated(n); }
int call_live(int n) { return live(n); }
"""


class TestLockcheckPruning:
    @pytest.fixture(scope="class")
    def program(self):
        return parse(GATED_LOCK_SRC)

    def test_dead_acquire_never_recorded_or_leaked(self, program):
        facts = check_locks(build_shared_artifacts(program))
        assert not [a for a in facts.acquisitions if a.function == "gated"]
        assert not [leak for leak in facts.leaks
                    if leak.function in ("gated", "call_gated")]

    def test_live_twin_still_reports(self, program):
        facts = check_locks(build_shared_artifacts(program))
        assert [a for a in facts.acquisitions if a.function == "live"]
        leakers = {leak.function for leak in facts.leaks}
        assert "live" in leakers

    def test_caller_summaries_stay_clean(self, program):
        report = analyse_locks(build_shared_artifacts(program))
        leakers = {leak.function for leak in report.leaked_returns}
        assert "call_gated" not in leakers
        assert "call_live" in leakers


BLOCK_SRC = r"""
#define DEBUG 0
void might_sleep(void) blocking;
void fast_path(void) {
    local_irq_disable();
    if (DEBUG) {
        might_sleep();
    }
    local_irq_enable();
}
void slow_path(void) {
    local_irq_disable();
    if (1) {
        might_sleep();
    }
    local_irq_enable();
}
"""


class TestBlockstopPruning:
    def test_dead_blocking_call_not_reported(self):
        program = parse(BLOCK_SRC)
        result = check_blockstop(build_shared_artifacts(program))
        callers = {v.caller for v in result.reported}
        assert "fast_path" not in callers
        assert "slow_path" in callers
        atomic_callers = {s.caller for s in result.atomic_call_sites}
        assert "fast_path" not in atomic_callers


ERRCHECK_SRC = r"""
#define EINVAL 22
#define ERR_BASE 20
int helper(void) { return -EINVAL; }
int folded_helper(void) { return 0 - EINVAL; }
int folded_expr_helper(void) { return -(ERR_BASE + 2); }
int dead_call(void) {
    if (0) {
        helper();
    }
    return 0;
}
int dead_store(void) {
    int rc;
    if (0) {
        rc = helper();
    }
    return 0;
}
int switch_checked(void) {
    int rc;
    rc = helper();
    switch (rc) {
    case -EINVAL:
        return 1;
    case 0:
        return 0;
    default:
        return 2;
    }
}
int folded_compare_checked(void) {
    int rc;
    rc = helper();
    if (rc == 0 - EINVAL) {
        return 1;
    }
    return 0;
}
int genuinely_unchecked(void) {
    int rc;
    rc = helper();
    return 0;
}
"""


class TestErrcheckConsts:
    @pytest.fixture(scope="class")
    def report(self):
        program = parse(ERRCHECK_SRC)
        return check_error_returns(build_shared_artifacts(program))

    def test_folded_returns_detected_as_error_returning(self):
        program = parse(ERRCHECK_SRC)
        error_returning = build_shared_artifacts(program).error_returning
        assert {"helper", "folded_helper", "folded_expr_helper"} <= error_returning

    def test_dead_calls_create_no_obligation(self, report):
        callers = {u.caller for u in report.unchecked}
        assert "dead_call" not in callers
        assert "dead_store" not in callers

    def test_switch_on_result_credits_the_obligation(self, report):
        assert "switch_checked" not in {u.caller for u in report.unchecked}

    def test_folded_constant_compare_credits_the_obligation(self, report):
        assert "folded_compare_checked" not in {u.caller for u in report.unchecked}

    def test_live_unchecked_still_reports(self, report):
        assert "genuinely_unchecked" in {u.caller for u in report.unchecked}


# ---------------------------------------------------------------------------
# Summaries over the pruned CFG (incl. recursion)
# ---------------------------------------------------------------------------

RECURSIVE_SRC = r"""
struct spinlock g;
void might_sleep(void) blocking;
int even(int n);
int odd(int n) {
    if (0) {
        spin_lock(&g);
        might_sleep();
    }
    if (n == 0) { return 0; }
    return even(n - 1);
}
int even(int n) {
    while (0) { might_sleep(); }
    if (n == 0) { return 1; }
    return odd(n - 1);
}
"""


class TestSummariesPruned:
    def test_constant_false_guard_in_recursive_scc_converges_clean(self):
        program = parse(RECURSIVE_SRC)
        graph, _ = build_direct_callgraph(program)
        summaries = solve_summaries(program, graph)
        for name in ("odd", "even"):
            summary = summaries[name]
            assert summary.may_block is False
            assert summary.acquires == ()
            assert summary.may_return_held == ()

    def test_dead_effects_never_reach_callers(self):
        program = parse(GATED_LOCK_SRC)
        graph, _ = build_direct_callgraph(program)
        summaries = solve_summaries(program, graph)
        assert summaries["gated"].trivial_lock_effect
        assert summaries["call_gated"].trivial_lock_effect
        assert summaries["gated"].error_returns == ()
        # The live twin's effects do propagate.
        assert summaries["live"].may_return_held == ("&(lk)",)
        assert summaries["call_live"].may_return_held == ("&(lk)",)
        assert summaries["live"].error_returns == (-1,)


# ---------------------------------------------------------------------------
# Deputy: constant facts in the region cache
# ---------------------------------------------------------------------------

DEPUTY_SRC = r"""
int unknown(void);
void f(void) {
    int a[8];
    int k;
    k = 2;
    a[k] = 1;
    k = unknown();
    a[k] = 2;
}
void g(int k) {
    int a[8];
    if (k == 5) {
        a[k] = 1;
    }
    a[k] = 2;
}
void h(int k) {
    int a[8];
    switch (k) {
    case 3:
        a[k] = 1;
        break;
    case 100:
        break;
    default:
        a[k] = 2;
        break;
    }
}
void immune(void) {
    int a[8];
    int k;
    k = 4;
    unknown();
    a[k] = 1;
}
void maybe_assigned(int flag) {
    int a[8];
    int k;
    k = 20;
    flag && (k = 0);
    a[k] = 1;
}
void shadowed(int flag) {
    int a[8];
    int k;
    k = 20;
    if (flag) {
        int k;
        k = 0;
    }
    a[k] = 1;
}
"""


class TestDeputyConstFacts:
    @pytest.fixture(scope="class")
    def results(self):
        return check_program(parse(DEPUTY_SRC))

    @staticmethod
    def index_statuses(result):
        return [ob.status for ob in result.obligations
                if ob.kind is ObligationKind.INDEX]

    def test_constant_propagated_index_discharged_statically(self, results):
        statuses = self.index_statuses(results["f"])
        assert statuses == [ObligationStatus.STATIC, ObligationStatus.RUNTIME]

    def test_branch_refinement_discharges_inside_the_arm(self, results):
        statuses = self.index_statuses(results["g"])
        assert statuses == [ObligationStatus.STATIC, ObligationStatus.RUNTIME]

    def test_switch_dispatch_fact_discharges_the_case_arm(self, results):
        statuses = self.index_statuses(results["h"])
        # case 3 arm: k = 3 < 8 static; default arm: unknown, runtime.
        assert statuses == [ObligationStatus.STATIC, ObligationStatus.RUNTIME]

    def test_callee_immune_binding_survives_calls(self, results):
        statuses = self.index_statuses(results["immune"])
        assert statuses == [ObligationStatus.STATIC]

    def test_maybe_executed_assignment_keeps_the_check(self, results):
        # `flag && (k = 0)` may leave k = 20: discharging a[k] statically
        # would drop a bounds check the execution actually needs.
        statuses = self.index_statuses(results["maybe_assigned"])
        assert statuses == [ObligationStatus.RUNTIME]

    def test_shadowed_local_keeps_the_check(self, results):
        # The inner `k = 0` names different storage than the indexed k.
        statuses = self.index_statuses(results["shadowed"])
        assert statuses == [ObligationStatus.RUNTIME]


# ---------------------------------------------------------------------------
# The engine artifact: caching, determinism, CLI
# ---------------------------------------------------------------------------

class TestEngineConstsArtifact:
    def test_artifact_present_and_typed(self):
        artifacts = AnalysisEngine().artifacts()
        assert artifacts.consts
        solved = [fc for fc in artifacts.consts.values() if fc is not None]
        assert solved and all(isinstance(fc, FunctionConsts) for fc in solved)
        # The seeded condition-gated shapes prune edges.
        assert artifacts.consts["stats_sample_fast"].prunes
        assert artifacts.consts["audit_try_slot_debug"].prunes

    def test_disk_cache_round_trip(self, tmp_path):
        first = AnalysisEngine(cache_dir=tmp_path)
        report_one = first.run(analyses="lockcheck")
        assert report_one.summary_stats["consts_cache_hit"] is False
        second = AnalysisEngine(cache_dir=tmp_path)
        report_two = second.run(analyses="lockcheck")
        assert report_two.summary_stats["consts_cache_hit"] is True
        assert (second.artifacts().consts == first.artifacts().consts)
        assert (report_one.analyses["lockcheck"].metrics
                == report_two.analyses["lockcheck"].metrics)

    def test_parallel_solve_matches_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        engine = AnalysisEngine()
        engine.run(analyses="stackcheck", jobs=2)
        parallel = engine.artifacts().consts
        serial = solve_program_facts(engine.program())
        assert parallel == serial
        assert list(parallel) == list(serial)   # merge order identical too

    def test_consts_stats_rendered(self):
        report = AnalysisEngine().run(analyses="lockcheck")
        stats = report.summary_stats
        assert stats["consts_functions"] > 50
        assert stats["consts_pruned_functions"] >= 2
        assert stats["consts_infeasible_edges"] >= 2
        assert "consts:" in report.render_text()
        assert "const_solve_ms" in report.cache_stats


class TestCfgCli:
    def test_text_dump_marks_infeasible_edges(self, capsys):
        assert cli_main(["cfg", "kernel/watchdog.c",
                         "--function", "stats_sample_fast"]) == 0
        out = capsys.readouterr().out
        assert "stats_sample_fast" in out
        assert "INFEASIBLE" in out
        assert "[true]" in out

    def test_json_dump_has_facts_and_marks(self, capsys):
        assert cli_main(["cfg", "kernel/watchdog.c", "--format", "json",
                         "--function", "audit_try_slot_debug"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-engine-cfg/2"
        (func,) = payload["functions"]
        assert func["function"] == "audit_try_slot_debug"
        edges = [edge for block in func["blocks"] for edge in block["edges"]]
        assert any(edge["infeasible"] for edge in edges)

    def test_on_disk_file(self, tmp_path, capsys):
        path = tmp_path / "small.c"
        path.write_text("void f(int n) { if (0) { n = 1; } }\n")
        assert cli_main(["cfg", str(path)]) == 0
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_unknown_file_rejected(self, capsys):
        assert cli_main(["cfg", "kernel/nope.c"]) == 2
        assert "neither a corpus translation unit" in capsys.readouterr().err

    def test_unknown_function_rejected(self, capsys):
        assert cli_main(["cfg", "kernel/watchdog.c",
                         "--function", "nonsense"]) == 2
        assert "unknown function" in capsys.readouterr().err
