"""Tests for the flow-sensitive dataflow core and the checkers ported onto it.

The differential corpora here are the issue's acceptance cases: branch-local
lock acquisitions and interrupt disables must not leak into sibling branches
or past the merge point, early returns must not hide the fall-through state,
and errcheck's assigned-then-compared tracking must be order-aware.
"""

import pytest

from repro.analyses import analyse_locks, check_error_returns
from repro.blockstop import check_blockstop
from repro.dataflow import (
    COND,
    FixpointDivergence,
    build_cfg,
    reachable_blocks,
    solve_forward,
)
from repro.engine import build_shared_artifacts
from repro.machine import link_units
from repro.minic import parse_source


def build(source):
    return link_units([parse_source(source)])


def bundle(source):
    return build_shared_artifacts(build(source))


def cfg_of(source, name):
    return build_cfg(build(source).functions[name])


LOCK_PROTOS = """
void spin_lock(int *lock);
void spin_unlock(int *lock);
unsigned long spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock, unsigned long flags);
void local_irq_save(void);
void local_irq_restore(void);
void schedule(void) blocking;
static int lock_a;
static int lock_b;
"""


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class TestCfgConstruction:
    def test_straight_line_single_block_chain(self):
        cfg = cfg_of("int f(int x) { x = x + 1; return x; }", "f")
        reachable = cfg.reachable()
        assert cfg.entry in reachable
        assert cfg.exit in reachable

    def test_if_else_is_a_diamond(self):
        cfg = cfg_of("int f(int x) { if (x) { x = 1; } else { x = 2; } return x; }",
                     "f")
        cond_blocks = [b for b in cfg.blocks
                       if any(e.kind == COND for e in b.elements)]
        assert len(cond_blocks) == 1
        labels = sorted(edge.label for edge in cond_blocks[0].succs)
        assert labels == ["false", "true"]

    def test_while_has_back_edge(self):
        cfg = cfg_of("int f(int x) { while (x) { x = x - 1; } return x; }", "f")
        header = next(b.index for b in cfg.blocks
                      if any(e.kind == COND for e in b.elements))
        back_edges = [b.index for b in cfg.blocks
                      if any(e.target == header for e in b.succs)]
        assert len(back_edges) == 2   # loop entry plus the body's back edge

    def test_early_return_code_after_is_reachable_via_other_path(self):
        cfg = cfg_of("""
        int f(int x) {
            if (x) { return 1; }
            x = 2;
            return x;
        }""", "f")
        assert cfg.exit in cfg.reachable()
        # Both returns edge into the dedicated exit block.
        assert len(cfg.blocks[cfg.exit].preds) == 2

    def test_dead_code_after_return_is_unreachable(self):
        cfg = cfg_of("int f(void) { return 1; int x; x = 2; return x; }", "f")
        reachable = cfg.reachable()
        dead = [b.index for b in cfg.blocks
                if b.elements and b.index not in reachable]
        assert dead, "statements after return should live in unreachable blocks"

    def test_for_loop_and_break_continue(self):
        cfg = cfg_of("""
        int f(int n) {
            int total;
            int i;
            total = 0;
            for (i = 0; i < n; i = i + 1) {
                if (i == 3) { continue; }
                if (i == 7) { break; }
                total = total + i;
            }
            return total;
        }""", "f")
        assert cfg.exit in cfg.reachable()

    def test_switch_dispatch_edges(self):
        cfg = cfg_of("""
        int f(int x) {
            switch (x) {
            case 1: return 10;
            case 2: break;
            default: return 30;
            }
            return 0;
        }""", "f")
        dispatch = next(b for b in cfg.blocks
                        if any(e.kind == COND for e in b.elements))
        labels = sorted(edge.label for edge in dispatch.succs)
        assert labels == ["case", "case", "default"]

    def test_goto_and_label_resolve(self):
        cfg = cfg_of("""
        int f(int x) {
            if (x) { goto out; }
            x = 2;
        out:
            return x;
        }""", "f")
        assert cfg.exit in cfg.reachable()


# ---------------------------------------------------------------------------
# Fixpoint solver
# ---------------------------------------------------------------------------

class TestSolver:
    def test_join_applied_at_merge(self):
        cfg = cfg_of("int f(int x) { if (x) { x = 1; } else { x = 2; } return x; }",
                     "f")

        def transfer(block, state):
            return state | {block.index}

        in_states = solve_forward(cfg, transfer, lambda a, b: a | b,
                                  entry_state=frozenset())
        # The exit sees blocks from both arms: paths merged, not overwritten.
        cond_block = next(b for b in cfg.blocks
                          if any(e.kind == COND for e in b.elements))
        arm_indices = {edge.target for edge in cond_block.succs}
        assert arm_indices <= in_states[cfg.exit]

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of("int f(int x) { while (x) { x = x - 1; } return x; }", "f")

        def transfer(block, state):
            return min(state + len(block.elements), 10)

        in_states = solve_forward(cfg, transfer, max, entry_state=0)
        assert in_states[cfg.exit] is not None

    def test_unreachable_blocks_have_no_state(self):
        cfg = cfg_of("int f(void) { return 1; int x; x = 2; return x; }", "f")
        in_states = solve_forward(cfg, lambda block, s: s, max, entry_state=0)
        reachable = cfg.reachable()
        for block in cfg.blocks:
            if block.index not in reachable:
                assert in_states[block.index] is None
        assert all(index in reachable
                   for block, _ in reachable_blocks(cfg, in_states)
                   for index in [block.index])

    def test_divergence_is_detected(self):
        cfg = cfg_of("int f(int x) { while (x) { x = x - 1; } return x; }", "f")
        with pytest.raises(FixpointDivergence):
            # A strictly increasing "lattice" never converges.
            solve_forward(cfg, lambda block, s: s + 1, max, entry_state=0)


# ---------------------------------------------------------------------------
# Lockcheck: flow-sensitive held-lock sets
# ---------------------------------------------------------------------------

class TestLockcheckFlow:
    def test_branch_local_lock_does_not_leak_to_sibling_or_merge(self):
        # The acceptance case: lock_a taken only in the then-branch.  The
        # acquisitions of lock_b in the else-branch and after the merge must
        # both report an empty held set — the old walk() scan fabricated a
        # lock_a -> lock_b ordering here.
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void branchy(int x) {
            if (x) {
                spin_lock(&lock_a);
                spin_unlock(&lock_a);
            } else {
                spin_lock(&lock_b);
                spin_unlock(&lock_b);
            }
            spin_lock(&lock_b);
            spin_unlock(&lock_b);
        }
        """))
        for acquisition in report.acquisitions:
            assert acquisition.held_before == ()
        assert report.order_pairs == set()
        assert report.deadlock_free

    def test_no_false_deadlock_pair_from_exclusive_branches(self):
        # a->b in one branch, b->a in the other -- but each branch releases
        # before the other acquires; only a truly nested pair may count.
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void one_way(int x) {
            if (x) {
                spin_lock(&lock_a);
                spin_unlock(&lock_a);
            }
            spin_lock(&lock_b);
            spin_unlock(&lock_b);
        }
        void other_way(int x) {
            if (x) {
                spin_lock(&lock_b);
                spin_unlock(&lock_b);
            }
            spin_lock(&lock_a);
            spin_unlock(&lock_a);
        }
        """))
        assert report.order_violations == []

    def test_real_nested_ordering_still_detected(self):
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void ab(void) {
            spin_lock(&lock_a);
            spin_lock(&lock_b);
            spin_unlock(&lock_b);
            spin_unlock(&lock_a);
        }
        void ba(void) {
            spin_lock(&lock_b);
            spin_lock(&lock_a);
            spin_unlock(&lock_a);
            spin_unlock(&lock_b);
        }
        """))
        assert len(report.order_violations) == 1

    def test_early_return_keeps_lock_held_on_fallthrough(self):
        # The release happens only on the early-return path; the fall-through
        # acquisition of lock_b happens with lock_a held.
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void holds_across(int x) {
            spin_lock(&lock_a);
            if (x) {
                spin_unlock(&lock_a);
                return;
            }
            spin_lock(&lock_b);
            spin_unlock(&lock_b);
            spin_unlock(&lock_a);
        }
        """))
        nested = [a for a in report.acquisitions if a.lock == "&(lock_b)"]
        assert len(nested) == 1
        assert nested[0].held_before == ("&(lock_a)",)

    def test_loop_join_is_must_hold(self):
        # lock_a is released inside the loop body, so at the header it is
        # not *definitely* held; the acquisition inside the body reports an
        # empty held set rather than inventing one.
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void loopy(int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                spin_lock(&lock_a);
                spin_unlock(&lock_a);
            }
        }
        """))
        assert all(a.held_before == () for a in report.acquisitions)

    def test_double_acquire_diagnostic(self):
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void self_deadlock(void) {
            spin_lock(&lock_a);
            spin_lock(&lock_a);
            spin_unlock(&lock_a);
            spin_unlock(&lock_a);
        }
        """))
        assert len(report.double_acquires) == 1
        assert report.double_acquires[0].lock == "&(lock_a)"
        assert not report.deadlock_free

    def test_reacquisition_counts_balance_releases(self):
        # After one release of the doubly-acquired lock_a, it is still held:
        # the lock_b acquisition must see it.  The old list bookkeeping
        # dropped the first occurrence and corrupted held_before.
        report = analyse_locks(bundle(LOCK_PROTOS + """
        void nested(void) {
            spin_lock(&lock_a);
            spin_lock(&lock_a);
            spin_unlock(&lock_a);
            spin_lock(&lock_b);
            spin_unlock(&lock_b);
            spin_unlock(&lock_a);
        }
        """))
        nested = [a for a in report.acquisitions if a.lock == "&(lock_b)"]
        assert nested[0].held_before == ("&(lock_a)",)


# ---------------------------------------------------------------------------
# BlockStop: flow-sensitive atomic regions
# ---------------------------------------------------------------------------

class TestBlockstopFlow:
    def test_branch_local_disable_does_not_leak(self):
        # The acceptance case: local_irq_save in the then-branch only.  The
        # sibling branch and the code after the merge re-enable path... no:
        # the then-branch restores before leaving, so *nothing* outside the
        # then-branch is atomic.  The old scan poisoned the else-branch and
        # everything after the if.
        result = check_blockstop(bundle(LOCK_PROTOS + """
        void helper(void) { schedule(); }
        void branchy(int x) {
            if (x) {
                local_irq_save();
                x = x + 1;
                local_irq_restore();
            } else {
                helper();
            }
            helper();
        }
        """))
        assert result.atomic_call_sites == []
        assert result.reported == []

    def test_any_path_atomic_is_still_conservative(self):
        # One arm disables without re-enabling: after the merge the join is
        # max(1, 0) = 1 -- the call may run atomically, so it is reported.
        result = check_blockstop(bundle(LOCK_PROTOS + """
        void maybe_atomic(int x) {
            if (x) {
                local_irq_save();
            }
            schedule();
            local_irq_restore();
        }
        """))
        callees = {s.callee for s in result.atomic_call_sites}
        assert "schedule" in callees
        assert {v.caller for v in result.reported} == {"maybe_atomic"}

    def test_early_reenable_does_not_hide_fallthrough_region(self):
        # The kernel-corpus schedule() shape: release on the early-return
        # path only.  The old scan treated the fall-through as non-atomic.
        result = check_blockstop(bundle(LOCK_PROTOS + """
        void early(int x) {
            unsigned long flags;
            flags = spin_lock_irqsave(&lock_a);
            if (x) {
                spin_unlock_irqrestore(&lock_a, flags);
                return;
            }
            schedule();
            spin_unlock_irqrestore(&lock_a, flags);
        }
        """))
        assert {v.caller for v in result.reported} == {"early"}

    def test_loop_body_disable_reaches_fixpoint_and_reports(self):
        result = check_blockstop(bundle(LOCK_PROTOS + """
        void loopy(int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                local_irq_save();
                schedule();
                local_irq_restore();
            }
        }
        """))
        assert {v.caller for v in result.reported} == {"loopy"}

    def test_unmatched_disable_in_loop_converges(self):
        # Pathological: a disable per iteration with no enable.  The depth
        # cap keeps the lattice finite; the call after the loop is atomic.
        result = check_blockstop(bundle(LOCK_PROTOS + """
        void runaway(int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                local_irq_save();
            }
            schedule();
        }
        """))
        callers = {v.caller for v in result.reported}
        assert "runaway" in callers


# ---------------------------------------------------------------------------
# Errcheck: order-aware assigned-then-compared
# ---------------------------------------------------------------------------

ERR_PROTOS = """
int risky(int x) { if (x < 0) { return -22; } return x; }
void consume(int value);
"""


class TestErrcheckFlow:
    def test_comparison_before_call_does_not_count(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int backwards(int x) {
            int rc;
            rc = 0;
            if (rc < 0) { return rc; }
            rc = risky(x);
            return 7;
        }
        """))
        assert [u.caller for u in report.unchecked] == ["backwards"]
        assert "never compared" in report.unchecked[0].reason

    def test_comparison_after_call_counts(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int forwards(int x) {
            int rc;
            rc = risky(x);
            if (rc < 0) { return rc; }
            return 7;
        }
        """))
        assert report.unchecked == []
        assert report.checked_calls == 1

    def test_check_on_one_branch_counts(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int branchy(int x) {
            int rc;
            rc = risky(x);
            if (x) {
                if (rc < 0) { return rc; }
            }
            return 7;
        }
        """))
        assert report.unchecked == []

    def test_reassignment_kills_pending_obligation(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int clobbered(int x) {
            int rc;
            rc = risky(x);
            rc = 0;
            if (rc < 0) { return rc; }
            return 7;
        }
        """))
        assert [u.caller for u in report.unchecked] == ["clobbered"]

    def test_unary_not_idiom_counts(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int negated(int x) {
            int rc;
            rc = risky(x);
            if (!rc) { return 0; }
            return rc;
        }
        """))
        assert report.unchecked == []

    def test_unary_minus_idiom_counts(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int minused(int x) {
            int rc;
            rc = risky(x);
            if (-rc) { return 1; }
            return 0;
        }
        """))
        assert report.unchecked == []

    def test_nested_call_argument_is_classified_not_silently_checked(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        void passes_on(int x) {
            consume(risky(x));
        }
        """))
        assert report.unchecked == []
        assert report.passed_to_callee == 1
        assert report.checked_calls == 1

    def test_unknown_usage_is_reported_unchecked(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int arithmetic(int x) {
            int total;
            total = 1 + risky(x);
            return 0;
        }
        """))
        assert len(report.unchecked) == 1
        assert "not a check" in report.unchecked[0].reason

    def test_direct_condition_still_checked(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int direct(int x) {
            if (risky(x) < 0) { return -1; }
            while (!risky(x)) { x = x + 1; }
            return 0;
        }
        """))
        assert report.unchecked == []
        assert report.checked_calls == 2

    def test_assignment_through_ternary_tracks_obligation(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int ternary(int x) {
            int rc;
            rc = x ? risky(x) : 0 - 1;
            if (rc < 0) { return rc; }
            return 0;
        }
        """))
        assert report.unchecked == []
        assert report.checked_calls == 1

    def test_assign_inside_comparison_idiom(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int inline_assign(int x) {
            int rc;
            if ((rc = risky(x)) < 0) { return rc; }
            return 0;
        }
        """))
        assert report.unchecked == []
        assert report.checked_calls == 1

    def test_unary_minus_on_direct_call_is_a_condition(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int direct_minus(int x) {
            if (-risky(x)) { return 1; }
            return 0;
        }
        """))
        assert report.unchecked == []
        assert report.checked_calls == 1

    def test_logical_op_condition_credits_stored_code(self):
        # The kernel idiom `if (ret && ret != -EAGAIN)`: truth-testing an
        # operand of && / || (or a ternary condition) is a check.
        report = check_error_returns(bundle(ERR_PROTOS + """
        int logical(int x) {
            int rc;
            int other;
            rc = risky(x);
            if (rc && x) { return rc; }
            other = risky(x);
            x = other ? 1 : 2;
            return x;
        }
        """))
        assert report.unchecked == []
        assert report.checked_calls == 2

    def test_loop_carried_obligation_checked_after_loop(self):
        report = check_error_returns(bundle(ERR_PROTOS + """
        int loop_carried(int n) {
            int rc;
            int i;
            rc = 0;
            for (i = 0; i < n; i = i + 1) {
                rc = risky(i);
            }
            if (rc < 0) { return rc; }
            return 0;
        }
        """))
        assert report.unchecked == []
