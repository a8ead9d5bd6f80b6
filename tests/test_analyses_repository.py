"""Tests for the future analyses (§3.1) and the annotation repository (§3.2)."""

from repro.analyses import (
    analyse_locks,
    analyse_stack,
    check_error_returns,
    frame_size,
)
from repro.blockstop import build_direct_callgraph
from repro.engine import build_shared_artifacts
from repro.machine import link_units
from repro.minic import parse_source
from repro.repository import AnnotationDatabase, Fact, export_blocking_facts


def build(source):
    return link_units([parse_source(source)])


def bundle(source):
    return build_shared_artifacts(build(source))


LOCK_SOURCE = """
void spin_lock(int *lock);
void spin_unlock(int *lock);
void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);

static int lock_a;
static int lock_b;

void path_one(void) {
    spin_lock(&lock_a);
    spin_lock(&lock_b);
    spin_unlock(&lock_b);
    spin_unlock(&lock_a);
}

void path_two(void) {
    spin_lock(&lock_b);
    spin_lock(&lock_a);
    spin_unlock(&lock_a);
    spin_unlock(&lock_b);
}

void irq_handler_path(void) {
    spin_lock_irqsave(&lock_a);
    spin_unlock_irqrestore(&lock_a);
}

void process_path_wrong(void) {
    spin_lock(&lock_a);
    spin_unlock(&lock_a);
}
"""

#: Registers ``irq_handler_path`` as an interrupt handler.
IRQ_REGISTRATION = """
int request_irq(int irq, void *handler, void *dev);
int setup_irq(void) { return request_irq(1, irq_handler_path, 0); }
"""


class TestLockCheck:
    def test_inconsistent_order_detected(self):
        report = analyse_locks(bundle(LOCK_SOURCE))
        assert len(report.order_violations) == 1

    def test_consistent_order_clean(self):
        source = LOCK_SOURCE.replace(
            "    spin_lock(&lock_b);\n    spin_lock(&lock_a);",
            "    spin_lock(&lock_a);\n    spin_lock(&lock_b);")
        report = analyse_locks(bundle(source))
        assert report.deadlock_free

    def test_irq_discipline_violation(self):
        report = analyse_locks(bundle(LOCK_SOURCE + IRQ_REGISTRATION))
        offenders = {v.function for v in report.irq_violations}
        assert "process_path_wrong" in offenders
        assert "irq_handler_path" not in offenders

    def test_kernel_corpus_has_consistent_lock_order(self, kernel_artifacts):
        report = analyse_locks(kernel_artifacts)
        assert report.deadlock_free


class TestStackCheck:
    def test_frame_size_counts_locals(self):
        program = build("int f(int a) { int buffer[64]; int x; return a + x; }")
        func = program.functions["f"]
        assert frame_size(program, func) >= 64 * 4

    def test_stacksize_annotation_overrides(self):
        program = build("int f(void) stacksize(512) { return 0; }")
        assert frame_size(program, program.functions["f"]) == 512

    def test_call_chain_depth_accumulates(self):
        source = """
        int leaf(void) { int pad[8]; return pad[0]; }
        int mid(void) { int pad[8]; return leaf(); }
        int root(void) { int pad[8]; return mid(); }
        """
        report = analyse_stack(bundle(source))
        assert report.max_depth["root"] > report.max_depth["mid"] > report.max_depth["leaf"]

    def test_recursion_needs_runtime_check(self):
        source = "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }"
        report = analyse_stack(bundle(source))
        assert "fact" in report.runtime_checks_needed

    def test_kernel_corpus_fits_in_stack(self, kernel_artifacts):
        report = analyse_stack(kernel_artifacts)
        assert report.worst_case > 0
        assert report.fits


class TestErrCheck:
    ERR_SOURCE = """
    int risky(int x) { if (x < 0) { return -22; } return x; }

    int careful(int x) {
        int rc = risky(x);
        if (rc < 0) { return rc; }
        return rc + 1;
    }

    int careless(int x) {
        risky(x);
        return 0;
    }

    int stores_but_never_checks(int x) {
        int rc = risky(x);
        return 7;
    }
    """

    def test_error_returning_functions_found(self):
        report = check_error_returns(bundle(self.ERR_SOURCE))
        assert "risky" in report.error_returning

    def test_checked_call_accepted(self):
        report = check_error_returns(bundle(self.ERR_SOURCE))
        unchecked_callers = {u.caller for u in report.unchecked}
        assert "careful" not in unchecked_callers

    def test_discarded_result_reported(self):
        report = check_error_returns(bundle(self.ERR_SOURCE))
        reasons = {u.caller: u.reason for u in report.unchecked}
        assert "careless" in reasons
        assert "discarded" in reasons["careless"]

    def test_stored_but_unchecked_reported(self):
        report = check_error_returns(bundle(self.ERR_SOURCE))
        assert any(u.caller == "stores_but_never_checks" for u in report.unchecked)


class TestRepository:
    def test_add_and_query(self):
        db = AnnotationDatabase()
        db.add(Fact("function", "kmalloc", "blocking", "blocking_if_wait", tool="manual"))
        db.add(Fact("function", "sum(buf)", "annotation", "count(n)", tool="deputy"))
        assert db.blocking_functions() == {"kmalloc"}
        assert db.annotations_for("sum(buf)") == ["count(n)"]

    def test_merge_prefers_higher_confidence(self):
        db_a = AnnotationDatabase()
        db_a.add(Fact("function", "f", "blocking", "noblock", confidence=0.5))
        db_b = AnnotationDatabase()
        db_b.add(Fact("function", "f", "blocking", "blocking", confidence=0.9))
        imported = db_a.merge(db_b)
        assert imported == 1
        assert db_a.blocking_functions() == {"f"}

    def test_merge_is_idempotent(self):
        db_a = AnnotationDatabase()
        db_a.add(Fact("function", "f", "blocking", "blocking"))
        db_b = AnnotationDatabase()
        db_b.add(Fact("function", "f", "blocking", "blocking"))
        db_a.merge(db_b)
        assert len(db_a) == 1

    def test_save_and_load_round_trip(self, tmp_path):
        db = AnnotationDatabase()
        db.add(Fact("function", "schedule", "blocking", "blocking", tool="blockstop"))
        db.add(Fact("type", "struct sk_buff", "bounds", "data: count(len)"))
        path = tmp_path / "facts.json"
        db.save(path)
        loaded = AnnotationDatabase.load(path)
        assert len(loaded) == 2
        assert loaded.blocking_functions() == {"schedule"}

    def test_export_blocking_facts_from_kernel(self, kernel_program):
        from repro.blockstop import derive_blocking
        graph, _ = build_direct_callgraph(kernel_program)
        info = derive_blocking(kernel_program, graph)
        facts = export_blocking_facts(info, graph)
        db = AnnotationDatabase()
        db.add_all(facts)
        assert "schedule" in db.blocking_functions()
        assert len(db) > 10
