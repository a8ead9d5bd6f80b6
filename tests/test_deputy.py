"""Tests for Deputy: type system, instrumenter, optimizer, runtime."""

from collections import Counter

import pytest

from repro.dataflow import cfg as cfg_module
from repro.dataflow import consts as consts_module
from repro.dataflow import intervals as intervals_module
from repro.deputy import (
    DeputyOptions,
    ObligationStatus,
    PointerKind,
    build_report,
    check_program,
    instrument_program,
    pointer_facts,
)
from repro.deputy import optimizer as optimizer_module
from repro.deputy import runtime as deputy_runtime
from repro.deputy.optimizer import CheckCache
from repro.deputy.typesystem import TypeEnv
from repro.engine import AnalysisEngine
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.machine import CheckFailure, Interpreter, link_units
from repro.minic import parse_source, render_unit
from repro.service.incremental import IncrementalAnalyzer


def build(source):
    return link_units([parse_source(source)])


def deputize(source, **options):
    program = build(source)
    result = instrument_program(program, DeputyOptions(**options))
    interp = Interpreter(program)
    stats = deputy_runtime.install(interp)
    return program, result, interp, stats


SUM_SOURCE = """
int sum(int * count(n) arr, int n) {
    int i;
    int total = 0;
    for (i = 0; i < n; i++) { total += arr[i]; }
    return total;
}
int main(int bound) {
    int values[8];
    int i;
    for (i = 0; i < 8; i++) { values[i] = i; }
    return sum(values, bound);
}
"""


class TestPointerFacts:
    def test_unannotated_pointer_is_safe(self):
        program = build("char *p;")
        facts = pointer_facts(program.globals["p"].type)
        assert facts.kind is PointerKind.SAFE

    def test_count_annotation(self):
        program = build("int f(int * count(n) buf, int n) { return 0; }")
        param = program.function_type("f").params[0]
        facts = pointer_facts(param.type)
        assert facts.kind is PointerKind.COUNT

    def test_nullterm_annotation(self):
        program = build("int f(char * nullterm s) { return 0; }")
        facts = pointer_facts(program.function_type("f").params[0].type)
        assert facts.kind is PointerKind.NULLTERM

    def test_array_behaves_like_counted_pointer(self):
        program = build("int table[16];")
        facts = pointer_facts(program.globals["table"].type)
        assert facts.kind is PointerKind.COUNT
        assert facts.nonnull

    def test_trailing_annotation_is_folded_at_parse(self):
        program = build("int f(char *buf count(n), unsigned int n);\n"
                        "int g(void) { char *p nonnull = 0; return 0; }")
        assert pointer_facts(
            program.function_type("f").params[0].type).kind is PointerKind.COUNT
        local = program.syntax("g").declarations[0]
        assert pointer_facts(local.type).nonnull

    def test_fold_never_writes_through_a_typedef(self):
        program = build("typedef char *str_t;\n"
                        "int f(str_t s count(4)) { return s[0]; }\n"
                        "int g(str_t t) { return t[0]; }")
        for name in ("f", "g"):
            TypeEnv(program, program.functions[name])
        kinds = [pointer_facts(program.function_type(name).params[0].type).kind
                 for name in ("f", "g")]
        assert kinds == [PointerKind.COUNT, PointerKind.SAFE]

    @pytest.mark.parametrize("trailing, prefix", [
        ("char *gbuf count(4);\nint f(void) { return gbuf[1]; }",
         "char * count(4) gbuf;\nint f(void) { return gbuf[1]; }"),
        ("struct s { char *buf count(4); };\n"
         "int f(struct s *p) { return p->buf[1]; }",
         "struct s { char * count(4) buf; };\n"
         "int f(struct s *p) { return p->buf[1]; }"),
    ], ids=["global", "field"])
    def test_trailing_and_prefix_spellings_check_alike(self, trailing, prefix):
        def obligations(source):
            report = AnalysisEngine(files=(CorpusFile("a.c", source),)).run(
                analyses="deputy")
            metrics = report.analyses["deputy"].metrics
            return (metrics["obligations_total"],
                    metrics["obligations_static"],
                    metrics["obligations_runtime"])

        counts = obligations(trailing)
        assert counts == obligations(prefix)
        # The bound is known, so the index is discharged statically.
        assert counts[1] >= 1

    def test_field_fold_never_writes_through_a_typedef(self):
        program = build("typedef char *str_t;\n"
                        "struct s { str_t bounded count(4); str_t plain; };\n"
                        "struct s gs;\n"
                        "str_t gbounded count(2);\n"
                        "str_t gplain;")
        struct = program.globals["gs"].type.strip()
        kinds = {f.name: pointer_facts(f.type).kind for f in struct.fields}
        assert kinds == {"bounded": PointerKind.COUNT,
                         "plain": PointerKind.SAFE}
        assert pointer_facts(program.globals["gbounded"].type).kind is (
            PointerKind.COUNT)
        assert pointer_facts(program.globals["gplain"].type).kind is (
            PointerKind.SAFE)


#: A callee whose buffer bound trails the declarator, and a caller in
#: another unit that passes a shorter buffer.
FILL_LIB = CorpusFile("lib.c", """
int fill(char *buf count(n), unsigned int n) {
    unsigned int i;
    for (i = 0; i < n; i++) buf[i] = 0;
    return 0;
}
""")
FILL_USER = CorpusFile("user.c", """
int fill(char *buf count(n), unsigned int n);
int caller(char *p count(8)) { return fill(p, 16); }
""")


class TestCallContractAcrossUnits:
    """A caller's call-contract check reads the callee's parameter types,
    which are the same whatever order the units, or the checks, run in."""

    @pytest.mark.parametrize("files", [(FILL_LIB, FILL_USER), (FILL_USER, FILL_LIB)],
                             ids=["lib-first", "user-first"])
    @pytest.mark.parametrize("path", ["serial", "jobs2", "incremental"])
    def test_obligations_do_not_depend_on_unit_order(self, files, path):
        if path == "incremental":
            report = IncrementalAnalyzer(files=files).analyze()
        else:
            report = AnalysisEngine(files=files).run(
                analyses="deputy", jobs=2 if path == "jobs2" else 1)
        metrics = report.analyses["deputy"].metrics
        assert (metrics["obligations_total"], metrics["obligations_runtime"]) == (2, 1)


class TestStaticChecking:
    def test_constant_index_into_array_is_static(self):
        source = "int t[4]; int f(void) { return t[2]; }"
        program = build(source)
        results = check_program(program)
        assert results["f"].count(ObligationStatus.STATIC) >= 1
        assert results["f"].count(ObligationStatus.RUNTIME) == 0

    def test_variable_index_needs_runtime_check(self):
        source = "int t[4]; int f(int i) { return t[i]; }"
        results = check_program(build(source))
        assert results["f"].count(ObligationStatus.RUNTIME) == 1

    def test_a_declaration_binds_what_its_assignment_binds(self):
        # `k`'s range [1, 2] discharges both indices whether a declaration
        # or a statement assigns it.
        source = """
        int pick_decl(int n) { int a[4]; int k = n > 0 ? 1 : 2; a[k] = 0; return a[k]; }
        int pick_assign(int n) { int a[4]; int k; k = n > 0 ? 1 : 2; a[k] = 0; return a[k]; }
        """
        results = check_program(build(source))
        for name in ("pick_decl", "pick_assign"):
            assert [(o.status, o.detail) for o in results[name].obligations] == [
                (ObligationStatus.STATIC, "interval-bounded index")] * 2, name

    def test_an_initializer_effect_moves_the_index(self):
        # `i` is 3 after `int k = i++;`, so `a[i]` must keep its check.
        source = "int f(void) { int a[3]; int i = 2; int k = i++; return a[i]; }"
        results = check_program(build(source))
        assert results["f"].count(ObligationStatus.STATIC) == 0

    def test_nonnull_pointer_deref_is_static(self):
        source = "struct s { int x; }; int f(struct s *p nonnull) { return p->x; }"
        results = check_program(build(source))
        assert results["f"].count(ObligationStatus.RUNTIME) == 0

    def test_plain_pointer_deref_needs_check(self):
        source = "struct s { int x; }; int f(struct s *p) { return p->x; }"
        results = check_program(build(source))
        assert results["f"].count(ObligationStatus.RUNTIME) == 1

    def test_trusted_function_is_skipped(self):
        source = "int f(int *p) trusted { return p[9]; }"
        results = check_program(build(source))
        assert results["f"].trusted

    def test_trusted_block_obligations_are_trusted(self):
        source = "int f(int *p) { trusted { return p[3]; } }"
        results = check_program(build(source))
        assert results["f"].count(ObligationStatus.RUNTIME) == 0
        assert results["f"].count(ObligationStatus.TRUSTED) >= 1

    def test_incompatible_pointer_cast_is_error(self):
        source = ("struct a { int x; }; struct b { int y; };"
                  "struct b *f(struct a *p) { return (struct b *)p; }")
        results = check_program(build(source))
        assert len(results["f"].errors) == 1

    def test_trusted_cast_suppresses_error(self):
        source = ("struct a { int x; }; struct b { int y; };"
                  "struct b *f(struct a *p) { return (struct b * trusted)p; }")
        results = check_program(build(source))
        assert not results["f"].errors

    def test_void_pointer_cast_allowed(self):
        source = "struct s { int x; }; struct s *f(void *p) { return (struct s *)p; }"
        results = check_program(build(source))
        assert not results["f"].errors

    def test_optimizer_elides_repeated_checks(self):
        source = """
        struct node { int a; int b; struct node *next; };
        int f(struct node *n) { return n->a + n->b + (n->next == 0); }
        """
        with_opt = check_program(build(source), DeputyOptions(optimize=True))
        without = check_program(build(source), DeputyOptions(optimize=False))
        assert with_opt["f"].count(ObligationStatus.ELIDED) >= 1
        assert (without["f"].count(ObligationStatus.RUNTIME)
                > with_opt["f"].count(ObligationStatus.RUNTIME))

    OPTIMIZER_INDEX_SOURCE = """
    int table[16];
    int shared_index;
    void touch(void);
    int with_global_index(void) {
        int a;
        int b;
        a = table[shared_index];
        touch();
        b = table[shared_index];
        return a + b;
    }
    int with_local_index(int i) {
        int a;
        int b;
        a = table[i];
        touch();
        b = table[i];
        return a + b;
    }
    """

    def test_optimizer_drops_global_index_check_across_call(self):
        """A callee can write a global (or address-taken) index variable, so
        the second check of a global-bound index after a call must be
        re-emitted, not treated as redundant."""
        results = check_program(build(self.OPTIMIZER_INDEX_SOURCE),
                                DeputyOptions(optimize=True))
        globals_result = results["with_global_index"]
        assert globals_result.count(ObligationStatus.ELIDED) == 0
        assert globals_result.count(ObligationStatus.RUNTIME) >= 2

    def test_optimizer_keeps_eliding_local_index_check_across_call(self):
        """A non-address-taken parameter is callee-immune: the repeated
        index check across the call is still safely elided."""
        results = check_program(build(self.OPTIMIZER_INDEX_SOURCE),
                                DeputyOptions(optimize=True))
        assert results["with_local_index"].count(ObligationStatus.ELIDED) >= 1

    def test_optimizer_drops_heap_reading_index_check_across_call(self):
        """An index check whose *bound* is read through a pointer
        (``__deputy_check_index(i, b->n)``) depends on the heap, so
        name-immunity of ``i`` and ``b`` must not keep it across a call."""
        source = """
        struct buf { int n; int * count(n) data; };
        void touch(void);
        int f(struct buf *b, int i) {
            int x;
            x = b->data[i];
            touch();
            x = x + b->data[i];
            return x;
        }
        """
        results = check_program(build(source), DeputyOptions(optimize=True))
        assert results["f"].count(ObligationStatus.ELIDED) == 0

    def test_optimizer_escapes_base_of_field_address(self):
        """``&h.idx`` escapes ``h`` just as ``&h`` would: a callee can write
        the field through the registered pointer, so the second index check
        over ``h.idx`` is re-emitted — while a never-escaped local struct
        stays callee-immune and its repeated check is still elided."""
        source = """
        struct holder { int idx; };
        int table[16];
        void reg(int *p);
        void ping(void);
        int escapes(void) {
            struct holder h;
            int a;
            int b;
            h.idx = 3;
            reg(&h.idx);
            a = table[h.idx];
            ping();
            b = table[h.idx];
            return a + b;
        }
        int immune(void) {
            struct holder h;
            int a;
            int b;
            h.idx = 3;
            a = table[h.idx];
            ping();
            b = table[h.idx];
            return a + b;
        }
        """
        results = check_program(build(source), DeputyOptions(optimize=True))
        assert results["escapes"].count(ObligationStatus.ELIDED) == 0
        assert results["immune"].count(ObligationStatus.ELIDED) >= 1

    def test_a_refined_fork_walks_its_condition_once(self, monkeypatch):
        # The fork tests the arm's condition for side effects itself, then
        # refines through the helpers that do not test it again.
        walks: Counter = Counter()
        walker = cfg_module.expr_has_side_effects

        def counting(expr):
            walks[id(expr)] += 1
            return walker(expr)

        for module in (consts_module, intervals_module, optimizer_module):
            monkeypatch.setattr(module, "_has_side_effects", counting)
        fork = CheckCache.fork
        per_fork = []

        def checked_fork(self, cond=None, branch_true=True):
            walks.clear()
            clone = fork(self, cond, branch_true)
            if cond is not None:
                per_fork.append(walks[id(cond)])
            return clone

        monkeypatch.setattr(CheckCache, "fork", checked_fork)
        AnalysisEngine(files=KERNEL_FILES).run(["deputy"])
        assert len(per_fork) > 300
        assert set(per_fork) == {1}

    def test_an_assignment_statement_is_noted_once(self, monkeypatch):
        # The assignment notes its effects itself; its statement must not
        # note the same expression again.  A call statement is noted by
        # its statement alone.
        noted: Counter = Counter()
        note = CheckCache.note_effects

        def counting(self, expr):
            noted[type(expr).__name__] += 1
            return note(self, expr)

        monkeypatch.setattr(CheckCache, "note_effects", counting)
        check_program(build("""
        void touch(int *p);
        int f(int *p) {
            int a[4];
            int k;
            k = 2;
            a[k] = 1;
            touch(p);
            return a[k];
        }
        """))
        assert noted == {"Assign": 2, "Call": 1}


class TestInstrumentedExecution:
    def test_in_bounds_execution_unchanged(self):
        program, result, interp, stats = deputize(SUM_SOURCE)
        value = interp.run("main", 8)
        assert value.value == 28
        assert stats.checks_executed > 0
        assert stats.failures == 0

    def test_out_of_bounds_contract_caught(self):
        # Asking sum() for 9 elements of an 8-element array violates count(n).
        program, result, interp, stats = deputize(SUM_SOURCE)
        with pytest.raises(CheckFailure) as excinfo:
            interp.run("main", 9)
        assert excinfo.value.tool == "deputy"

    def test_baseline_misses_overflow_within_block(self):
        # Overflow inside a struct is silent on the baseline machine but is a
        # type-safety violation Deputy catches via the count annotation.
        source = """
        struct buf { int data[4]; int guard; };
        static struct buf b;
        int poke(int idx, int value) { b.data[idx] = value; return b.guard; }
        """
        baseline = build(source)
        interp = Interpreter(baseline)
        assert interp.run("poke", 4, 99).value == 99  # silently corrupts guard

        program, _, dep_interp, _ = deputize(source)
        with pytest.raises(CheckFailure):
            dep_interp.run("poke", 4, 99)

    def test_null_dereference_caught(self):
        source = "struct s { int x; }; int f(struct s *p) { return p->x; }"
        program, _, interp, stats = deputize(source)
        with pytest.raises(CheckFailure):
            interp.run("f", 0)

    def test_nullterm_access_past_terminator_caught(self):
        source = """
        int past(char * nullterm s, int i) { return s[i]; }
        int main(void) { return past("ab", 5); }
        """
        program, _, interp, _ = deputize(source)
        with pytest.raises(CheckFailure):
            interp.run("main")

    def test_cast_check_passes_value_through(self):
        source = """
        struct obj { int a; int b; };
        int main(void) {
            struct obj *o = (struct obj *)__raw_alloc(sizeof(struct obj));
            o->a = 5;
            return o->a;
        }
        """
        program, _, interp, stats = deputize(source)
        assert interp.run("main").value == 5
        assert stats.by_kind.get("cast", 0) >= 1

    def test_undersized_cast_target_caught(self):
        source = """
        struct big { int a[8]; };
        int main(void) {
            void *raw = __raw_alloc(4);
            struct big *b = (struct big *)raw;
            return b->a[0];
        }
        """
        program, _, interp, _ = deputize(source)
        with pytest.raises(CheckFailure):
            interp.run("main")

    def test_instrumented_program_round_trips_through_parser(self):
        program = build(SUM_SOURCE)
        instrument_program(program)
        printed = render_unit(program.units[0])
        reparsed = parse_source(printed)
        assert reparsed.function_named("sum") is not None

    def test_erasure_of_instrumented_program_still_runs(self):
        # Erasing annotations (not checks) keeps behaviour identical.
        from repro.annotations import erase_unit
        program = build(SUM_SOURCE)
        erase_unit(program.units[0])
        interp = Interpreter(program)
        assert interp.run("main", 8).value == 28


class TestConversionReport:
    def test_report_counts_annotations_and_checks(self):
        program = build(SUM_SOURCE)
        result = instrument_program(program)
        report = build_report(program, result)
        assert report.annotation_count >= 1
        assert report.checks_inserted == result.checks_inserted
        assert 0 < report.total_lines < 40
        assert 0 <= report.annotated_fraction < 1

    def test_trusted_lines_counted(self):
        source = "int f(int *p) trusted { int x; x = p[0]; return x; }"
        program = build(source)
        result = instrument_program(program)
        report = build_report(program, result)
        assert report.trusted_functions == 1
        assert report.trusted_lines >= 1

    def test_function_annotations_counted_once(self):
        # A function's annotation set is also its CFunc's: the definition's
        # `trusted` and the prototype's `blocking` are one annotation each.
        program = build("int f(void) trusted { return 0; }\n"
                        "int g(int i) blocking;\n")
        report = build_report(program)
        assert report.annotation_count == 2
        assert report.by_annotation_kind == {"trusted": 1, "blocking": 1}

    @pytest.mark.parametrize("source", [
        "char *buf count(8);", "char * count(8) buf;",
        "int f(char *p count(4));", "struct s { char *d count(4); };"])
    def test_trailing_declarator_annotation_counted_once(self, source):
        # The parser folds a trailing annotation onto the pointer type:
        # both spellings declare one annotation.
        report = build_report(build(source))
        assert report.annotation_count == 1
        assert report.by_annotation_kind == {"count": 1}

    def test_kernel_census(self, kernel_program):
        report = build_report(kernel_program)
        assert report.annotation_count == 119
        assert report.by_annotation_kind == {
            "blocking": 30, "blocking_if_wait": 5, "count": 38,
            "nonnull": 37, "nullterm": 9}
