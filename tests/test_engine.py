"""Tests for the unified analysis engine: store behaviour, parse-once
guarantee, serial/parallel equivalence, equivalence with the from-scratch
reference and the standalone checkers, and the CLI's report formats."""

from __future__ import annotations

import copy
import json

import pytest
from reference import reference_report

from repro.analyses import analyse_error_checks, analyse_locks, analyse_stack
from repro.blockstop import find_irq_handlers, run_blockstop
from repro.deputy import ObligationStatus, check_program
from repro.engine import AnalysisEngine, EngineReport
from repro.engine.cli import main as cli_main
from repro.kernel import build as kernel_build
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.kernel.synth import generate_corpus
from repro.minic.pretty import render_unit
from repro.service import IncrementalAnalyzer


@pytest.fixture(scope="module")
def engine():
    return AnalysisEngine()


@pytest.fixture(scope="module")
def engine_report(engine):
    return engine.run(analyses="all", jobs=1)


#: A corpus small enough that cache tests do not pay full-kernel parse costs.
TINY_SOURCE = """
void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);
void schedule(void) blocking;
static int lock;
int bad(void) {
    spin_lock_irqsave(&lock);
    schedule();
    spin_unlock_irqrestore(&lock);
    return 0;
}
"""

TINY_FILES = (CorpusFile("tiny.c", TINY_SOURCE),)


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------

class TestArtifactCache:
    """A run reads and writes the analyzer's rows: constant facts per
    function, summaries per SCC and shards per (analysis, unit)."""

    def test_hit_and_miss_accounting(self):
        engine = AnalysisEngine(files=TINY_FILES)
        cold = engine.run().cache_stats
        assert cold["hits"] == 0 and cold["misses"] > 0
        # The second run on the same engine redoes nothing.
        warm = engine.run().cache_stats
        assert warm["misses"] == 0 and warm["hits"] == cold["misses"]
        assert warm["disk_hits"] == 0

    def test_disk_layer_round_trip(self, tmp_path):
        cold = AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path).run()
        # A second engine over the same directory loads every row.
        reloaded = AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path)
        warm = reloaded.run()
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["disk_hits"] == cold.cache_stats["misses"]
        assert warm.all_findings() == cold.all_findings()
        assert reloaded.analyzer.store.entry_count("consts") == 1

    def test_warm_engine_solves_and_reruns_nothing(self, tmp_path):
        AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path).run()
        kernel_build.reset_parse_counts()
        warm = AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path)
        warm.run()
        stats = warm.analyzer.last_stats
        assert (stats.consts_solved, stats.dirty_sccs, stats.shards_rerun) == (0, 0, 0)
        # Parses are not stored yet: a warm engine parses its corpus again.
        assert kernel_build.PARSE_COUNTS["tiny.c"] == 1

    def test_engine_reparses_when_source_changes(self, tmp_path):
        kernel_build.reset_parse_counts()
        AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path).program()
        changed = (CorpusFile("tiny.c", TINY_SOURCE + "\nint extra;\n"),)
        AnalysisEngine(files=changed, cache_dir=tmp_path).program()
        assert kernel_build.PARSE_COUNTS["tiny.c"] == 2  # content changed


# ---------------------------------------------------------------------------
# Parse-once guarantee
# ---------------------------------------------------------------------------

class TestParseOnce:
    def test_full_run_parses_each_unit_exactly_once(self):
        kernel_build.reset_parse_counts()
        engine = AnalysisEngine()
        report = engine.run(analyses="all", jobs=1)
        assert set(report.analyses) == {"deputy", "blockstop", "errcheck",
                                        "lockcheck", "stackcheck", "ccount"}
        for corpus_file in KERNEL_FILES:
            assert kernel_build.PARSE_COUNTS[corpus_file.filename] == 1

    def test_second_run_parses_nothing(self):
        engine = AnalysisEngine()
        engine.run(analyses="all")
        kernel_build.reset_parse_counts()
        engine.run(analyses="all")
        assert sum(kernel_build.PARSE_COUNTS.values()) == 0


# ---------------------------------------------------------------------------
# Serial vs parallel
# ---------------------------------------------------------------------------

def normalized_report(report):
    """A report's deterministic content: everything but run metadata."""
    payload = report.to_dict()
    for key in ("jobs", "parallel", "elapsed_seconds", "cache_stats", "perf"):
        payload.pop(key, None)
    return payload


def reference_identity(report) -> str:
    """The normalized report without the summary cache flags, which say
    how the pass got its artifacts."""
    payload = copy.deepcopy(normalized_report(report))
    payload["summary_stats"].pop("cache_hit")
    payload["summary_stats"].pop("consts_cache_hit")
    return json.dumps(payload, sort_keys=True)


class TestParallel:
    def test_parallel_matches_serial(self, engine_report):
        parallel = AnalysisEngine().run(analyses="all", jobs=2)
        assert parallel.parallel, "multiprocessing mode did not engage"
        assert set(parallel.analyses) == set(engine_report.analyses)
        for name, serial_result in engine_report.analyses.items():
            parallel_result = parallel.analyses[name]
            assert parallel_result.findings == serial_result.findings, name
            assert parallel_result.metrics == serial_result.metrics, name

    def test_work_steal_report_identical_to_serial(self, engine_report):
        steal = AnalysisEngine().run(analyses="all", jobs=2)
        assert normalized_report(steal) == normalized_report(engine_report)
        scheduler_stats = steal.perf["scheduler"]
        assert scheduler_stats["mode"] == "work-steal"
        assert scheduler_stats["tasks"] > 0
        assert 0.0 <= scheduler_stats["worker_idle_ratio"] <= 1.0
        assert set(steal.perf["phases"]) >= {"parse", "artifacts", "checkers"}

    def test_parallel_run_solves_each_scc_once_in_parent(self):
        """Summaries are solved in the parent on the parallel path too, so
        the parent's per-process counter sees every SCC exactly once."""
        from repro.dataflow.interproc import (
            SCC_SOLVE_COUNTS,
            reset_scc_solve_counts,
        )
        from repro.engine.scheduler import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        reset_scc_solve_counts()
        AnalysisEngine().run(analyses="all", jobs=1)
        serial = dict(SCC_SOLVE_COUNTS)
        reset_scc_solve_counts()
        report = AnalysisEngine().run(analyses="all", jobs=2)
        assert report.parallel
        assert dict(SCC_SOLVE_COUNTS) == serial
        assert len(serial) == 198
        assert set(serial.values()) == {1}
        assert "scc" not in report.perf["scheduler"]["busy_by_phase"]

    def test_scrambled_completion_order_byte_identical(
            self, engine_report, monkeypatch):
        """Out-of-order task completion must never change the report.

        The run's executor is swapped for an inline one that runs the exact
        work-steal task lists in-process with an adversarial pick, so tasks
        complete in a scrambled order; the merged report must be
        byte-identical with the serial run regardless."""
        import random

        from repro.engine import scheduler
        from repro.engine.scheduler import InlineExecutor
        from repro.service import incremental

        rng = random.Random(20260808)
        built = []

        def scrambled_executor(jobs, handler):
            built.append(jobs)
            return InlineExecutor(
                handler, pick=lambda queued: rng.randrange(len(queued)))

        monkeypatch.setattr(incremental, "WorkStealingExecutor",
                            scrambled_executor)
        monkeypatch.setattr(scheduler, "fork_available", lambda: True)
        scrambled = AnalysisEngine().run(analyses="all", jobs=2)
        assert built == [2]
        assert scrambled.perf["scheduler"]["mode"] == "work-steal"
        assert scrambled.perf["scheduler"]["tasks"] > 0
        assert normalized_report(scrambled) == normalized_report(engine_report)

    def test_no_fork_runs_serial_without_forking(
            self, engine_report, monkeypatch):
        """Where ``fork`` is unavailable a parallel request runs serially."""
        import multiprocessing.process
        import os

        from repro.engine import scheduler

        def refuse(*args):
            raise AssertionError("the no-fork path started a process")

        monkeypatch.setattr(scheduler, "fork_available", lambda: False)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        monkeypatch.setattr(os, "fork", refuse)
        report = AnalysisEngine().run(analyses="all", jobs=2)
        assert report.parallel is False
        assert report.perf["scheduler"]["mode"] == "serial"
        assert normalized_report(report) == normalized_report(engine_report)

    def test_worker_count_shared_by_parse_and_executor(self, monkeypatch):
        """One pool: jobs=8 on 2 usable CPUs forks 2 executor workers, and
        the parse, which runs in the parent, forks none."""
        import multiprocessing.process

        from repro.engine import scheduler

        if not scheduler.fork_available():
            pytest.skip("fork start method unavailable")
        targets = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            targets.append(process._target.__name__)
            return start(process)

        monkeypatch.setattr(scheduler, "usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting_start)
        report = AnalysisEngine().run(analyses="stackcheck", jobs=8)
        assert report.jobs == report.perf["scheduler"]["jobs"] == 2
        assert "parse" not in report.perf
        assert targets == ["_worker_loop"] * 2

    def test_jobs_one_stays_serial(self, engine_report):
        assert not engine_report.parallel

    def test_report_rendering_byte_identical_serial_vs_parallel(
            self, engine_report, tmp_path, capsys):
        """Shard merge order must never change the rendered report.

        Findings inside every analysis are sorted by (function, location)
        before rendering, so `repro-engine report` over a --jobs 4 run is
        byte-identical to the --jobs 1 run once the run metadata (timing,
        worker count) — which legitimately differs — is normalized.
        """
        parallel = AnalysisEngine().run(analyses="all", jobs=4)
        assert parallel.parallel
        renders = []
        for report in (engine_report, parallel):
            payload = report.to_dict()
            for key in ("jobs", "parallel", "elapsed_seconds", "cache_stats",
                        "perf"):
                payload.pop(key, None)
            path = tmp_path / f"report-{len(renders)}.json"
            path.write_text(json.dumps(payload, sort_keys=True))
            assert cli_main(["report", str(path), "--format", "text"]) == 0
            renders.append(capsys.readouterr().out.encode())
        assert renders[0] == renders[1]


# ---------------------------------------------------------------------------
# One parse front end: the shared tables cross unit boundaries in order
# ---------------------------------------------------------------------------

PKT_FWD = CorpusFile("pkt/fwd.c", """
struct pkt;
struct pkt *alloc_pkt(void);
int fwd(struct pkt *p) { return p != (struct pkt *)0; }
""")
PKT_COMPLETE = CorpusFile("pkt/complete.c", """
struct pkt { int len; int cap; };
int length(struct pkt *p) { return p->len; }
""")

#: (files, tolerant, what the last unit's rendering must show).
FRONT_END_CORPORA = [
    pytest.param(
        (CorpusFile("shadow/base.c", "#define WIDTH 4\n"
                                     "int base(void) { return WIDTH; }\n"),
         CorpusFile("shadow/mid.c", "#undef WIDTH\n#define WIDTH 8\n"
                                    "int mid(void) { return WIDTH; }\n"),
         CorpusFile("shadow/reader.c", "int reader(void) { return WIDTH; }\n")),
        False, "return 8;", id="macro-shadowing"),
    pytest.param(
        (PKT_FWD, PKT_COMPLETE,
         CorpusFile("pkt/user.c", "int use(struct pkt *p) { return p->cap; }\n")),
        False, "p->cap", id="struct-completion"),
    pytest.param(
        (PKT_FWD, PKT_COMPLETE,
         CorpusFile("pkt/szuser.c",
                    "int size_of_pkt(void) { return sizeof(struct pkt); }\n")),
        False, "sizeof(struct pkt)", id="struct-completion-sizeof"),
    pytest.param(
        (CorpusFile("conf/lib.c", "int lib(void) { return 1; }\n"),
         CorpusFile("conf/def.c", "typedef int u32;\n"
                                  "u32 make(void) { return 0; }\n"),
         CorpusFile("conf/use.c", "u32 consume(void) { return 9; }\n")),
        False, "u32 consume(void)", id="typedef-mid-corpus"),
    pytest.param(
        (CorpusFile("conf2/lib.c", "int lib(void) { return 1; }\n"),
         CorpusFile("conf2/def.c", "enum mode { MODE_A = 5, MODE_B = 7 };\n"
                                   "int pick(void) { return MODE_A; }\n"),
         CorpusFile("conf2/use.c", "int choose(void) { return MODE_B; }\n")),
        False, "return 7;", id="enum-constant"),
    pytest.param(
        (KERNEL_FILES[0],
         CorpusFile("conf3/broken.c", "int oops(void) { return }\n"),
         CorpusFile("conf3/ok.c", "int fine(void) { return 2; }\n")),
        True, "return 2;", id="broken-unit-tolerant"),
]


class TestOneFrontEnd:
    """Serial and parallel runs parse through the same front end, so the
    macro, typedef, struct and enum tables each unit sees are the ones
    the units before it left."""

    @pytest.mark.parametrize("files,tolerant,shown", FRONT_END_CORPORA)
    def test_serial_and_parallel_reports_equal(self, files, tolerant, shown):
        reports = []
        for jobs in (1, 2):
            engine = AnalysisEngine(files=files, tolerant=tolerant)
            reports.append(normalized_report(engine.run(analyses="all", jobs=jobs)))
            assert shown in render_unit(engine.program().units[-1])
        assert reports[0] == reports[1]
        if tolerant:
            findings = reports[0]["analyses"]["diagnostics"]["findings"]
            assert [f["file"] for f in findings] == ["conf3/broken.c"]

    def test_strict_mode_raises_the_same_error_on_both_paths(self):
        from repro.minic.errors import MiniCError

        files = (KERNEL_FILES[0],
                 CorpusFile("conf4/broken.c", "int oops(void) { return }\n"))
        errors = []
        for jobs in (1, 2):
            with pytest.raises(MiniCError) as raised:
                AnalysisEngine(files=files).run(analyses="all", jobs=jobs)
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# Equivalence with the from-scratch reference
# ---------------------------------------------------------------------------

#: (files, tolerant) of every corpus the reference checks.
REFERENCE_CORPORA = [
    pytest.param(KERNEL_FILES, False, id="seed"),
    *(pytest.param(param.values[0], param.values[1], id=param.id)
      for param in FRONT_END_CORPORA),
    pytest.param(generate_corpus(1, 5), False, id="synth-1-5"),
]


class TestReference:
    """Every batch run and service pass is one pipeline, so each is checked
    against :func:`reference_report`, which derives the artifacts with no
    key, memo, store or pool."""

    @pytest.mark.parametrize("files,tolerant", REFERENCE_CORPORA)
    def test_every_path_equals_the_reference(self, files, tolerant, tmp_path):
        expected = reference_identity(reference_report(files))
        for jobs in (1, 2):
            engine = AnalysisEngine(files=files, tolerant=tolerant,
                                    cache_dir=tmp_path / f"jobs{jobs}")
            assert reference_identity(engine.run(jobs=jobs)) == expected, jobs
            engine.analyzer.store.close()
        warm = AnalysisEngine(files=files, tolerant=tolerant,
                              cache_dir=tmp_path / "jobs1")
        report = warm.run()
        assert report.cache_stats["misses"] == 0
        assert reference_identity(report) == expected, "warm"
        warm.analyzer.store.close()
        fresh = IncrementalAnalyzer(files=files).analyze()
        assert reference_identity(fresh) == expected, "analyzer"


# ---------------------------------------------------------------------------
# Equivalence with the standalone checkers
# ---------------------------------------------------------------------------

class TestStandaloneEquivalence:
    def test_blockstop(self, engine_report, kernel_program):
        standalone = run_blockstop(kernel_program)
        expected = {(v.caller, v.location.line, v.describe())
                    for v in standalone.reported}
        actual = {(f["function"], f["line"], f["message"])
                  for f in engine_report.analyses["blockstop"].findings}
        assert actual == expected

    def test_deputy(self, engine_report, kernel_program):
        standalone = check_program(kernel_program)
        metrics = engine_report.analyses["deputy"].metrics
        assert metrics["functions_checked"] == len(standalone)
        for status in ObligationStatus:
            expected = sum(result.count(status) for result in standalone.values())
            assert metrics[f"obligations_{status.name.lower()}"] == expected
        expected_errors = sorted(
            (error.location.line, error.message)
            for result in standalone.values() for error in result.errors)
        actual_errors = sorted((f["line"], f["message"])
                               for f in engine_report.analyses["deputy"].findings)
        assert actual_errors == expected_errors

    def test_errcheck(self, engine_report, kernel_program):
        standalone = analyse_error_checks(kernel_program)
        expected = {(c.caller, c.callee, c.location.line) for c in standalone.unchecked}
        actual = set()
        for finding in engine_report.analyses["errcheck"].findings:
            callee = finding["message"].split("result of ", 1)[1].split("()", 1)[0]
            actual.add((finding["function"], callee, finding["line"]))
        assert actual == expected
        assert (engine_report.analyses["errcheck"].metrics["checked_calls"]
                == standalone.checked_calls)

    def test_lockcheck(self, engine_report, kernel_program):
        standalone = analyse_locks(kernel_program,
                                   irq_functions=find_irq_handlers(kernel_program))
        metrics = engine_report.analyses["lockcheck"].metrics
        assert metrics["acquisitions"] == len(standalone.acquisitions)
        assert metrics["order_violations"] == len(standalone.order_violations)
        assert metrics["irq_violations"] == len(standalone.irq_violations)

    def test_stackcheck(self, engine_report, kernel_program):
        # Independent derivation of the same basis the engine documents: the
        # BlockStop-style graph with points-to-resolved indirect edges (not
        # the engine's own artifact object, which would be circular).
        from repro.blockstop.callgraph import build_direct_callgraph
        from repro.blockstop.pointsto import FunctionPointerAnalysis, Precision

        graph, indirect_calls = build_direct_callgraph(kernel_program)
        pointsto = FunctionPointerAnalysis(kernel_program, Precision.TYPE_BASED)
        pointsto.collect()
        pointsto.resolve(graph, indirect_calls)
        standalone = analyse_stack(kernel_program, graph)
        metrics = engine_report.analyses["stackcheck"].metrics
        assert metrics["call_graph"] == "pointsto_resolved"
        assert metrics["worst_case_bytes"] == standalone.worst_case
        assert metrics["fits"] == standalone.fits
        assert metrics["recursive_functions"] == len(standalone.recursive_functions)

    def test_ccount_census_matches_harness_conversion_report(self, engine_report):
        from repro.ccount import build_conversion_report
        from repro.kernel.build import BuildConfig, build_kernel

        build = build_kernel(BuildConfig(ccount=True))
        census = build_conversion_report(build.program, build.ccount_result)
        metrics = engine_report.analyses["ccount"].metrics
        assert metrics["pointer_nullouts"] == census.pointer_nullouts
        assert metrics["rtti_sites"] == census.rtti_sites
        assert metrics["delayed_free_scopes"] == census.delayed_scopes
        assert (metrics["pointer_writes_instrumented"]
                == census.pointer_writes_instrumented)


# ---------------------------------------------------------------------------
# Shared artifacts
# ---------------------------------------------------------------------------

class TestSharedArtifacts:
    def test_fresh_program_is_private(self, engine):
        copy_one = engine.fresh_program()
        assert copy_one is not engine.program()
        # Mutating the copy must not leak into the shared parse.
        name = next(iter(copy_one.functions))
        del copy_one.functions[name]
        assert name in engine.program().functions

    def test_unit_function_map_covers_all_functions(self, engine):
        shared = engine.artifacts()
        mapped = [fn for names in shared.unit_functions.values() for fn in names]
        assert sorted(mapped) == sorted(engine.program().functions)

    def test_type_envs_are_shared(self, engine):
        shared = engine.artifacts()
        env = shared.env_for("schedule")
        assert env is shared.env_for("schedule")

    def test_fresh_kernel_program_guards_corpus_mismatch(self, engine):
        from repro.kernel.build import BuildConfig
        from repro.kernel.corpus import ALL_FILES

        assert engine.fresh_kernel_program(BuildConfig()) is not None
        assert engine.fresh_kernel_program(
            BuildConfig(defines={"DEBUG": "1"})) is None
        mismatched = AnalysisEngine(files=ALL_FILES)
        assert mismatched.fresh_kernel_program(BuildConfig()) is None
        # The harness paths must survive a mismatched engine by re-parsing.
        from repro.harness import run_deputy_stats
        assert run_deputy_stats(engine=mismatched).shape_holds()


# ---------------------------------------------------------------------------
# CLI and report formats
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_json_and_report_round_trip(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = cli_main(["run", "--analyses", "blockstop,lockcheck",
                         "--format", "json", "--output", str(output)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["analyses"]) == {"blockstop", "lockcheck"}
        assert output.exists()

        code = cli_main(["report", str(output), "--format", "text"])
        assert code == 0
        text = capsys.readouterr().out
        assert "-- blockstop --" in text
        assert "violations_reported" in text

        # Round-trip through the dataclass as well.
        restored = EngineReport.from_dict(json.loads(output.read_text()))
        assert restored.analyses["blockstop"].metrics["violations_reported"] >= 1

    def test_run_rejects_unknown_analysis(self, capsys):
        assert cli_main(["run", "--analyses", "nonsense"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["report", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_list_names_every_analysis(self, capsys):
        assert cli_main(["list"]) == 0
        names = capsys.readouterr().out.split()
        assert names == ["deputy", "blockstop", "errcheck", "lockcheck",
                         "stackcheck", "ccount"]

    def test_fail_on_findings_gates(self, capsys):
        code = cli_main(["run", "--analyses", "blockstop", "--fail-on-findings"])
        capsys.readouterr()
        assert code == 1  # the corpus's seeded bugs are findings

    def test_gen_corpus_writes_and_resumes(self, tmp_path, capsys):
        target = tmp_path / "scale"
        assert cli_main(["gen-corpus", str(target), "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "11 files" in out and "11 written" in out
        # A re-run is a no-op: every file's content hash already matches.
        assert cli_main(["gen-corpus", str(target), "--scale", "1"]) == 0
        assert "11 up to date" in capsys.readouterr().out

    def test_gen_corpus_rejects_bad_scale(self, tmp_path, capsys):
        assert cli_main(["gen-corpus", str(tmp_path / "x"), "--scale", "0"]) == 2
        assert "scale" in capsys.readouterr().err

    def test_run_analyzes_generated_corpus_dir(self, tmp_path, capsys):
        target = tmp_path / "scale"
        assert cli_main(["gen-corpus", str(target), "--scale", "1"]) == 0
        capsys.readouterr()
        code = cli_main(["run", "--analyses", "lockcheck", "--corpus-dir",
                         str(target), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["corpus_files"]) == 11

    def test_bench_entry_records_tag_and_perf(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        code = cli_main(["run", "--analyses", "lockcheck", "--bench-json",
                         str(bench), "--bench-tag", "scale"])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(bench.read_text())
        (entry,) = payload["runs"]
        assert entry["tag"] == "scale"
        assert "phases" in entry["perf"]
        assert entry["perf"]["scheduler"]["mode"] == "serial"


# ---------------------------------------------------------------------------
# Harness wiring
# ---------------------------------------------------------------------------

class TestHarnessWiring:
    def test_blockstop_eval_before_leg_is_type_based_for_any_engine(self):
        """The eval's before/after legs are TYPE_BASED by definition; a
        field-sensitive engine must not silently change (or mislabel) them."""
        from repro.blockstop import Precision
        from repro.harness import run_blockstop_eval

        default = run_blockstop_eval()
        from_fs_engine = run_blockstop_eval(
            engine=AnalysisEngine(precision=Precision.FIELD_SENSITIVE))
        assert from_fs_engine.before.precision == "type_based"
        assert (from_fs_engine.before.violations_reported
                == default.before.violations_reported)
        assert (from_fs_engine.field_sensitive.violations_reported
                == default.field_sensitive.violations_reported)

    def test_run_all_parses_corpus_once(self):
        from repro.harness import run_all

        kernel_build.reset_parse_counts()
        run_all(include_table1=False)
        for corpus_file in KERNEL_FILES:
            assert kernel_build.PARSE_COUNTS[corpus_file.filename] == 1
