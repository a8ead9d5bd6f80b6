"""Tests for the unified analysis engine: cache behaviour, parse-once
guarantee, serial/parallel equivalence, standalone-checker equivalence, and
the CLI's report formats."""

from __future__ import annotations

import json

import pytest

from repro.analyses import analyse_error_checks, analyse_locks, analyse_stack
from repro.blockstop import find_irq_handlers, run_blockstop
from repro.deputy import ObligationStatus, check_program
from repro.engine import AnalysisEngine, ArtifactCache, EngineReport
from repro.engine.cli import main as cli_main
from repro.kernel import build as kernel_build
from repro.kernel.corpus import KERNEL_FILES, CorpusFile


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
    def test_hit_and_miss_accounting(self):
        cache = ArtifactCache()
        key = cache.content_key("thing", files=TINY_FILES)
        builds = []
        for _ in range(3):
            cache.get_or_build(key, lambda: builds.append(1) or "value")
        assert builds == [1]
        assert cache.misses == 1
        assert cache.hits == 2

    def test_content_key_invalidates_on_source_change(self):
        cache = ArtifactCache()
        key_before = cache.content_key("program", files=TINY_FILES)
        changed = (CorpusFile("tiny.c", TINY_SOURCE + "\nint extra;\n"),)
        key_after = cache.content_key("program", files=changed)
        assert key_before != key_after
        # Same content, fresh tuple: the key must be stable.
        same = (CorpusFile("tiny.c", TINY_SOURCE),)
        assert cache.content_key("program", files=same) == key_before

    def test_content_key_fields_are_delimited(self):
        # Shifting bytes between adjacent fields must change the key:
        # ('a.c', 'xb') and ('a.cx', 'b') concatenate identically.
        cache = ArtifactCache()
        left = cache.content_key("program", files=(CorpusFile("a.c", "xb"),))
        right = cache.content_key("program", files=(CorpusFile("a.cx", "b"),))
        assert left != right

    def test_content_key_depends_on_defines_and_extra(self):
        cache = ArtifactCache()
        base = cache.content_key("program", files=TINY_FILES)
        assert cache.content_key("program", files=TINY_FILES,
                                 defines={"DEBUG": "1"}) != base
        assert cache.content_key("program", files=TINY_FILES,
                                 extra={"precision": "x"}) != base

    def test_disk_layer_round_trip(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        key = cache.content_key("blob", files=TINY_FILES)
        cache.get_or_build(key, lambda: {"answer": 42})
        # A second cache over the same directory loads from disk.
        reloaded = ArtifactCache(cache_dir=tmp_path)
        value = reloaded.get_or_build(key, lambda: pytest.fail("should hit disk"))
        assert value == {"answer": 42}
        assert reloaded.disk_hits == 1

    def test_engine_disk_cache_skips_reparse(self, tmp_path):
        kernel_build.reset_parse_counts()
        first = AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path)
        first.program()
        assert kernel_build.PARSE_COUNTS["tiny.c"] == 1
        second = AnalysisEngine(files=TINY_FILES, cache_dir=tmp_path)
        second.program()
        assert kernel_build.PARSE_COUNTS["tiny.c"] == 1  # loaded, not parsed

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

        from repro.engine import core
        from repro.engine.scheduler import InlineExecutor

        rng = random.Random(20260808)
        built = []

        def scrambled_executor(jobs, handler):
            built.append(jobs)
            return InlineExecutor(
                handler, pick=lambda queued: rng.randrange(len(queued)))

        monkeypatch.setattr(core, "WorkStealingExecutor", scrambled_executor)
        monkeypatch.setattr(core, "fork_available", lambda: True)
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

        from repro.engine import core

        def refuse(*args):
            raise AssertionError("the no-fork path started a process")

        monkeypatch.setattr(core, "fork_available", lambda: False)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        monkeypatch.setattr(os, "fork", refuse)
        report = AnalysisEngine().run(analyses="all", jobs=2)
        assert report.parallel is False
        assert report.perf["scheduler"]["mode"] == "serial"
        assert normalized_report(report) == normalized_report(engine_report)

    def test_worker_count_shared_by_parse_and_executor(self, monkeypatch):
        """One clamp for both pools: jobs=8 on 2 usable CPUs forks 2 + 2."""
        import multiprocessing.process

        from repro.engine import core
        from repro.engine.scheduler import fork_available
        from repro.kernel import parallel

        if not fork_available():
            pytest.skip("fork start method unavailable")
        targets = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            targets.append(process._target.__name__)
            return start(process)

        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting_start)
        report = AnalysisEngine().run(analyses="stackcheck", jobs=8)
        assert report.perf["parse"]["jobs"] == 2
        assert report.perf["scheduler"]["jobs"] == 2
        assert report.jobs == 2
        assert sorted(targets) == ["_parse_worker"] * 2 + ["_worker_loop"] * 2

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
