"""Self-tests of the benchmark: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.engine import AnalysisEngine  # noqa: E402
from repro.kernel.synth import generate_corpus  # noqa: E402
from repro.service.incremental import IncrementalAnalyzer  # noqa: E402

BASELINES = json.loads((ROOT / "BENCH_engine.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def seed_report():
    return AnalysisEngine().run()


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(1, 5)


# -- known answers ------------------------------------------------------------


def test_seed_verdicts_hold_at_this_commit(seed_report):
    assert workloads.seed_verdict_problems(seed_report, BASELINES) == []


@pytest.mark.parametrize("wrong", [
    {"seeded": {"not_a_seeded_caller"}},
    {"pruned": {"buggy_stats_update"}},
    {"baselines": {"deputy_discharge_baseline": 10**6,
                   "deputy_relational_baseline": 0}},
    {"baselines": {"deputy_discharge_baseline": 0,
                   "deputy_relational_baseline": 10**6}},
])
def test_wrong_expected_verdict_fails_the_operation(seed_report, wrong):
    wrong = dict(wrong)
    baselines = wrong.pop("baselines", BASELINES)
    recorder = workloads.Recorder()
    report = recorder.run("serial", lambda: seed_report)
    recorder.check("seed verdicts",
                   workloads.seed_verdict_problems(report, baselines, **wrong))
    assert (recorder.attempted, recorder.failed) == (1, 1)


def test_fill_twin_check(small_corpus):
    engine = AnalysisEngine(files=small_corpus)
    payloads = workloads._capture_shards(engine, "deputy")
    engine.run()
    units = len(small_corpus) - 1
    assert workloads.fill_twin_problems(payloads, units) == []
    # Expecting a unit the corpus does not have is a wrong answer...
    assert workloads.fill_twin_problems(payloads, units + 1)
    # ...and so is an off-by-one twin that claims to have discharged.
    tampered = copy.deepcopy(payloads)
    for payload in tampered:
        if "s000_fill_off" in payload["functions"]:
            payload["functions"]["s000_fill_off"]["counts"]["runtime"] = 0
    assert workloads.fill_twin_problems(tampered, units) == [
        "s000_fill_off lost its run-time check"]


def test_identity_check_flags_different_findings(seed_report):
    other = copy.deepcopy(seed_report)
    other.analyses["blockstop"].findings.pop()
    assert workloads.identity_problems(seed_report, seed_report, "x") == []
    recorder = workloads.Recorder()
    recorder.run("parallel", lambda: other)
    recorder.check("parallel", workloads.identity_problems(seed_report, other, "x"))
    assert recorder.failed == 1


def test_a_raising_operation_counts_as_failed():
    recorder = workloads.Recorder()
    try:
        recorder.run("serial", lambda: 1 / 0)
    except ZeroDivisionError:
        recorder.crashed("serial")
    assert (recorder.attempted, recorder.failed) == (1, 1)


# -- deterministic inputs ---------------------------------------------------------


def test_inputs_are_deterministic_per_seed():
    first = workloads.build_inputs("scale_edits", 4)
    again = workloads.build_inputs("scale_edits", 4)
    other = workloads.build_inputs("scale_edits", 5)
    assert first["script"] == again["script"]
    assert first["edit_script_sha256"] == again["edit_script_sha256"]
    assert first["corpus_sha256"] == again["corpus_sha256"]
    assert first["edit_script_sha256"] != other["edit_script_sha256"]
    assert first["corpus_sha256"] != other["corpus_sha256"]
    assert run.HELD_OUT_SEED not in range(1, 101)


def test_body_edits_cover_each_third_of_the_chain():
    files = generate_corpus(workloads.SCALE, 2)
    script = workloads.make_edit_script(files, 2, cycles=1)
    units = len(files) - 1
    thirds = sorted(edit.unit * 3 // units for edit in script if edit.kind == "body")
    assert thirds == [0, 1, 2]
    assert [edit.kind for edit in script] == list(workloads.EDIT_CYCLE)


def test_one_edit_cycle_replays_with_known_answers(small_corpus, tmp_path):
    """Each edit parses (break excepted), break/fix diagnostics hold, and
    the final incremental findings equal a cold engine's."""
    script = workloads.make_edit_script(small_corpus, 9, cycles=1)
    replay = workloads.EditReplay(small_corpus)
    analyzer = IncrementalAnalyzer(files=small_corpus)
    analyzer.analyze()
    for edit in script:
        current = replay.apply(edit)
        report = analyzer.analyze(current)
        if edit.kind in ("break", "fix"):
            filename = current[edit.unit + 1].filename
            assert workloads.break_fix_problems(
                report, filename, edit.kind == "break") == []
            assert workloads.break_fix_problems(
                report, filename, edit.kind != "break")
        elif edit.kind != "noop":
            assert "diagnostics" not in report.analyses
    assert replay.files != list(small_corpus)
    cold = AnalysisEngine(files=tuple(replay.files)).run()
    assert workloads.identity_problems(cold, report, "incremental") == []


# -- metrics and tracing ----------------------------------------------------------


@pytest.mark.parametrize("workload, named", [
    ("seed_batch", ("analyze_p50_s", "analyze_p90_s", "analyze_parallel_s",
                    "warm_s")),
    ("scale_batch", ("analyze_p50_s", "analyze_parallel_s", "warm_s")),
    ("scale_edits", ("pass_mean_ms", "pass_p50_ms", "pass_p90_ms", "noop_p50_ms",
                     "restart_s")),
])
def test_every_workload_metric_is_emitted(workload, named):
    samples = {kind: [1.0, 2.0, 3.0] for kind in
               ("serial", "parallel", "warm", "pass", "noop", "restart")}
    scaled = {kind: [value / 2 for value in values]
              for kind, values in samples.items()}
    metrics = run.workload_metrics(workload, samples, scaled, [0.5, 0.6, 0.7],
                                   10, 0)
    gated = tuple(m["name"] for m in BENCHMARK["end_to_end"])
    assert set(gated + named + ("failed_ratio", "host_slowdown")) <= set(metrics)
    assert set(metrics) <= set(run.metric_specs())
    assert all(value > 0 for name, (value, _) in metrics.items()
               if name != "failed_ratio")
    # The gated time is at the reference host speed, the details wall time.
    assert metrics["host_slowdown"][0] == 2.0


def test_scaled_time_follows_the_reference_loop(monkeypatch):
    monkeypatch.setattr(workloads, "reference_loop",
                        lambda: 2 * workloads.REFERENCE_S)
    recorder = workloads.Recorder()
    recorder.run("serial", lambda: sum(range(10**5)))
    (wall,), (scaled,) = recorder.samples["serial"], recorder.scaled["serial"]
    assert scaled == pytest.approx(wall / 2 ** workloads.REFERENCE_EXPONENT)


def test_tracer_restores_every_layer_function():
    import repro.service.incremental as incremental
    from repro.service.store import PersistentStore

    before = (incremental.build_direct_callgraph, PersistentStore.__dict__["get"])
    tracer = tracing.Tracer()
    tracer.install()
    assert incremental.build_direct_callgraph is not before[0]
    tracer.uninstall()
    assert (incremental.build_direct_callgraph,
            PersistentStore.__dict__["get"]) == before


def test_traced_ops_give_layer_spans(small_corpus):
    tracer = tracing.Tracer()
    recorder = workloads.Recorder(tracer)
    tracer.install()
    try:
        recorder.run("serial", lambda: AnalysisEngine(files=small_corpus).run())
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer)
    assert set(layers) == set(tracing.LAYER_METRICS)
    for name in ("parse.s", "facts.s", "summaries.s", "checker.deputy.s"):
        assert layers[name] > 0
    assert layers["summaries.sccs"] > 0
    (op,) = tracer.ops
    assert 0 <= op.self_s < op.end - op.start
    events = tracer.chrome_trace()["traceEvents"]
    assert {event["name"] for event in events} >= {"op:serial", "parse", "solve_scc"}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_prints_every_benchmark_metric(tmp_path, trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "seed_batch",
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--out", str(tmp_path / "results.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    record = json.loads((tmp_path / "results.jsonl").read_text())
    assert record["inputs"]["corpus_sha256"]
    assert {"nproc", "affinity", "python", "loadavg"} <= set(record["host"])


def test_run_refuses_without_the_toolchain_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seed_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


# -- compare ----------------------------------------------------------------------


def _series(base: float, step: float = 0.002) -> list[float]:
    return [base + step * i for i in range(10)]


@pytest.mark.parametrize("change, bound, expected", [
    (_series(0.8), 0.1, "improved"),
    (_series(1.3), 0.1, "worse"),
    (_series(1.001), 0.1, "unchanged"),
    (_series(1.05), 0.1, "unchanged"),
])
def test_compare_verdicts(change, bound, expected):
    parent = _series(1.0)
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", bound)[0] == expected


def test_compare_reports_a_noisy_parent_as_unresolved():
    parent = [1.0, 1.5, 0.7, 1.2, 0.9, 1.4, 0.8, 1.1, 1.3, 1.0]
    change = [value * 1.02 for value in parent]
    assert compare.verdict(parent, change, list(zip(parent, change)),
                           "lower", 0.1)[0] == "unresolved"


def _write_results(path, values, failed_seeds=()):
    with open(path, "w") as handle:
        for seed, value in enumerate(values):
            failed = int(seed in failed_seeds)
            metrics = {} if failed else {"verdict_s": {"value": value}}
            handle.write(json.dumps({
                "workload": "seed_batch", "seed": seed, "trace": 0,
                "attempted": 5, "failed": failed, "metrics": metrics}) + "\n")


def test_compare_command_over_two_result_files(tmp_path, capsys):
    _write_results(tmp_path / "parent.jsonl", _series(1.0))
    _write_results(tmp_path / "change.jsonl", _series(1.5))
    assert compare.compare(str(tmp_path / "parent.jsonl"),
                           str(tmp_path / "change.jsonl")) == 1
    assert "worse" in capsys.readouterr().out


def test_compare_counts_failed_runs_against_the_change(tmp_path, capsys):
    _write_results(tmp_path / "parent.jsonl", _series(1.0))
    _write_results(tmp_path / "change.jsonl", _series(0.5) + [0.5],
                   failed_seeds={10})
    assert compare.compare(str(tmp_path / "parent.jsonl"),
                           str(tmp_path / "change.jsonl")) == 1
    out = capsys.readouterr().out
    assert "change 1/55 in 1/11 runs  worse" in out
    assert "improved" not in out
