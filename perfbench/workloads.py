"""The benchmark's workloads, their seeded inputs and their known answers.

All three are closed loops with one client: the next operation starts when
the previous one has returned.  Parallel legs use ``jobs = min(2, nproc)``.

``seed_batch``
    Cold serial full analyses (fresh :class:`AnalysisEngine`, all six
    analyses) of the embedded 11-TU kernel corpus, round after round; then
    one cold parallel analysis and one warm one (a fresh engine over the
    last serial run's ``cache_dir``).  The only corpus with real kernel
    shapes (points-to-resolved function pointers, IRQ handlers, pruned
    edges) and verdicts known independently of the tool.  Its inputs do not
    depend on the seed.
``scale_batch``
    The same legs over ``generate_corpus(10, seed)`` (101 TUs).  Run by
    hand only: one cold analysis takes 10-20 s, too few per run to be
    steady.
``scale_edits``
    One :class:`IncrementalAnalyzer` with a :class:`PersistentStore` over the
    scale-10 corpus replays a seeded edit script, one pass per edit, then a
    fresh analyzer restarts over the same store.

Work is done in whole *rounds* (one serial analysis, or one cycle of the
edit script) while the next round is expected to fit in the time budget,
so every run measures the same mix.  Every operation is counted as attempted;
it fails if it raises or if a check of its output against a known answer
fails.

Every operation is timed twice over: as wall time, and scaled to a
reference host speed.  The speed of a shared host drifts by up to 2x for
minutes at a time; :func:`reference_loop`, a fixed pure-Python loop run
just before and just after each operation, measures it, and the scaled
time is the wall time times ``REFERENCE_S`` over the loop's mean time, to
the power ``REFERENCE_EXPONENT``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import shutil
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.dataflow.domains import solve_program_facts
from repro.engine import AnalysisEngine
from repro.harness.blockstop_eval import ALL_SEEDED_CALLERS, CONST_PRUNED_CALLERS
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.kernel.synth import generate_corpus
from repro.service.incremental import IncrementalAnalyzer
from repro.service.store import PersistentStore

#: The synthetic corpus scale of the two scale workloads (101 TUs).
SCALE = 10

#: The edit script, one pass per entry; whole cycles are replayed.  Three
#: body edits per cycle each pick a unit near the middle of a different
#: third of the cross-TU entry chain, so every cycle dirties a short, a
#: medium and a long slice of the condensation.  The other edits pick a
#: unit near the middle of the chain: what a pass costs depends on where
#: its unit sits, and every seed should measure the same mix.
EDIT_CYCLE = ("body", "noop", "append", "shift", "noop", "break", "fix",
              "body", "noop", "body")

#: Cycles generated per script (more than any run budget replays).
SCRIPT_CYCLES = 8

_LITERAL = re.compile(r"(?<![\w.])\d+(?![\w.])")

#: Steps of the reference loop, and its time at the reference host speed
#: (about its fastest on a 2-vCPU x86-64 VM under CPython 3.11).
REFERENCE_STEPS = 500_000
REFERENCE_S = 0.06

#: How much more than the loop the analyses slow down on a slow host: they
#: touch more memory, which neighbours on the host contend for.  Fitted on
#: the per-run medians of 43 runs: with 1.2 the run-to-run spread (IQR over
#: median) of the gated times fell from 0.06-0.12 (plain ratio) to
#: 0.04-0.08; 1.1 and 1.3 did about as well, 1.4 worse.
REFERENCE_EXPONENT = 1.2


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop of arithmetic and small-dict
    stores.  It runs no toolchain code, so only the host's speed moves it;
    op by op, the analyses' times follow it at 0.77-0.87 correlation."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(REFERENCE_STEPS):
        table[i & 255] = total
        total += i * i % 7
    return time.perf_counter() - start


def timed(fn):
    """``fn()``'s result, its wall time and its time at the reference speed."""
    before = reference_loop()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = reference_loop()
    speed = 2 * REFERENCE_S / (before + after)
    return result, elapsed, elapsed * speed ** REFERENCE_EXPONENT


class Recorder:
    """Times operations and counts the attempted and the failed ones.

    With a tracer whose wrappers are installed, each operation also opens
    an op span, and ``counters(result)`` adds what its report says.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: op kind -> wall seconds, for operations run without tracing.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: op kind -> seconds at the reference host speed, likewise.
        self.scaled: dict[str, list[float]] = defaultdict(list)
        #: the same two for operations run with the tracer installed.
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self.traced_scaled: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._current_failed = False

    def run(self, kind: str, fn, counters=None):
        """Run and time one operation ``fn()``; return its result."""
        self.attempted += 1
        self._current_failed = False
        # Start every operation from a collected heap: garbage the previous
        # one left behind is not this operation's cost.
        gc.collect()
        traced = self.tracer is not None and self.tracer.installed
        context = self.tracer.op(kind) if traced else nullcontext()

        def call():
            with context:
                return fn()

        result, elapsed, scaled = timed(call)
        (self.traced_samples if traced else self.samples)[kind].append(elapsed)
        (self.traced_scaled if traced else self.scaled)[kind].append(scaled)
        if traced and counters is not None:
            self.tracer.ops[-1].counters.update(counters(result))
        return result

    def check(self, label: str, problems: list[str]) -> None:
        """Fail the last operation if its output check found problems."""
        if not problems:
            return
        self.failures.extend(f"{label}: {problem}" for problem in problems)
        if not self._current_failed:
            self.failed += 1
            self._current_failed = True

    def crashed(self, label: str) -> None:
        """Fail the last operation: it raised (the current exception)."""
        self.check(label, [traceback.format_exc()])


@dataclass
class RunContext:
    seconds: float
    jobs: int
    workdir: Path
    recorder: Recorder
    #: Floors for the seed corpus's Deputy discharges (BENCH_engine.json).
    baselines: dict


# -- inputs -------------------------------------------------------------------


def corpus_hash(files) -> str:
    digest = hashlib.sha256()
    for corpus_file in files:
        digest.update(f"{corpus_file.filename}\0{corpus_file.source}\0".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Edit:
    """One pass of the edit script, applied to synth unit ``unit``."""

    kind: str
    unit: int = -1
    function: str = ""
    pick: int = 0
    delta: int = 0


def _chain_functions(source: str, prefix: str) -> list[str]:
    """The unit's functions on the cross-TU entry chain: its work function
    and the leaves that work calls (the even-numbered ones)."""
    leaves = len(re.findall(rf"^int {prefix}_leaf\d+\(", source, re.M))
    return [f"{prefix}_work"] + [f"{prefix}_leaf{i}" for i in range(0, leaves, 2)]


def make_edit_script(files, seed: int, cycles: int = SCRIPT_CYCLES) -> list[Edit]:
    """A deterministic edit script over the synthetic corpus ``files``."""
    rng = random.Random(f"perfbench-edits:{seed}")
    units = len(files) - 1          # files[0] is synth_core.c, never edited
    # The middle fifth (at least one unit) of each third of the chain.
    bands = []
    for third in range(3):
        low = units * (5 * third + 2) // 15
        bands.append((low, max(low + 1, units * (5 * third + 3) // 15)))
    script: list[Edit] = []
    for _ in range(cycles):
        order = rng.sample(range(3), 3)
        bodies = 0
        broken = -1
        for kind in EDIT_CYCLE:
            if kind == "noop":
                script.append(Edit("noop"))
            elif kind == "body":
                low, high = bands[order[bodies]]
                bodies += 1
                unit = rng.randrange(low, high)
                functions = _chain_functions(files[unit + 1].source, f"s{unit:03d}")
                script.append(Edit("body", unit, rng.choice(functions),
                                   rng.randrange(64), rng.randrange(1, 6)))
            elif kind == "fix":
                script.append(Edit("fix", broken))
            else:
                unit = rng.randrange(*bands[1])
                broken = unit if kind == "break" else broken
                script.append(Edit(kind, unit, "", rng.randrange(64),
                                   rng.randrange(1, 50)))
    return script


def script_hash(script: list[Edit]) -> str:
    return hashlib.sha256(json.dumps([asdict(edit) for edit in script])
                          .encode()).hexdigest()


def _bump_literal(source: str, function: str, pick: int, delta: int) -> str:
    start = source.index(f"int {function}(")
    body = source.index("{", start)
    end = source.index("\n}\n", body)
    literals = list(_LITERAL.finditer(source, body, end))
    match = literals[pick % len(literals)]
    return (source[:match.start()] + str(int(match.group()) + delta)
            + source[match.end():])


class EditReplay:
    """The evolving corpus: applies script edits one at a time."""

    def __init__(self, files) -> None:
        self.files = list(files)
        self._before_break: dict[int, str] = {}
        self._appended: dict[int, int] = defaultdict(int)

    def apply(self, edit: Edit) -> tuple[CorpusFile, ...]:
        if edit.kind == "noop":
            return tuple(self.files)
        index = edit.unit + 1
        prefix = f"s{edit.unit:03d}"
        source = self.files[index].source
        if edit.kind == "body":
            source = _bump_literal(source, edit.function, edit.pick, edit.delta)
        elif edit.kind == "append":
            name = f"{prefix}_extra{self._appended[edit.unit]}"
            self._appended[edit.unit] += 1
            source += (f"\nint {name}(int v)\n{{\n"
                       f"    if (v > {edit.delta}) {{\n"
                       f"        return v - {edit.delta};\n    }}\n"
                       f"    return v + {edit.pick};\n}}\n")
        elif edit.kind == "shift":
            lead = "\n" if edit.pick % 2 else f"/* moved {edit.delta} */\n"
            source = lead + source
        elif edit.kind == "break":
            self._before_break[edit.unit] = source
            source += f"\nint {prefix}_broken(int v\n"
        elif edit.kind == "fix":
            source = self._before_break.pop(edit.unit)
        else:
            raise ValueError(f"unknown edit kind {edit.kind!r}")
        self.files[index] = replace(self.files[index], source=source)
        return tuple(self.files)


def build_inputs(workload: str, seed: int) -> dict:
    """Everything a workload derives from its seed, with content hashes."""
    files = KERNEL_FILES if workload == "seed_batch" else generate_corpus(SCALE, seed)
    inputs = {"files": files, "corpus_sha256": corpus_hash(files)}
    if workload == "scale_edits":
        script = make_edit_script(files, seed)
        inputs["script"] = script
        inputs["edit_script_sha256"] = script_hash(script)
    return inputs


# -- known answers ----------------------------------------------------------------


def findings_json(report) -> str:
    return json.dumps(report.all_findings(), sort_keys=True)


def identity_problems(expected, actual, label: str) -> list[str]:
    if findings_json(expected) == findings_json(actual):
        return []
    return [f"{label} findings differ from the reference run"]


def seed_verdict_problems(report, baselines: dict,
                          seeded=ALL_SEEDED_CALLERS,
                          pruned=CONST_PRUNED_CALLERS) -> list[str]:
    """BlockStop reports every seeded caller and no constant-pruned one;
    Deputy discharges at least the checked-in floors."""
    problems = []
    callers = {finding["function"]
               for finding in report.analyses["blockstop"].findings}
    missing = sorted(set(seeded) - callers)
    if missing:
        problems.append(f"blockstop missed seeded callers {missing}")
    spurious = sorted(set(pruned) & callers)
    if spurious:
        problems.append(f"blockstop reported constant-pruned callers {spurious}")
    deputy = report.analyses["deputy"].metrics
    floor = baselines["deputy_discharge_baseline"]
    if deputy["obligations_static"] < floor:
        problems.append(f"deputy discharged {deputy['obligations_static']} "
                        f"checks, below the floor {floor}")
    floor = baselines["deputy_relational_baseline"]
    if deputy["checks_relational"] < floor:
        problems.append(f"deputy discharged {deputy['checks_relational']} "
                        f"checks relationally, below the floor {floor}")
    return problems


def fill_twin_problems(deputy_payloads: list[dict], units: int) -> list[str]:
    """Every ``sNNN_fill_off`` keeps its run-time check; every ``sNNN_fill``
    and ``sNNN_fill_limit`` discharges statically."""
    counts = {name: info["counts"] for payload in deputy_payloads
              for name, info in payload["functions"].items()}
    problems = []
    for unit in range(units):
        prefix = f"s{unit:03d}"
        off = counts.get(f"{prefix}_fill_off")
        if off is None or off["runtime"] < 1:
            problems.append(f"{prefix}_fill_off lost its run-time check")
        for name in (f"{prefix}_fill", f"{prefix}_fill_limit"):
            got = counts.get(name)
            if got is None or got["runtime"] != 0 or got["static"] < 1:
                problems.append(f"{name} did not discharge")
    return problems


def break_fix_problems(report, filename: str, broken: bool) -> list[str]:
    """A break pass yields exactly one diagnostics finding, for the broken
    unit; the fix pass clears it."""
    diagnostics = report.analyses.get("diagnostics")
    findings = diagnostics.findings if diagnostics is not None else []
    if not broken:
        return [f"diagnostics remain after the fix: {findings}"] if findings else []
    ours = [f for f in findings if f["message"].startswith(f"{filename} skipped:")]
    if len(findings) != 1 or len(ours) != 1:
        return [f"expected one diagnostics finding for {filename}, got {findings}"]
    return []


# -- report counters for traced ops ------------------------------------------------


def _report_counters(report) -> dict:
    stats = report.summary_stats
    deputy = report.analyses["deputy"].metrics
    counters = {
        "facts.infeasible_edges": sum(stats.get(f"{domain}_infeasible_edges", 0)
                                      for domain in ("consts", "intervals", "octagons")),
        "deputy.checks_total": deputy["obligations_total"],
        "deputy.checks_discharged": deputy["obligations_static"],
        "deputy.checks_relational": deputy["checks_relational"],
        "cache.disk_hits": report.cache_stats.get("disk_hits", 0),
    }
    for phase, seconds in report.perf.get("phases", {}).items():
        counters[f"phase.{phase}"] = seconds
    scheduler = report.perf.get("scheduler", {})
    for key in ("worker_idle_ratio", "tasks"):
        if key in scheduler:
            counters[f"scheduler.{key}"] = scheduler[key]
    parse = report.perf.get("parse", {})
    for key in ("adopted", "fallbacks"):
        if key in parse:
            counters[f"parse.{key}"] = parse[key]
    return counters


def _incremental_counters(analyzer, report) -> dict:
    stats = analyzer.last_stats
    counters = _report_counters(report)
    reused = stats.consts_reused + stats.sccs_reused + stats.shards_reused
    redone = stats.consts_solved + stats.dirty_sccs + stats.shards_rerun
    counters.update({
        "inc.parsed_units": stats.parsed_units,
        "inc.consts_solved": stats.consts_solved,
        "inc.dirty_sccs": stats.dirty_sccs,
        "inc.sccs_reused": stats.sccs_reused,
        "inc.shards_rerun": stats.shards_rerun,
        "inc.reuse_ratio": reused / (reused + redone) if reused + redone else 0.0,
    })
    return counters


def domain_costs(program) -> dict[str, float]:
    """Marginal cost of each abstract domain in the facts product."""
    seconds = []
    for domains in (("consts",), ("consts", "intervals"),
                    ("consts", "intervals", "octagons")):
        start = time.perf_counter()
        solve_program_facts(program, domains=domains)
        seconds.append(time.perf_counter() - start)
    return {"facts.consts_s": seconds[0],
            "facts.intervals_s": seconds[1] - seconds[0],
            "facts.octagons_s": seconds[2] - seconds[1]}


# -- the workloads ------------------------------------------------------------------


def _another_round(started: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, at the mean round time so far, fits."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def _toggle_tracing(recorder: Recorder, on: bool) -> None:
    if recorder.tracer is not None:
        recorder.tracer.install() if on else recorder.tracer.uninstall()


def _capture_shards(engine: AnalysisEngine, name: str) -> list[dict]:
    """Keep the payloads of one adapter's shards (the serial run's output)."""
    adapter = engine.registry[name]
    run_shard = adapter.run_shard
    payloads: list[dict] = []

    def capture(artifacts, functions):
        payload = run_shard(artifacts, functions)
        payloads.append(payload)
        return payload

    adapter.run_shard = capture
    return payloads


def run_batch(ctx: RunContext, files, workload: str) -> None:
    """``seed_batch`` / ``scale_batch``: timed rounds of the serial
    analysis, then one parallel and one warm analysis."""
    rec = ctx.recorder
    tracing = rec.tracer is not None
    cache_dir = ctx.workdir / "cache"
    started = time.perf_counter()
    rounds = 0

    def serial():
        engine = AnalysisEngine(files=files, cache_dir=str(cache_dir))
        payloads = _capture_shards(engine, "deputy")
        return engine, engine.run(), payloads

    while True:
        # A traced run alternates untraced and traced rounds: the
        # difference on identical work is the tracing overhead.
        _toggle_tracing(rec, tracing and rounds % 2 == 1)
        shutil.rmtree(cache_dir, ignore_errors=True)
        engine, reference, payloads = rec.run(
            "serial", serial, counters=lambda out: _report_counters(out[1]))
        if workload == "seed_batch":
            rec.check("seed verdicts", seed_verdict_problems(reference, ctx.baselines))
        else:
            rec.check("fill twins", fill_twin_problems(payloads, len(files) - 1))
        if rec.tracer is not None and rec.tracer.installed and not rec.tracer.extras:
            rec.tracer.extras.update(domain_costs(engine.program()))
        del engine
        rounds += 1
        if tracing and rounds < 2:
            continue
        if not _another_round(started, rounds, ctx.seconds):
            break
    _toggle_tracing(rec, tracing)
    parallel = rec.run(
        "parallel", lambda: AnalysisEngine(files=files).run(jobs=ctx.jobs),
        counters=_report_counters)
    rec.check("parallel", identity_problems(reference, parallel, "parallel"))
    warm = rec.run(
        "warm", lambda: AnalysisEngine(files=files, cache_dir=str(cache_dir)).run(),
        counters=_report_counters)
    rec.check("warm", identity_problems(reference, warm, "warm"))
    _toggle_tracing(rec, False)


def run_edits(ctx: RunContext, files, script: list[Edit]) -> None:
    """``scale_edits``: a cold pass (set-up), the script replayed in whole
    cycles, then the final findings checked against a restarted analyzer
    and a cold engine."""
    rec = ctx.recorder
    tracing = rec.tracer is not None
    _toggle_tracing(rec, tracing)
    store = PersistentStore(ctx.workdir / "store")
    analyzer = IncrementalAnalyzer(files=files, store=store)
    report = rec.run("cold", analyzer.analyze,
                     counters=lambda out: _incremental_counters(analyzer, out))
    replay = EditReplay(files)
    started = time.perf_counter()
    cycles = 0
    for cycle_start in range(0, len(script), len(EDIT_CYCLE)):
        _toggle_tracing(rec, tracing and cycles % 2 == 1)
        for edit in script[cycle_start:cycle_start + len(EDIT_CYCLE)]:
            current = replay.apply(edit)
            kind = "noop" if edit.kind == "noop" else "pass"
            report = rec.run(kind, lambda: analyzer.analyze(current),
                             counters=lambda out: _incremental_counters(analyzer, out))
            if edit.kind in ("break", "fix"):
                filename = current[edit.unit + 1].filename
                rec.check(f"{edit.kind} pass",
                          break_fix_problems(report, filename, edit.kind == "break"))
        cycles += 1
        if tracing and cycles < 2:
            continue
        if not _another_round(started, cycles, ctx.seconds):
            break
    final = tuple(replay.files)
    # A restart is a new process: the old analyzer's memory is gone.
    del analyzer
    store.close()

    restarted_store = PersistentStore(ctx.workdir / "store")
    try:
        def restart():
            fresh = IncrementalAnalyzer(files=final, store=restarted_store)
            return fresh, fresh.analyze()

        fresh, restarted = rec.run(
            "restart", restart,
            counters=lambda out: _incremental_counters(out[0], out[1]))
        problems = identity_problems(report, restarted, "restart")
        if fresh.last_stats.dirty_sccs:
            problems.append(f"restart re-solved {fresh.last_stats.dirty_sccs} SCCs")
        rec.check("restart", problems)
    finally:
        restarted_store.close()
    _toggle_tracing(rec, False)
    cold = rec.run("verify", lambda: AnalysisEngine(files=final).run(jobs=ctx.jobs))
    rec.check("incremental vs cold", identity_problems(cold, report, "incremental"))
