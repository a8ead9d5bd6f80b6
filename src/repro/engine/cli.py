"""Command-line interface for the unified analysis engine.

Usage (also installed as the ``repro-engine`` console script)::

    python -m repro.engine run --analyses deputy,blockstop --jobs 4
    python -m repro.engine run --analyses all --cache-dir .engine-cache \
        --format json --output report.json
    python -m repro.engine report report.json --format text
    python -m repro.engine callgraph --witnesses
    python -m repro.engine cfg kernel/watchdog.c --function stats_sample_fast
    python -m repro.engine export-corpus ./corpus
    python -m repro.engine gen-corpus ./scale-corpus --scale 10
    python -m repro.engine serve --corpus-dir ./corpus --port 8571
    python -m repro.engine list
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..blockstop.pointsto import Precision
from ..dataflow.cfg import build_cfg
from ..dataflow.domains import FunctionFacts, facts_of
from ..kernel.build import parse_corpus
from ..kernel.corpus import ALL_FILES, KERNEL_FILES, CorpusFile
from ..minic import ast_nodes as ast
from ..minic.pretty import render_expression
from .analyses import ANALYSIS_ORDER, blocking_witness, summary_payload
from .core import AnalysisEngine, EngineReport


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-engine",
        description="Run the paper's analyses over the kernel corpus with "
                    "shared parse/call-graph/points-to artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="analyze the corpus in one batched pass")
    run.add_argument("--analyses", default="all",
                     help="comma-separated analyses, or 'all' (default). "
                          f"Known: {', '.join(ANALYSIS_ORDER)}")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes; >1 forks one work-stealing "
                          "pool, clamped to the usable CPUs (but at least "
                          "2), for per-unit facts and checker shards, "
                          "while the parse and the summaries run in this "
                          "process; 0 means every CPU this process may run "
                          "on; without fork the run is serial")
    run.add_argument("--cache-dir", default=None,
                     help="directory for the on-disk artifact store "
                          "(store.sqlite, with the rows serve --store-dir "
                          "reads and writes; one directory serves both)")
    run.add_argument("--precision", default="type_based",
                     choices=[p.name.lower() for p in Precision],
                     help="function-pointer points-to precision")
    run.add_argument("--format", default="text", choices=("text", "json"),
                     help="report format printed to stdout")
    run.add_argument("--output", default=None,
                     help="also write the JSON report to this file")
    run.add_argument("--include-user", action="store_true",
                     help="analyze user-level corpus files too, not just the kernel")
    run.add_argument("--fail-on-findings", action="store_true",
                     help="exit non-zero if any analysis reports findings "
                          "(for gating CI jobs; the smoke job omits it)")
    run.add_argument("--bench-json", default=None,
                     help="append {wall time, cache stats, summary stats} to "
                          "this JSON file (one entry per run; the CI smoke "
                          "step tracks the perf trajectory with it)")
    run.add_argument("--bench-tag", default=None,
                     help="label for the --bench-json entry (e.g. 'scale'); "
                          "untagged entries are treated as seed-corpus runs "
                          "by the discharge-baseline gate")
    run.add_argument("--bench-incremental", action="store_true",
                     help="also benchmark the incremental analyzer (cold "
                          "pass, then touch one TU and re-analyze); the "
                          "result lands in the --bench-json entry")
    run.add_argument("--cache-max-mb", type=float, default=None,
                     help="LRU-evict the on-disk artifact store beyond "
                          "this size; 0 means no bound (requires "
                          "--cache-dir)")
    run.add_argument("--corpus-dir", default=None,
                     help="analyze a corpus tree exported by 'export-corpus' "
                          "instead of the embedded sources")

    report = sub.add_parser("report", help="re-render a saved JSON report")
    report.add_argument("input", help="path to a report written by 'run --output'")
    report.add_argument("--format", default="text", choices=("text", "json"))

    callgraph = sub.add_parser(
        "callgraph",
        help="print the SCC condensation, per-function summaries, and a "
             "witness call chain for every may-block function")
    callgraph.add_argument("--precision", default="type_based",
                           choices=[p.name.lower() for p in Precision],
                           help="function-pointer points-to precision")
    callgraph.add_argument("--include-user", action="store_true",
                           help="include user-level corpus files")
    callgraph.add_argument("--cache-dir", default=None,
                           help="directory for the on-disk artifact store "
                                "(as for run --cache-dir)")
    callgraph.add_argument("--format", default="text", choices=("text", "json"))
    callgraph.add_argument("--function", default=None,
                           help="restrict the summary/witness listing to one "
                                "function")

    cfg = sub.add_parser(
        "cfg",
        help="dump a translation unit's control-flow graphs: basic blocks, "
             "edge labels, per-edge condition facts, and infeasible-edge "
             "marks from the constant-propagation lattice")
    cfg.add_argument("file",
                     help="a corpus translation unit (e.g. kernel/watchdog.c) "
                          "or a MiniC source file on disk")
    cfg.add_argument("--function", default=None,
                     help="restrict the dump to one function")
    cfg.add_argument("--format", default="text", choices=("text", "json"))

    export = sub.add_parser(
        "export-corpus",
        help="write the embedded corpus to a directory tree (plus a "
             "MANIFEST.json recording link order) for 'serve' to watch")
    export.add_argument("directory", help="target directory")
    export.add_argument("--include-user", action="store_true",
                        help="export user-level corpus files too")

    gen = sub.add_parser(
        "gen-corpus",
        help="generate a synthetic kernel-shaped corpus at --scale N "
             "(~N× the embedded corpus); ingest is resumable — files whose "
             "content hash already matches MANIFEST.json are skipped")
    gen.add_argument("directory", help="target directory")
    gen.add_argument("--scale", type=int, default=10,
                     help="corpus size multiplier (default 10 ≈ 100 TUs / "
                          "~2k functions)")
    gen.add_argument("--seed", type=int, default=0,
                     help="generator seed (same seed ⇒ same corpus)")

    serve = sub.add_parser(
        "serve",
        help="run the always-on analysis service: a file watcher drives "
             "incremental re-analysis, in this one process, behind an "
             "HTTP JSON API")
    serve.add_argument("--corpus-dir", default=None,
                       help="corpus tree to watch (from 'export-corpus'); "
                            "without it the embedded corpus is served and "
                            "only POST /analyze re-analyzes")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8571,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--precision", default="type_based",
                       choices=[p.name.lower() for p in Precision])
    serve.add_argument("--poll-seconds", type=float, default=0.5,
                       help="corpus poll interval")
    serve.add_argument("--store-dir", default=None,
                       help="directory for the persistent warm-start store; "
                            "a restarted serve over an unchanged corpus "
                            "re-solves ~0 SCCs from it")
    serve.add_argument("--store-max-mb", type=float, default=None,
                       help="LRU-evict the warm-start store beyond this "
                            "size (requires --store-dir)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    sub.add_parser("list", help="list the registered analyses")
    return parser


def _run_files(args: argparse.Namespace) -> "tuple[CorpusFile, ...]":
    if getattr(args, "corpus_dir", None):
        from ..service.watcher import load_corpus_dir

        return load_corpus_dir(args.corpus_dir)
    return ALL_FILES if args.include_user else KERNEL_FILES


def _cmd_run(args: argparse.Namespace) -> int:
    files = _run_files(args)
    precision = Precision[args.precision.upper()]
    engine = AnalysisEngine(
        files=files,
        precision=precision,
        cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb,
        tolerant=True)
    try:
        names = engine.resolve_analyses(args.analyses)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    report = engine.run(analyses=names, jobs=args.jobs)
    incremental = (_bench_incremental(files, precision)
                   if args.bench_incremental else None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if args.bench_json:
        _append_bench_entry(args.bench_json, report, incremental=incremental,
                            tag=args.bench_tag)
    print(report.to_json() if args.format == "json" else report.render_text())
    if args.fail_on_findings and report.finding_count:
        return 1
    return 0


def _bench_incremental(files: "tuple[CorpusFile, ...]",
                       precision: Precision) -> dict:
    """Time the incremental analyzer: cold pass, one-TU touch, warm restart.

    The touch appends a fresh no-op function to the last translation unit —
    a body-level edit that must dirty exactly one SCC (the new singleton)
    and re-parse exactly one unit; the entry records how far the pass
    actually was from that ideal alongside its wall time.

    The warm-restart leg simulates killing and restarting ``serve`` over an
    unchanged corpus: a *fresh* analyzer pointed at the persistent store the
    cold pass filled must re-solve 0 consts/SCCs/shards.
    """
    import dataclasses
    import tempfile
    import time

    from ..service.incremental import IncrementalAnalyzer
    from ..service.store import PersistentStore

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = PersistentStore(tmp)
        analyzer = IncrementalAnalyzer(files=files, precision=precision,
                                       store=store)
        start = time.perf_counter()
        analyzer.analyze()
        cold_seconds = time.perf_counter() - start
        touched = dataclasses.replace(
            files[-1],
            source=files[-1].source
            + "\nint __bench_touch(void) { return 0; }\n")
        start = time.perf_counter()
        analyzer.analyze(files[:-1] + (touched,))
        touch_seconds = time.perf_counter() - start
        stats = analyzer.last_stats

        restarted = IncrementalAnalyzer(files=files, precision=precision,
                                        store=store)
        start = time.perf_counter()
        restarted.analyze()
        warm_seconds = time.perf_counter() - start
        warm = restarted.last_stats
        store.close()
    return {
        "cold_seconds": round(cold_seconds, 4),
        "touch_seconds": round(touch_seconds, 4),
        "parsed_units": stats.parsed_units,
        "dirty_sccs": stats.dirty_sccs,
        "sccs_reused": stats.sccs_reused,
        "shards_rerun": stats.shards_rerun,
        "full_reparse": stats.full_reparse,
        "warm_restart": {
            "seconds": round(warm_seconds, 4),
            "consts_solved": warm.consts_solved,
            "dirty_sccs": warm.dirty_sccs,
            "shards_rerun": warm.shards_rerun,
            "store_hits": warm.store_hits,
        },
    }


def _append_bench_entry(path: str, report: EngineReport,
                        incremental: dict | None = None,
                        tag: str | None = None) -> None:
    """Append one run's perf entry to the benchmark-trajectory JSON file."""
    entries: list[dict] = []
    baseline = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        entries = list(payload.get("runs", []))
        baseline = payload.get("deputy_discharge_baseline")
        relational_baseline = payload.get("deputy_relational_baseline")
    except (OSError, json.JSONDecodeError):
        relational_baseline = None
    entry = {
        "elapsed_seconds": round(report.elapsed_seconds, 4),
        "jobs": report.jobs,
        "parallel": report.parallel,
        "corpus_files": len(report.corpus_files),
        "finding_count": report.finding_count,
        "cache_stats": report.cache_stats,
        "summary_stats": report.summary_stats,
    }
    if tag is not None:
        entry["tag"] = tag
    if report.perf:
        entry["perf"] = report.perf
        scheduler = report.perf.get("scheduler", {})
        if "worker_idle_ratio" in scheduler:
            entry["worker_idle_ratio"] = scheduler["worker_idle_ratio"]
    deputy = report.analyses.get("deputy")
    if deputy is not None:
        entry["deputy_checks_discharged"] = deputy.metrics.get(
            "obligations_static", 0)
        entry["deputy_checks_total"] = deputy.metrics.get(
            "obligations_total", 0)
        entry["deputy_checks_interval"] = deputy.metrics.get(
            "checks_interval", 0)
        entry["deputy_checks_relational"] = deputy.metrics.get(
            "checks_relational", 0)
    if incremental is not None:
        entry["incremental"] = incremental
    entries.append(entry)
    hits = sum(1 for entry in entries
               if entry.get("summary_stats", {}).get("cache_hit"))
    payload = {
        "schema": "repro-engine-bench/1",
        "runs": entries,
        "summary_cache_hit_rate": round(hits / len(entries), 4),
    }
    # The discharge baselines are checked-in floors maintained by
    # scripts/check_discharge_baseline.py; appending runs must not drop them.
    if baseline is not None:
        payload["deputy_discharge_baseline"] = baseline
    if relational_baseline is not None:
        payload["deputy_relational_baseline"] = relational_baseline
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read report {args.input!r}: {error}", file=sys.stderr)
        return 2
    report = EngineReport.from_dict(payload)
    print(report.to_json() if args.format == "json" else report.render_text())
    return 0


def _cmd_callgraph(args: argparse.Namespace) -> int:
    engine = AnalysisEngine(
        files=ALL_FILES if args.include_user else KERNEL_FILES,
        precision=Precision[args.precision.upper()],
        cache_dir=args.cache_dir)
    artifacts = engine.artifacts()
    condensation = artifacts.condensation
    names = sorted(artifacts.summaries)
    if args.function is not None:
        if args.function not in artifacts.summaries:
            print(f"error: unknown function {args.function!r}", file=sys.stderr)
            return 2
        names = [args.function]

    if args.format == "json":
        payload = {
            "schema": "repro-engine-callgraph/1",
            "functions": len(artifacts.summaries),
            "sccs": [list(scc) for scc in condensation.sccs],
            "waves": [[list(condensation.sccs[i]) for i in wave]
                      for wave in condensation.waves],
            "recursive": sorted(condensation.recursive_functions()),
            "summaries": {name: summary_payload(artifacts, name)
                          for name in names},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    lines = ["== call-graph condensation =="]
    lines.append(f"{len(artifacts.summaries)} functions in "
                 f"{len(condensation.sccs)} SCCs over "
                 f"{len(condensation.waves)} bottom-up waves")
    recursive = sorted(condensation.recursive_functions())
    if recursive:
        lines.append(f"recursive: {', '.join(recursive)}")
        for scc in condensation.sccs:
            if len(scc) > 1:
                lines.append(f"  cycle: {' <-> '.join(scc)}")
    lines.append("")
    lines.append("-- function summaries --")
    for name in names:
        summary = artifacts.summaries[name]
        if not summary.defined:
            continue
        lines.append(f"  {name}: {summary.describe()}")
    lines.append("")
    lines.append("-- may-block witnesses --")
    for name in names:
        summary = artifacts.summaries[name]
        if not (summary.defined and summary.may_block):
            continue
        lines.append(f"  {name}: {' -> '.join(blocking_witness(artifacts, name))}")
    print("\n".join(lines))
    return 0


def _resolve_cfg_unit(spec: str) -> "tuple[object, list[str]] | None":
    """Resolve the ``cfg`` subcommand's file argument to (program, names).

    A corpus filename parses the whole corpus (kernel files reference each
    other's types); an on-disk path parses standalone.
    """
    corpus = {f.filename: f for f in ALL_FILES}
    if spec in corpus:
        files = KERNEL_FILES if corpus[spec].kernel else ALL_FILES
        program = AnalysisEngine(files=files).program()
        names = [decl.name for unit in program.units
                 if unit.filename == spec
                 for decl in unit.decls if isinstance(decl, ast.FuncDef)]
        return program, names
    path = Path(spec)
    if not path.is_file():
        return None
    program = parse_corpus((CorpusFile(spec, path.read_text()),))
    return program, list(program.functions)


def _render_octagon_row(row: tuple) -> str:
    """``((x, sx), (y, sy), c)`` as the constraint ``±x ∓ y <= c``."""
    (x, sx), (y, sy), c = row
    first = f"-{x}" if sx < 0 else x
    second = f"+ {y}" if sy < 0 else f"- {y}"
    return f"{first} {second} <= {c}"


def _edge_pruned_by(consts: "FunctionFacts | None",
                    key: tuple[int, int]) -> "str | None":
    """Which domain proved an infeasible edge dead (registry order)."""
    if consts is None or key not in consts.infeasible:
        return None
    if key in getattr(consts, "interval_pruned", frozenset()):
        return "intervals"
    if key in getattr(consts, "octagon_pruned", frozenset()):
        return "octagons"
    return "consts"


def _cfg_payload(func: ast.FuncDef,
                 consts: "FunctionFacts | None") -> dict:
    """One function's CFG + refinement facts, in a render-friendly shape."""
    cfg = build_cfg(func)
    in_envs = dict(consts.in_envs) if consts is not None else {}
    interval_envs = dict(consts.interval_envs) if consts is not None else {}
    octagon_envs = (dict(getattr(consts, "octagon_envs", None) or {})
                    if consts is not None else {})
    edge_facts = dict(consts.edge_facts) if consts is not None else {}
    octagon_edge_facts = (dict(getattr(consts, "octagon_edge_facts", None)
                               or {}) if consts is not None else {})
    infeasible = consts.infeasible if consts is not None else frozenset()
    reachable = (consts.reachable if consts is not None
                 else cfg.reachable())
    blocks = []
    for block in cfg.blocks:
        tags = []
        if block.index == cfg.entry:
            tags.append("entry")
        if block.index == cfg.exit:
            tags.append("exit")
        if block.index not in reachable:
            tags.append("unreachable")
        blocks.append({
            "index": block.index,
            "tags": tags,
            "consts": dict(in_envs.get(block.index, ())),
            "intervals": {
                name: list(bounds)
                for name, bounds in interval_envs.get(block.index, ())},
            "octagons": [_render_octagon_row(row)
                         for row in octagon_envs.get(block.index, ())],
            "elements": [
                {"kind": element.kind,
                 "expr": (render_expression(element.expr)
                          if element.expr is not None else None)}
                for element in block.elements],
            "edges": [
                {"target": edge.target,
                 "label": edge.label,
                 "facts": dict(edge_facts.get((block.index, pos), ())),
                 "relations": [
                     _render_octagon_row(row) for row in
                     octagon_edge_facts.get((block.index, pos), ())],
                 "infeasible": (block.index, pos) in infeasible,
                 "pruned_by": _edge_pruned_by(consts, (block.index, pos))}
                for pos, edge in enumerate(block.succs)],
        })
    return {"function": func.name, "entry": cfg.entry, "exit": cfg.exit,
            "blocks": blocks}


def _render_cfg_text(payload: dict) -> list[str]:
    lines = [f"-- {payload['function']} "
             f"(entry {payload['entry']}, exit {payload['exit']}) --"]
    for block in payload["blocks"]:
        tag = f" [{', '.join(block['tags'])}]" if block["tags"] else ""
        lines.append(f"block {block['index']}{tag}")
        if block["consts"]:
            facts = ", ".join(f"{name}={value}"
                              for name, value in sorted(block["consts"].items()))
            lines.append(f"    consts: {facts}")
        if block.get("intervals"):
            def bound(value, infinity):
                return infinity if value is None else str(value)
            facts = ", ".join(
                f"{name}=[{bound(lo, '-inf')}, {bound(hi, '+inf')}]"
                for name, (lo, hi) in sorted(block["intervals"].items()))
            lines.append(f"    intervals: {facts}")
        if block.get("octagons"):
            lines.append(f"    octagons: {'; '.join(block['octagons'])}")
        for element in block["elements"]:
            rendered = element["expr"] if element["expr"] is not None else "(void)"
            lines.append(f"    {element['kind']}: {rendered}")
        for edge in block["edges"]:
            label = f" [{edge['label']}]" if edge["label"] else ""
            facts = ""
            if edge["facts"]:
                facts = " {" + ", ".join(
                    f"{name}={value}"
                    for name, value in sorted(edge["facts"].items())) + "}"
            if edge.get("relations"):
                facts += " <" + "; ".join(edge["relations"]) + ">"
            mark = (f"  INFEASIBLE (by {edge['pruned_by']})"
                    if edge["infeasible"] else "")
            lines.append(f"    -> {edge['target']}{label}{facts}{mark}")
    return lines


def _cmd_cfg(args: argparse.Namespace) -> int:
    resolved = _resolve_cfg_unit(args.file)
    if resolved is None:
        print(f"error: {args.file!r} is neither a corpus translation unit "
              "nor a readable file", file=sys.stderr)
        return 2
    program, names = resolved
    if args.function is not None:
        if args.function not in names:
            known = ", ".join(names)
            print(f"error: unknown function {args.function!r} in "
                  f"{args.file} (known: {known})", file=sys.stderr)
            return 2
        names = [args.function]

    payloads = []
    for name in names:
        func = program.functions.get(name)
        if func is None:
            continue
        payloads.append(_cfg_payload(func, facts_of(func)))

    if args.format == "json":
        print(json.dumps({"schema": "repro-engine-cfg/2", "file": args.file,
                          "functions": payloads}, indent=2, sort_keys=True))
        return 0
    lines = [f"== control-flow graphs: {args.file} =="]
    for payload in payloads:
        lines.append("")
        lines.extend(_render_cfg_text(payload))
    print("\n".join(lines))
    return 0


def _cmd_export_corpus(args: argparse.Namespace) -> int:
    from ..service.watcher import export_corpus

    files = ALL_FILES if args.include_user else KERNEL_FILES
    manifest = export_corpus(args.directory, files)
    print(f"exported {len(files)} corpus files to {args.directory} "
          f"({manifest.name} records link order)")
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    from ..kernel.synth import generate_corpus, write_corpus

    try:
        files = generate_corpus(scale=args.scale, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = write_corpus(args.directory, files,
                         scale=args.scale, seed=args.seed)
    print(f"generated scale-{args.scale} corpus in {args.directory}: "
          f"{stats['total']} files "
          f"({stats['written']} written, {stats['skipped']} up to date)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service.daemon import serve

    serve(corpus_dir=args.corpus_dir, host=args.host, port=args.port,
          precision=Precision[args.precision.upper()],
          poll_seconds=args.poll_seconds, store_dir=args.store_dir,
          store_max_mb=args.store_max_mb, verbose=args.verbose)
    return 0


def _cmd_list() -> int:
    for name in ANALYSIS_ORDER:
        print(name)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "callgraph":
        return _cmd_callgraph(args)
    if args.command == "cfg":
        return _cmd_cfg(args)
    if args.command == "export-corpus":
        return _cmd_export_corpus(args)
    if args.command == "gen-corpus":
        return _cmd_gen_corpus(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
