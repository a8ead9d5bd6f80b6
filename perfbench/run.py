"""The repository benchmark: seeded workloads, known answers, layer tracing.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload scale_edits --seed 3 --seconds 20 --trace 0

or every gated workload in turn, untraced, with ``--workload all``.  Each run
prints its metrics by name, with unit and sample count, then as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  It appends the
full record (every sample, host metadata, input hashes, the workload's
detailed metrics) to ``.perfbench/results.jsonl`` (``--out`` to change),
and a traced run writes its spans to ``.perfbench/trace-<workload>-<seed>.json``.
``perfbench/compare.py`` compares two such files.  The exit code is 1 when
any operation failed its known-answer check, 2 when the toolchain sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: A seed no tuning run uses: confirm a claimed gain on it before landing.
HELD_OUT_SEED = 7919

#: Set-ups measured per run (fresh interpreters); ``setup_s`` is their median.
SETUP_PROBES = 5

#: The workloads ``BENCHMARK.json`` gates, and those run by hand only.
WORKLOADS = ("seed_batch", "scale_edits")
BY_HAND = ("scale_batch",)
BATCH = ("seed_batch", "scale_batch")

#: The gated metrics' specs (unit, better, bound) and the per-layer units.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload's detail metrics, kept in the results file next to the
#: gated ones: name -> (unit, better, bound).  Their times are wall times.
DETAILS = {
    "analyze_p50_s": ("s", "lower", 0.25),
    "analyze_p90_s": ("s", "lower", 0.25),
    "analyze_parallel_s": ("s", "lower", 0.25),
    "warm_s": ("s", "lower", 0.25),
    "pass_mean_ms": ("ms", "lower", 0.25),
    "pass_p50_ms": ("ms", "lower", 0.25),
    "pass_p90_ms": ("ms", "lower", 0.25),
    "noop_p50_ms": ("ms", "lower", 0.25),
    "restart_s": ("s", "lower", 0.25),
    "host_slowdown": ("ratio", "lower", 0.25),
    "failed_ratio": ("ratio", "lower", 0.0),
}


def metric_specs() -> dict[str, tuple[str, str, float]]:
    """Every end-to-end metric: name -> (unit, better, bound)."""
    gated = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in BENCHMARK["end_to_end"]}
    return {**gated, **DETAILS}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def workload_metrics(workload: str, samples: dict, scaled: dict,
                     setup: list[float], attempted: int,
                     failed: int) -> dict[str, tuple[float, int]]:
    """Every metric the workload reports: name -> (value, sample count).

    ``samples`` are wall times, ``scaled`` the same at the reference host
    speed; the gated times are scaled, the details wall times.
    """
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {"setup_s": (statistics.median(setup), len(setup)),
               "peak_rss_mb": (usage / 1024, 1),
               "failed_ratio": (failed / attempted, attempted)}

    def single(kind):
        return samples[kind][0], len(samples[kind])

    if workload in BATCH:
        main = "serial"
        serial = samples["serial"]
        metrics["verdict_s"] = (statistics.median(scaled["serial"]), len(serial))
        metrics["analyze_p50_s"] = (statistics.median(serial), len(serial))
        metrics["analyze_p90_s"] = (p90(serial), len(serial))
        metrics["analyze_parallel_s"] = single("parallel")
        metrics["warm_s"] = single("warm")
    else:
        main = "pass"
        passes, noops = samples["pass"], samples["noop"]
        every = scaled["pass"] + scaled["noop"]
        metrics["verdict_s"] = (statistics.fmean(every), len(every))
        metrics["pass_mean_ms"] = (statistics.fmean(passes) * 1000, len(passes))
        metrics["pass_p50_ms"] = (statistics.median(passes) * 1000, len(passes))
        metrics["pass_p90_ms"] = (p90(passes) * 1000, len(passes))
        metrics["noop_p50_ms"] = (statistics.median(noops) * 1000, len(noops))
        metrics["restart_s"] = single("restart")
    slowdown = [wall / at_reference
                for wall, at_reference in zip(samples[main], scaled[main])]
    metrics["host_slowdown"] = (statistics.median(slowdown), len(slowdown))
    return metrics


def host_info(jobs: int) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "jobs": jobs,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def git_sha() -> str | None:
    """HEAD's commit (None outside a git clone)."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_setup(workload: str, seed: int) -> list[float]:
    """Times, at the reference host speed, of fresh interpreters that
    import the toolchain and build the workload's inputs."""
    from workloads import timed

    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    return [timed(lambda: subprocess.run(command, cwd=ROOT, check=True,
                                         stdout=subprocess.DEVNULL))[2]
            for _ in range(SETUP_PROBES)]


def print_table(rows: list[tuple[str, float, str, int | None]]) -> None:
    for name, value, unit, count in rows:
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<32} {value:>14.6g} {unit:<6}{suffix}")


def run_workload(args) -> int:
    import workloads
    from tracing import Tracer, layer_metrics

    baselines = json.loads((ROOT / "BENCH_engine.json").read_text())
    setup = measure_setup(args.workload, args.seed)
    inputs = workloads.build_inputs(args.workload, args.seed)
    files = inputs["files"]
    jobs = min(2, len(os.sched_getaffinity(0)))
    tracer = Tracer() if args.trace else None
    recorder = workloads.Recorder(tracer)
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = workloads.RunContext(seconds=args.seconds, jobs=jobs,
                               workdir=workdir, recorder=recorder,
                               baselines=baselines)
    host = host_info(jobs)
    try:
        if args.workload in BATCH:
            workloads.run_batch(ctx, files, args.workload)
        else:
            workloads.run_edits(ctx, files, inputs["script"])
            # The cold pass is set-up: work moved into it shows in setup_s.
            cold = (recorder.scaled.get("cold") or recorder.traced_samples["cold"])[0]
            setup = [probe + cold for probe in setup]
    except Exception:
        recorder.crashed(args.workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = recorder.samples
    specs = metric_specs()
    metrics = {}
    if not recorder.failed:
        # A traced run times its traced-only ops (the edit workload's
        # restart) with the tracer on; untraced samples win where both exist.
        metrics = workload_metrics(args.workload,
                                   {**recorder.traced_samples, **samples},
                                   recorder.scaled, setup,
                                   recorder.attempted, recorder.failed)
    record = {
        "schema": "perfbench-result/1",
        "workload": args.workload, "seed": args.seed,
        "held_out": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "inputs": {key: value for key, value in inputs.items()
                   if key.endswith("sha256")},
        "samples": dict(samples),
        "scaled_samples": dict(recorder.scaled),
        "traced_samples": dict(recorder.traced_samples),
        "attempted": recorder.attempted, "failed": recorder.failed,
        "failures": recorder.failures,
        "metrics": {name: {"value": value, "unit": specs[name][0], "n": count}
                    for name, (value, count) in metrics.items()},
    }
    record["host"]["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} jobs={jobs} ==")
    for failure in recorder.failures:
        print(f"FAILED {failure}")
    print_table([(name, value, specs[name][0], count)
                 for name, (value, count) in metrics.items()])
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    gated = {name: metrics[name][0] for name in units if name in metrics}

    if tracer is not None:
        layers = layer_metrics(tracer)
        if samples and tracer.ops and not recorder.failed:
            kind = "serial" if args.workload in BATCH else "noop"
            # The process's first operation also pays one-off warm-up costs.
            untraced = statistics.median(samples[kind][1:] or samples[kind])
            traced = statistics.median(recorder.traced_samples[kind])
            layers["trace.overhead_s"] = traced - untraced
            layers["trace.overhead_ratio"] = traced / untraced - 1
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        record["layers"] = layers
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        print(f"-- per layer (traced; spans in {record['trace_file']}) --")
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        print_table([(name, value, units[name], None)
                     for name, value in layers.items()])
        gated = layers

    out = Path(args.out) if args.out else OUT_DIR / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in gated.items()},
    }))
    return 1 if recorder.failed else 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + BY_HAND + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file to append to "
                        "(default .perfbench/results.jsonl)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: toolchain sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        import workloads
        workloads.build_inputs(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
