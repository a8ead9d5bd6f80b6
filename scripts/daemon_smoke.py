#!/usr/bin/env python
"""CI smoke test for `repro-engine serve`.

Exports the embedded corpus to a temp directory, starts the service as a
real subprocess, and checks the full loop:

1. `/health` turns 200 within the startup budget;
2. `/findings` matches `repro-engine run` byte-for-byte;
3. an on-disk edit is picked up by the watcher and re-analyzed
   *incrementally* (no full re-parse, SCCs reused);
4. a body edit to `spin_lock_init`, which 9 other units call, leaves its
   summary unchanged, so it re-solves one SCC, hashes the shard keys of
   its own unit only (one per per-unit analysis), re-runs Deputy,
   BlockStop, errcheck and lockcheck there only (early cutoff) and
   stackcheck not at all, rebuilds neither the call graph, the points-to
   sets nor the condensation, and the served findings match
   `repro-engine run` over the edited corpus;
5. a local array added to `spin_lock_init` moves its summary (its stack
   frame), so every caller in the other units re-solves, and the served
   findings match `repro-engine run`;
6. a global appended to `lib/kernel_lib.c` moves no table a later unit
   parses against, so the pass re-parses that one unit (no full re-parse),
   and the served findings match `repro-engine run`;
7. a blank line prepended to `lib/kernel_lib.c` moves only locations,
   which the call graph does not hold: the pass rebuilds no corpus-wide
   artifact, re-solves no SCC and hashes no SCC key, hashes shard keys
   for that unit alone, and the served findings match `repro-engine run`;
8. a *restarted* serve over the unchanged corpus warm-starts from the
   persistent store: its first pass re-solves 0 SCCs and serves findings
   byte-identical to the pre-restart snapshot, and a `POST /analyze` with
   no edit then re-parses nothing, re-runs no shard, rebuilds no
   corpus-wide artifact (`last_pass.rebuilt_artifacts == []`), and hashes
   no shard key and merges no analysis: it carries the last pass whole;
9. a serve restarted after `spin_lock_init` was edited again while it was
   down, in a way that keeps its summary, re-solves that one SCC against
   components it reads back from the store, re-runs Deputy, errcheck and
   lockcheck in one unit, and serves findings equal to `repro-engine run`
   over the edited corpus.

Exit status 0 on success; any failure prints the reason and exits 1.
Run from a source checkout: `python scripts/daemon_smoke.py`.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

STARTUP_BUDGET_SECONDS = 120
EDIT_BUDGET_SECONDS = 60

#: The analyses sharded per translation unit: each keys one shard per unit.
PER_UNIT = ("deputy", "blockstop", "errcheck", "lockcheck", "ccount")

#: A corpus function definition: its header on one line, ``{`` on the next.
DEFINITION = re.compile(r"^\w[^\n;]*?\b(\w+)\([^\n;]*\)[^\n;]*\n\{", re.M)


def fail(message: str) -> None:
    print(f"daemon-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get(port: int, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def post(port: int, path: str) -> tuple[int, dict]:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def wait_for(predicate, budget: float, what: str):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        result = predicate()
        if result is not None:
            return result
        time.sleep(0.25)
    fail(f"timed out after {budget}s waiting for {what}")


def start_serve(corpus: Path, store: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.engine", "serve",
         "--corpus-dir", str(corpus), "--port", "0",
         "--poll-seconds", "0.2", "--store-dir", str(store)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    banner = proc.stdout.readline().strip()
    print(banner)
    if "http://" not in banner:
        fail(f"unexpected serve banner: {banner!r}")
    address = banner.split("http://")[1].split(",")[0].strip()
    return proc, int(address.rsplit(":", 1)[1])


def wait_healthy(proc: subprocess.Popen, port: int) -> dict:
    def healthy():
        if proc.poll() is not None:
            fail(f"serve exited early: {proc.stdout.read()}")
        status, payload = get(port, "/health")
        return payload if status == 200 else None

    return wait_for(healthy, STARTUP_BUDGET_SECONDS,
                    "/health to report ready")


def stop_serve(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()


def sorted_findings(findings: list[dict]) -> list[dict]:
    return sorted(findings, key=lambda f: json.dumps(f, sort_keys=True))


def batch_findings(corpus: Path) -> list[dict]:
    """The findings of `repro-engine run` over the corpus directory."""
    batch = subprocess.run(
        [sys.executable, "-m", "repro.engine", "run", "--analyses", "all",
         "--corpus-dir", str(corpus), "--format", "json"],
        check=True, capture_output=True, text=True)
    report = json.loads(batch.stdout)
    return sorted_findings([finding
                            for analysis in report["analyses"].values()
                            for finding in analysis["findings"]])


def wait_for_pass(port: int, revision: int, what: str) -> dict:
    """The ``last_pass`` stats once the service has reached ``revision``."""
    def reanalyzed():
        status, payload = get(port, "/stats")
        if status != 200 or payload.get("revision", 1) < revision:
            return None
        return payload["last_pass"]

    return wait_for(reanalyzed, EDIT_BUDGET_SECONDS, what)


def bump_literal(path: Path, function: str, literal: str, new: str) -> None:
    """Replace the first ``literal`` in ``function``'s body."""
    source = path.read_text()
    body = source.index("{", source.index(f"void {function}("))
    end = source.index("\n}\n", body)
    at = source.index(literal, body, end)
    path.write_text(source[:at] + new + source[at + len(literal):])


def callers_elsewhere(corpus: Path, callee: str, home: Path) -> set[str]:
    """The functions outside ``home`` whose bodies call ``callee``."""
    callers = set()
    for path in corpus.rglob("*.c"):
        if path == home:
            continue
        source = path.read_text()
        for match in DEFINITION.finditer(source):
            body = source[match.end():source.index("\n}\n", match.end())]
            if re.search(rf"\b{callee}\(", body):
                callers.add(match.group(1))
    return callers


def require_one_unit(last: dict, what: str) -> None:
    """An edit that moved no summary and no signature re-solves one SCC
    and re-runs the shards that read other functions in its unit alone."""
    reruns = last["shards_rerun_by_analysis"]
    if last["dirty_sccs"] != 1:
        fail(f"{what} re-solved {last['dirty_sccs']} SCCs, not 1")
    for analysis in ("deputy", "errcheck", "lockcheck"):
        if reruns[analysis] != 1:
            fail(f"{what} re-ran {reruns[analysis]} {analysis} shards, not 1")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-daemon-smoke-") as tmp:
        corpus = Path(tmp) / "corpus"
        store = Path(tmp) / "store"
        run = subprocess.run(
            [sys.executable, "-m", "repro.engine", "export-corpus",
             str(corpus)], check=True, capture_output=True, text=True)
        print(run.stdout.strip())

        proc, port = start_serve(corpus, store)
        try:
            health = wait_healthy(proc, port)
            print(f"health: revision={health['revision']}")

            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings returned {status}")
            served_findings = sorted_findings(served["findings"])
            if served_findings != batch_findings(corpus):
                fail("served findings differ from `repro-engine run`")
            print(f"findings: {served['count']} (matches batch run)")

            # Edit one file on disk; the watcher must pick it up and the
            # follow-up pass must be incremental.
            target = sorted(corpus.rglob("*.c"))[-1]
            target.write_text(target.read_text()
                              + "\nint __daemon_smoke(void) { return 0; }\n")

            last = wait_for_pass(port, 2, "the watcher to trigger a second pass")
            print("edit pass: "
                  f"full_reparse={last['full_reparse']} "
                  f"parsed_units={last['parsed_units']} "
                  f"dirty_sccs={last['dirty_sccs']} "
                  f"sccs_reused={last['sccs_reused']}")
            if last["full_reparse"]:
                fail("edit pass fell back to a full re-parse")
            if last["sccs_reused"] == 0:
                fail("edit pass reused no SCC summaries")

            # A body edit to a widely called function that keeps its
            # summary and its signature: no caller reads anything that
            # moved, so one SCC re-solves and one unit's shards re-run.
            lib = corpus / "lib" / "kernel_lib.c"
            bump_literal(lib, "spin_lock_init", "-1", "-2")
            last = wait_for_pass(port, 3, "the watcher to pick up the body edit")
            print("body-edit pass: "
                  f"full_reparse={last['full_reparse']} "
                  f"dirty_sccs={last['dirty_sccs']} "
                  f"shards_rerun={last['shards_rerun']} "
                  f"reruns={last['shards_rerun_by_analysis']} "
                  f"rebuilt={last['rebuilt_artifacts']}")
            if last["full_reparse"]:
                fail("body-edit pass fell back to a full re-parse")
            graph_rebuilt = {"callgraph", "pointsto", "condensation"} & set(
                last["rebuilt_artifacts"])
            if graph_rebuilt:
                fail(f"body edit rebuilt {sorted(graph_rebuilt)}")
            require_one_unit(last, "body edit")
            if last["summaries_changed"] != 0:
                fail(f"body edit moved {last['summaries_changed']} summaries")
            print("body-edit keys: "
                  f"shard_keys_computed={last['shard_keys_computed']} "
                  f"keyed_units={last['keyed_units']}")
            if (last["keyed_units"] != ["lib/kernel_lib.c"]
                    or last["shard_keys_computed"] != len(PER_UNIT)):
                fail(f"body edit hashed {last['shard_keys_computed']} shard "
                     f"keys for {last['keyed_units']}, not one per per-unit "
                     "analysis for lib/kernel_lib.c")
            reruns = last["shards_rerun_by_analysis"]
            if reruns["stackcheck"] != 0 or reruns["blockstop"] != 1:
                fail(f"body edit re-ran {reruns['stackcheck']} stackcheck and "
                     f"{reruns['blockstop']} blockstop shards, not 0 and 1")
            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings (body edit) returned {status}")
            if sorted_findings(served["findings"]) != batch_findings(corpus):
                fail("body-edit findings differ from `repro-engine run`")
            print(f"body-edit findings: {served['count']} (matches batch run)")

            # A bigger stack frame moves spin_lock_init's summary, which
            # every caller's fixpoint reads: each of them re-solves.
            callers = callers_elsewhere(corpus, "spin_lock_init", lib)
            bump_literal(lib, "spin_lock_init", "lock->locked = 0;",
                         "char pad[64];\n    lock->locked = 0;")
            last = wait_for_pass(port, 4, "the watcher to pick up the "
                                 "summary-moving edit")
            print("summary-moving pass: "
                  f"dirty_sccs={last['dirty_sccs']} "
                  f"summaries_changed={last['summaries_changed']} "
                  f"callers={len(callers)}")
            if not callers:
                fail("found no caller of spin_lock_init outside its unit")
            missed = callers - set(last["dirty_functions"])
            if missed:
                fail(f"summary-moving edit left callers clean: {sorted(missed)}")
            if last["summaries_changed"] == 0:
                fail("summary-moving edit moved no summary")
            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings (summary-moving edit) returned {status}")
            if sorted_findings(served["findings"]) != batch_findings(corpus):
                fail("summary-moving findings differ from `repro-engine run`")
            print(f"summary-moving findings: {served['count']} "
                  "(matches batch run)")

            # A new global is read by no later unit's parse: the pass
            # re-parses its unit alone.
            lib.write_text(lib.read_text()
                           + "\nstatic int __daemon_smoke_global;\n")
            last = wait_for_pass(port, 5, "the watcher to pick up the "
                                 "declaration edit")
            print("declaration-edit pass: "
                  f"full_reparse={last['full_reparse']} "
                  f"parsed_units={last['parsed_units']}")
            if last["full_reparse"] or last["parsed_units"] != 1:
                fail(f"declaration edit parsed {last['parsed_units']} units "
                     f"(full_reparse={last['full_reparse']}), not 1 in place")
            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings (declaration edit) returned {status}")
            if sorted_findings(served["findings"]) != batch_findings(corpus):
                fail("declaration-edit findings differ from `repro-engine run`")
            print(f"declaration-edit findings: {served['count']} "
                  "(matches batch run)")

            # A blank line moves every function of the unit down a line and
            # nothing else: the call graph holds no locations, so the pass
            # keeps every corpus-wide artifact and SCC key, and re-keys only
            # the unit's shards, whose findings carry lines.
            lib.write_text("\n" + lib.read_text())
            last = wait_for_pass(port, 6, "the watcher to pick up the "
                                 "line shift")
            print("line-shift pass: "
                  f"rebuilt={last['rebuilt_artifacts']} "
                  f"dirty_sccs={last['dirty_sccs']} "
                  f"scc_keys_hashed={last['scc_keys_hashed']} "
                  f"keyed_units={last['keyed_units']}")
            if last["rebuilt_artifacts"] != []:
                fail(f"line shift rebuilt {last['rebuilt_artifacts']}")
            if last["dirty_sccs"] != 0 or last["scc_keys_hashed"] != 0:
                fail(f"line shift re-solved {last['dirty_sccs']} SCCs and "
                     f"hashed {last['scc_keys_hashed']} SCC keys, not 0 and 0")
            if last["keyed_units"] != ["lib/kernel_lib.c"]:
                fail(f"line shift keyed shards of {last['keyed_units']}, "
                     "not lib/kernel_lib.c alone")
            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings (line shift) returned {status}")
            if sorted_findings(served["findings"]) != batch_findings(corpus):
                fail("line-shift findings differ from `repro-engine run`")
            print(f"line-shift findings: {served['count']} (matches batch run)")

            status, pre_restart = get(port, "/findings")
            if status != 200:
                fail(f"/findings (pre-restart) returned {status}")
        finally:
            stop_serve(proc)

        # Restart over the unchanged corpus: the fresh process must warm-
        # start from the persistent store instead of paying a cold pass.
        proc, port = start_serve(corpus, store)
        try:
            wait_healthy(proc, port)
            status, stats = get(port, "/stats")
            if status != 200:
                fail(f"/stats (restart) returned {status}")
            last = stats["last_pass"]
            print("restart pass: "
                  f"dirty_sccs={last['dirty_sccs']} "
                  f"consts_solved={last['consts_solved']} "
                  f"shards_rerun={last['shards_rerun']} "
                  f"store_hits={last['store_hits']}")
            if last["dirty_sccs"] != 0:
                fail("warm restart re-solved SCCs "
                     f"(dirty_sccs={last['dirty_sccs']})")
            if last["shards_rerun"] != 0:
                fail("warm restart re-ran finding shards")
            if last["store_hits"] == 0:
                fail("warm restart never hit the persistent store")
            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings (restart) returned {status}")
            if sorted_findings(served["findings"]) != sorted_findings(
                    pre_restart["findings"]):
                fail("warm-restart findings differ from pre-restart snapshot")
            print(f"restart findings: {served['count']} (byte-identical)")

            # A forced pass with no edit reuses every corpus-wide artifact.
            status, analyzed = post(port, "/analyze")
            if status != 200:
                fail(f"POST /analyze (no edit) returned {status}: {analyzed}")
            last = analyzed["stats"]
            print("no-op pass: "
                  f"parsed_units={last['parsed_units']} "
                  f"shards_rerun={last['shards_rerun']} "
                  f"shard_keys_computed={last['shard_keys_computed']} "
                  f"analyses_merged={last['analyses_merged']} "
                  f"rebuilt={last['rebuilt_artifacts']}")
            if last["rebuilt_artifacts"] != []:
                fail("no-op pass rebuilt "
                     f"{last['rebuilt_artifacts']}")
            if last["parsed_units"] != 0:
                fail(f"no-op pass re-parsed {last['parsed_units']} units")
            if last["shards_rerun"] != 0:
                fail(f"no-op pass re-ran {last['shards_rerun']} shards")
            if last["shard_keys_computed"] != 0:
                fail(f"no-op pass hashed {last['shard_keys_computed']} "
                     "shard keys")
            if last["analyses_merged"] != 0:
                fail(f"no-op pass merged {last['analyses_merged']} analyses")
        finally:
            stop_serve(proc)

        # Edit while serve is down, to a literal the store has never held:
        # the restart's first pass solves the one dirty SCC against clean
        # components it reads back from the store, and its summary keeps
        # every caller's key.
        bump_literal(lib, "spin_lock_init", "-2", "-3")
        proc, port = start_serve(corpus, store)
        try:
            wait_healthy(proc, port)
            status, stats = get(port, "/stats")
            if status != 200:
                fail(f"/stats (offline-edit restart) returned {status}")
            last = stats["last_pass"]
            print("offline-edit restart pass: "
                  f"dirty_sccs={last['dirty_sccs']} "
                  f"store_hits={last['store_hits']} "
                  f"reruns={last['shards_rerun_by_analysis']}")
            if last["store_hits"] == 0:
                fail("offline-edit restart never hit the persistent store")
            require_one_unit(last, "offline-edit restart")
            status, served = get(port, "/findings")
            if status != 200:
                fail(f"/findings (offline-edit restart) returned {status}")
            if sorted_findings(served["findings"]) != batch_findings(corpus):
                fail("offline-edit restart findings differ from "
                     "`repro-engine run`")
            print(f"offline-edit restart findings: {served['count']} "
                  "(matches batch run)")
            print("daemon-smoke: OK")
        finally:
            stop_serve(proc)


if __name__ == "__main__":
    main()
