#!/usr/bin/env python3
"""Quickstart: check a small kernel-style module with all three tools.

This walks the complete pipeline on a ~40-line MiniC driver:

1. parse and link it with the MiniC frontend;
2. run Deputy (static checking + run-time check insertion) and execute the
   instrumented code on the abstract machine, catching a buffer overflow;
3. run CCount and catch a free of an object that is still referenced;
4. run BlockStop and report a blocking call made with interrupts disabled.

Run with:  python examples/quickstart.py
"""

from repro.blockstop import check_blockstop
from repro.ccount import CCountConfig
from repro.ccount import instrument_program as ccount_instrument
from repro.ccount import runtime as ccount_runtime
from repro.deputy import DeputyOptions, instrument_program
from repro.deputy import runtime as deputy_runtime
from repro.engine import AnalysisEngine, build_shared_artifacts
from repro.kernel.corpus import CorpusFile
from repro.machine import CheckFailure, Interpreter, link_units
from repro.minic import parse_source

DRIVER_SOURCE = r"""
void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);
void schedule(void) blocking;

struct packet {
    int length;
    char payload[16];
    struct packet *next;
};

static struct packet *queue;
static int queue_lock;

int enqueue(char * count(length) data, int length) {
    struct packet *pkt = (struct packet *)__raw_alloc(sizeof(struct packet));
    int i;
    pkt->length = length;
    for (i = 0; i < length; i = i + 1) {
        pkt->payload[i] = data[i];
    }
    pkt->next = queue;
    queue = pkt;
    return 0;
}

int drop_head_badly(void) {
    /* BUG (CCount): frees the head packet while `queue` still points at it. */
    __raw_free((void *)queue);
    return 0;
}

int flush_queue_badly(void) {
    /* BUG (BlockStop): sleeps while interrupts are disabled. */
    spin_lock_irqsave(&queue_lock);
    schedule();
    spin_unlock_irqrestore(&queue_lock);
    return 0;
}

int main(int oversized) {
    char message[8];
    int i;
    for (i = 0; i < 8; i = i + 1) { message[i] = (char)(65 + i); }
    /* Passing length 20 overruns the 16-byte payload: Deputy catches it. */
    return enqueue(message, oversized ? 20 : 8);
}
"""


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    banner("1. Deputy: type and bounds safety")
    program = link_units([parse_source(DRIVER_SOURCE, "driver.c")])
    result = instrument_program(program, DeputyOptions())
    print(f"run-time checks inserted: {result.checks_inserted}, "
          f"proven statically: {result.checks_static}, "
          f"static errors: {len(result.errors)}")
    interp = Interpreter(program)
    deputy_runtime.install(interp)
    print("well-behaved call:   enqueue of 8 bytes ->", interp.run("main", 0).value)
    try:
        interp.run("main", 1)
    except CheckFailure as failure:
        print("overflowing call:    caught by Deputy ->", failure.message)

    banner("2. CCount: checked deallocation")
    program = link_units([parse_source(DRIVER_SOURCE, "driver.c")])
    cc_result = ccount_instrument(program, CCountConfig())
    interp = Interpreter(program)
    runtime = ccount_runtime.install(interp, cc_result.typeinfo, CCountConfig())
    interp.run("main", 0)
    interp.run("drop_head_badly")
    bad = runtime.stats.bad_frees[0]
    print(f"pointer writes instrumented: {cc_result.pointer_writes_instrumented}")
    print(f"bad free detected at 0x{bad.addr:x} with {bad.outstanding} outstanding "
          f"reference(s); object leaked to stay sound")

    banner("3. BlockStop: no blocking while interrupts are disabled")
    program = link_units([parse_source(DRIVER_SOURCE, "driver.c")])
    blockstop = check_blockstop(build_shared_artifacts(program))
    for violation in blockstop.reported:
        print(violation.describe())
    print(f"functions that may block: {sorted(blockstop.blocking.may_block)}")

    banner("4. The unified engine: every analysis, one parse")
    engine = AnalysisEngine(files=(CorpusFile("driver.c", DRIVER_SOURCE),))
    report = engine.run(analyses="all")
    for name, analysis in sorted(report.analyses.items()):
        print(f"{name:>10}: {len(analysis.findings)} finding(s)")
    for finding in report.all_findings():
        where = f"{finding['file']}:{finding['line']}" if finding["file"] else "-"
        print(f"  {where} [{finding['analysis']}/{finding['kind']}] {finding['message']}")


if __name__ == "__main__":
    main()
