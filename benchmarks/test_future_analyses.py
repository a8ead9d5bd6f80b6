"""A3 — the §3.1 future analyses run on the kernel corpus.

The paper sketches three follow-on sound analyses (lock safety, stack depth,
error-code checking).  This benchmark runs all three over one artifact
bundle of the corpus and checks the properties they establish.
"""

from repro.analyses import analyse_locks, analyse_stack, check_error_returns
from repro.benchutil import run_once
from repro.engine import AnalysisEngine, build_shared_artifacts
from repro.kernel.build import parse_corpus
from repro.kernel.corpus import KERNEL_FILES


def _run_all():
    artifacts = build_shared_artifacts(parse_corpus(KERNEL_FILES))
    locks = analyse_locks(artifacts)
    stack = analyse_stack(artifacts)
    errors = check_error_returns(artifacts)
    return locks, stack, errors


def test_future_analyses_on_corpus(benchmark):
    locks, stack, errors = run_once(benchmark, _run_all)
    print()
    print(f"lock acquisitions analysed : {len(locks.acquisitions)}")
    print(f"lock order violations      : {len(locks.order_violations)}")
    print(f"worst-case stack depth     : {stack.worst_case} bytes "
          f"(limit {stack.stack_limit})")
    print(f"deepest chain              : {' -> '.join(stack.deepest_chain[:6])}")
    print(f"error-returning functions  : {len(errors.error_returning)}")
    print(f"unchecked error calls      : {errors.unchecked_count}")
    # Lock safety: the corpus uses a consistent lock order.
    assert locks.deadlock_free
    assert len(locks.acquisitions) > 10
    # Stack depth: every chain fits the 8 kB kernel stack.
    assert stack.fits
    assert stack.worst_case > 200
    # The same call graph (indirect edges included) and summaries as the
    # engine's, so the same worst case.
    engine = AnalysisEngine().run(["stackcheck"])
    assert (stack.worst_case
            == engine.analyses["stackcheck"].metrics["worst_case_bytes"])
    # Error codes: the analysis finds error-returning functions and checks
    # most call sites (the corpus is not perfect, which is the point).
    assert len(errors.error_returning) > 10
    assert errors.checked_calls > 0
