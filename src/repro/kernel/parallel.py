"""A name kept for the repository benchmark's layer tracer; nothing calls it.

Every run parses through :func:`~repro.kernel.build.parse_corpus` (or
:func:`~repro.kernel.build.parse_corpus_tolerant`), one unit after another
in the parent, so ``parse_corpus_parallel`` is bound to ``parse_corpus``.
It stays only because ``perfbench/tracing.py``'s ``LAYER_HOOKS`` imports
it, which is why the ``parse_parallel.*`` per-layer metrics read 0.  The
benchmark change that moves the tracer onto a span API (ROADMAP.md, *One
span API*, step 2) deletes this file.
"""

from .build import parse_corpus

parse_corpus_parallel = parse_corpus
