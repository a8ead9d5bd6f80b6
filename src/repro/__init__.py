"""repro: sound program analysis for a simulated Linux-like kernel.

A reproduction of "Beyond Bug-Finding: Sound Program Analysis for Linux"
(HotOS 2007).  The package provides:

* :mod:`repro.minic` — a kernel-flavoured C frontend (lexer, parser, types);
* :mod:`repro.machine` — an abstract machine with a deterministic cycle model;
* :mod:`repro.deputy` — dependent-pointer type checking with run-time checks;
* :mod:`repro.ccount` — reference-count verification of manual deallocation;
* :mod:`repro.blockstop` — call-graph analysis of blocking in atomic context;
* :mod:`repro.analyses` — the paper's proposed future analyses;
* :mod:`repro.repository` — the shared annotation repository;
* :mod:`repro.kernel` — the mini-kernel corpus and build system;
* :mod:`repro.hbench` — the hbench-like micro-benchmark suite;
* :mod:`repro.harness` — experiment drivers that regenerate the paper's table
  and in-text evaluation numbers.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

__version__ = "1.1.0"

__all__ = [
    "minic", "annotations", "machine", "deputy", "ccount", "blockstop",
    "analyses", "repository", "kernel", "hbench", "harness",
]


def tree_digest(root: str | Path) -> str:
    """SHA-256 over every ``.py`` file under ``root``, in sorted path order.

    Each file contributes its relative path and its bytes, length-prefixed,
    so renaming a module changes the digest as surely as editing one.
    """
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        for part in (path.relative_to(root).as_posix().encode(), path.read_bytes()):
            digest.update(f"{len(part)}:".encode())
            digest.update(part)
    return digest.hexdigest()[:32]


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """The digest of this package's own sources, computed on first use.

    Every persisted artifact key (the engine's ``--cache-dir``, the
    service's ``--store-dir`` and its in-memory fingerprints) is salted with
    it: artifacts depend on the analysis code as much as on the corpus, so
    a cache written by any other version of the code is never served.
    """
    return tree_digest(Path(__file__).resolve().parent)
