"""Synthetic kernel-shaped corpus generator.

The embedded corpus is 11 TUs / ~200 functions — big enough to be faithful,
too small for scheduler work to show up in the bench numbers.  This module
emits a parameterized corpus with the same *shape* as the real one (one
shared lib TU defining the spinlock/IRQ primitives, then per-subsystem TUs
full of lock sections, IRQ sections, Deputy counted loops and their
off-by-one twins, call chains and leaf helpers) at whatever scale the bench
needs: ``--scale 10`` is roughly 10× the embedded corpus (~100 TUs / ~2k
functions).

Two properties are deliberate:

* **the condensation is starvation-shaped** — each unit's entry point calls
  the previous unit's entry, so the SCC chain is as deep as the corpus is
  wide, while every unit also carries a pile of independent leaves.  An
  edit low on the chain dirties a long slice of the condensation, one high
  on it a short slice.  A few units carry deliberately heavy functions so
  analysis costs are uneven (the straggler case);
* **generation is deterministic** (``random.Random(seed)``) and ingest is
  resumable: :func:`write_corpus` records a content hash per TU in
  ``MANIFEST.json`` and skips files whose on-disk bytes already match, so
  an interrupted scale run picks up where it left off.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from .corpus import CorpusFile

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_SCHEMA = "repro-corpus-manifest/1"
GENERATOR_SCHEMA = "repro-synth-generator/1"

#: TUs emitted per unit of ``--scale`` (scale 10 ≈ 10× the 11-file corpus).
UNITS_PER_SCALE = 10

#: Every Nth unit gets a deliberately heavy function (uneven task costs).
STRAGGLER_STRIDE = 7

#: Every Nth unit gets an intra-unit mutual-recursion pair (non-trivial SCC).
RECURSION_STRIDE = 3

_CORE_SOURCE = r"""
/* Shared primitives for the synthetic corpus: the src_lib subset the
   checkers key on.  Parsed first; every synth unit links against it. */

typedef unsigned int u32;
typedef unsigned int size_t;
typedef long ssize_t;

#define NULL 0
#define EINVAL 22
#define ENOMEM 12
#define SYNTH_BUF 64

struct spinlock {
    int locked;
    int owner_cpu;
    char name[16];
};

void spin_lock_init(struct spinlock *lock nonnull)
{
    lock->locked = 0;
    lock->owner_cpu = -1;
}

void spin_lock(struct spinlock *lock nonnull)
{
    lock->locked = lock->locked + 1;
    lock->owner_cpu = smp_processor_id();
}

void spin_unlock(struct spinlock *lock nonnull)
{
    lock->locked = lock->locked - 1;
    if (lock->locked == 0) {
        lock->owner_cpu = -1;
    }
}

unsigned long spin_lock_irqsave(struct spinlock *lock nonnull)
{
    unsigned long flags = __hw_save_flags();
    __hw_cli();
    spin_lock(lock);
    return flags;
}

void spin_unlock_irqrestore(struct spinlock *lock nonnull, unsigned long flags)
{
    spin_unlock(lock);
    __hw_restore_flags(flags);
}

void local_irq_disable(void)
{
    __hw_cli();
}

void local_irq_enable(void)
{
    __hw_sti();
}

unsigned long local_irq_save(void)
{
    unsigned long flags = __hw_save_flags();
    __hw_cli();
    return flags;
}

void local_irq_restore(unsigned long flags)
{
    __hw_restore_flags(flags);
}

int synth_clamp(int value, int low, int high)
{
    if (value < low) {
        return low;
    }
    if (value > high) {
        return high;
    }
    return value;
}
"""


def _leaf(prefix: str, index: int, rng: random.Random) -> str:
    """A small independent helper: arithmetic, a branch, maybe a loop."""
    a, b = rng.randrange(2, 9), rng.randrange(1, 7)
    shape = rng.randrange(3)
    if shape == 0:
        return (
            f"int {prefix}_leaf{index}(int v)\n"
            "{\n"
            f"    int out = v * {a} + {b};\n"
            f"    if (out > {a * 16}) {{\n"
            f"        out = out - {b * 4};\n"
            "    }\n"
            "    return out;\n"
            "}\n")
    if shape == 1:
        return (
            f"int {prefix}_leaf{index}(int v)\n"
            "{\n"
            "    int i;\n"
            "    int acc = 0;\n"
            f"    for (i = 0; i < {a}; i = i + 1) {{\n"
            f"        acc = acc + v + {b};\n"
            "    }\n"
            "    return acc;\n"
            "}\n")
    return (
        f"int {prefix}_leaf{index}(int v)\n"
        "{\n"
        f"    int out = synth_clamp(v, {b}, {a * 8});\n"
        f"    return out + {a};\n"
        "}\n")


def _heavy(prefix: str, rng: random.Random) -> str:
    """A deliberately expensive-to-analyze function: deep nesting, many
    statements and branches, so per-function analysis costs stay uneven."""
    lines = [f"int {prefix}_heavy(int seed)",
             "{",
             "    int i;",
             "    int j;",
             "    int acc = seed;"]
    for block in range(6):
        step = rng.randrange(1, 5)
        bound = rng.randrange(4, 12)
        lines.append(f"    for (i = 0; i < {bound}; i = i + 1) {{")
        lines.append(f"        for (j = 0; j < {bound - 1}; j = j + 1) {{")
        lines.append(f"            acc = acc + i * {step} + j;")
        lines.append(f"            if (acc > {1000 + block * 100}) {{")
        lines.append(f"                acc = acc - {rng.randrange(50, 200)};")
        lines.append("            } else {")
        lines.append(f"                acc = acc + {rng.randrange(1, 9)};")
        lines.append("            }")
        lines.append("        }")
        lines.append("    }")
    lines.append("    return acc;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _unit_source(unit: int, rng: random.Random, leaf_count: int) -> str:
    """One synthetic TU: statics, Deputy loops, lock/IRQ sections, leaves,
    a work aggregator and the cross-TU entry chain link."""
    prefix = f"s{unit:03d}"
    parts = [f"/* Synthetic subsystem unit {unit}. */\n"]
    parts.append(
        f"static struct spinlock {prefix}_lock;\n"
        f"static int {prefix}_state;\n"
        f"static char {prefix}_store[SYNTH_BUF];\n")

    # Deputy material: the canonical counted loop (discharges), the i <= n
    # off-by-one twin (must keep its check), and a derived-bound variant
    # (discharges relationally).
    parts.append(
        f"int {prefix}_fill(char * count(n) buf, unsigned int n)\n"
        "{\n"
        "    unsigned int i;\n"
        "    for (i = 0; i < n; i = i + 1) {\n"
        f"        buf[i] = {rng.randrange(1, 120)};\n"
        "    }\n"
        "    return 0;\n"
        "}\n")
    parts.append(
        f"int {prefix}_fill_off(char * count(n) buf, unsigned int n)\n"
        "{\n"
        "    unsigned int i;\n"
        "    for (i = 0; i <= n; i = i + 1) {\n"
        f"        buf[i] = {rng.randrange(1, 120)};\n"
        "    }\n"
        "    return 0;\n"
        "}\n")
    parts.append(
        f"int {prefix}_fill_limit(char * count(n) buf, unsigned int n)\n"
        "{\n"
        "    unsigned int i;\n"
        "    unsigned int limit;\n"
        "    if (n == 0) {\n"
        "        return -EINVAL;\n"
        "    }\n"
        "    limit = n - 1;\n"
        "    for (i = 0; i <= limit; i = i + 1) {\n"
        f"        buf[i] = {rng.randrange(1, 120)};\n"
        "    }\n"
        "    return 0;\n"
        "}\n")

    # Lock section with an error path that must still release.
    parts.append(
        f"int {prefix}_locked_update(int value)\n"
        "{\n"
        "    spin_lock(&" + prefix + "_lock);\n"
        "    if (value < 0) {\n"
        f"        spin_unlock(&{prefix}_lock);\n"
        "        return -EINVAL;\n"
        "    }\n"
        f"    {prefix}_state = {prefix}_state + value;\n"
        f"    spin_unlock(&{prefix}_lock);\n"
        "    return 0;\n"
        "}\n")

    # IRQ-disabled section via save/restore.
    parts.append(
        f"int {prefix}_irq_section(int value)\n"
        "{\n"
        "    unsigned long flags;\n"
        f"    flags = spin_lock_irqsave(&{prefix}_lock);\n"
        f"    {prefix}_state = {prefix}_state ^ value;\n"
        f"    spin_unlock_irqrestore(&{prefix}_lock, flags);\n"
        f"    return {prefix}_state;\n"
        "}\n")

    for leaf in range(leaf_count):
        parts.append(_leaf(prefix, leaf, rng))

    if unit % RECURSION_STRIDE == 0:
        depth = rng.randrange(3, 8)
        parts.append(
            f"int {prefix}_odd(int n);\n"
            f"int {prefix}_even(int n)\n"
            "{\n"
            "    if (n <= 0) {\n"
            "        return 1;\n"
            "    }\n"
            f"    return {prefix}_odd(n - 1);\n"
            "}\n"
            f"int {prefix}_odd(int n)\n"
            "{\n"
            "    if (n <= 0) {\n"
            "        return 0;\n"
            "    }\n"
            f"    return {prefix}_even(n - {depth % 2 + 1});\n"
            "}\n")

    if unit % STRAGGLER_STRIDE == 0:
        parts.append(_heavy(prefix, rng))

    # The aggregator ties the unit together; the entry extends the cross-TU
    # chain, so the condensation grows one wave per unit.
    calls = [f"    acc = acc + {prefix}_leaf{leaf}(acc);"
             for leaf in range(0, leaf_count, 2)]
    extra = ""
    if unit % STRAGGLER_STRIDE == 0:
        extra = f"    acc = acc + {prefix}_heavy(acc);\n"
    if unit % RECURSION_STRIDE == 0:
        extra = extra + f"    acc = acc + {prefix}_even(acc & 7);\n"
    parts.append(
        f"int {prefix}_work(int value)\n"
        "{\n"
        "    int acc = value;\n"
        f"    char local[SYNTH_BUF];\n"
        + "\n".join(calls) + "\n"
        + extra +
        f"    {prefix}_fill(local, SYNTH_BUF);\n"
        f"    {prefix}_fill_limit({prefix}_store, SYNTH_BUF);\n"
        f"    acc = acc + {prefix}_locked_update(acc & 15);\n"
        f"    acc = acc + {prefix}_irq_section(acc);\n"
        "    return acc;\n"
        "}\n")
    # The entry is a chain link — its SCC sits alone in its condensation
    # wave — and carries deliberate analysis weight, so re-solving a dirty
    # slice of the chain costs what a real call chain would.
    weight = []
    for block in range(3):
        bound = rng.randrange(5, 10)
        step = rng.randrange(1, 4)
        weight.extend([
            f"    for (i = 0; i < {bound}; i = i + 1) {{",
            f"        for (j = 0; j < {bound + 2}; j = j + 1) {{",
            f"            acc = acc + i * {step} - j;",
            f"            if (acc > {500 + block * 50}) {{",
            f"                acc = acc - {rng.randrange(20, 90)};",
            "            } else {",
            f"                acc = acc + {rng.randrange(1, 6)};",
            "            }",
            "        }",
            "    }"])
    chain_call = ("" if unit == 0
                  else f"    acc = acc + s{unit - 1:03d}_entry(value & 31);\n")
    parts.append(
        f"int {prefix}_entry(int value)\n"
        "{\n"
        "    int i;\n"
        "    int j;\n"
        "    int acc;\n"
        f"    acc = {prefix}_work(value);\n"
        + chain_call
        + "\n".join(weight) + "\n"
        "    return acc;\n"
        "}\n")
    return "\n".join(parts)


def generate_corpus(scale: int, seed: int = 0) -> tuple[CorpusFile, ...]:
    """Emit the synthetic corpus for ``scale`` (deterministic per seed)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = random.Random(seed)
    files = [CorpusFile(filename="synth/synth_core.c", source=_CORE_SOURCE)]
    for unit in range(scale * UNITS_PER_SCALE):
        leaf_count = rng.randrange(8, 13)
        files.append(CorpusFile(
            filename=f"synth/unit_{unit:03d}.c",
            source=_unit_source(unit, rng, leaf_count)))
    return tuple(files)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_corpus(directory: str | Path, files, *,
                 scale: int | None = None, seed: int | None = None) -> dict:
    """Resumable content-hash-keyed ingest into a ``MANIFEST.json`` tree.

    Files whose on-disk bytes already hash to the generated content are
    left untouched, so re-running after an interrupt only writes the
    remainder.  The manifest keeps the ``repro-corpus-manifest/1`` schema
    (``load_corpus_dir`` reads it unchanged) and adds per-entry ``sha256``
    plus a ``generator`` block recording scale/seed for provenance.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"schema": MANIFEST_SCHEMA, "files": []}
    if scale is not None:
        manifest["generator"] = {"schema": GENERATOR_SCHEMA,
                                 "scale": scale, "seed": seed or 0}
    written = skipped = 0
    for corpus_file in files:
        digest = _sha256(corpus_file.source)
        target = root / corpus_file.filename
        if target.exists() and _sha256(target.read_text()) == digest:
            skipped += 1
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(corpus_file.source)
            written += 1
        manifest["files"].append({"filename": corpus_file.filename,
                                  "path": corpus_file.filename,
                                  "kernel": corpus_file.kernel,
                                  "sha256": digest})
    manifest_path = root / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return {"manifest": str(manifest_path), "total": len(manifest["files"]),
            "written": written, "skipped": skipped}
