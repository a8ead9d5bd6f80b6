"""Tests for the two-pass speculative parallel parse front-end.

The contract under test: ``parse_corpus_parallel`` is *byte-identical* with
the serial front-end — adopted TUs validated their full read set against
the canonical shared state, and every TU that could have diverged falls
back to a plain serial parse (reproducing serial semantics, including
errors, exactly).  The effect-delta replay tests pin the tricky cases:
macro shadowing across TUs, struct completion across TUs, and deliberately
conflicting overlays that must fall back.
"""

from __future__ import annotations

import pytest

from repro.dataflow.domains import solve_program_facts
from repro.engine import AnalysisEngine
from repro.kernel.build import (
    PARSE_COUNTS,
    parse_corpus,
    parse_corpus_tolerant,
    reset_parse_counts,
)
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.kernel.parallel import parse_corpus_parallel
from repro.kernel.synth import generate_corpus
from repro.minic.pretty import render_unit


def render_program(program) -> list[str]:
    return [render_unit(unit) for unit in program.units]


def assert_byte_identical(files, tolerant=False, **kwargs):
    result = parse_corpus_parallel(files, tolerant=tolerant, mode="inline",
                                   **kwargs)
    if tolerant:
        serial_program, serial_diags = parse_corpus_tolerant(files)
        assert ([d.filename for d in result.diagnostics]
                == [d.filename for d in serial_diags])
    else:
        serial_program = parse_corpus(files)
    assert render_program(result.program) == render_program(serial_program)
    return result


class TestEmbeddedCorpusIdentity:
    def test_strict_byte_identical(self):
        result = assert_byte_identical(KERNEL_FILES)
        assert result.stats.units == len(KERNEL_FILES)
        assert result.stats.adopted + result.stats.fallbacks == (
            result.stats.units - 1)

    def test_tolerant_byte_identical(self):
        assert_byte_identical(KERNEL_FILES, tolerant=True)

    def test_parse_counts_once_per_file(self):
        reset_parse_counts()
        parse_corpus_parallel(KERNEL_FILES, mode="inline")
        assert all(PARSE_COUNTS[f.filename] == 1 for f in KERNEL_FILES)

    def test_speculative_facts_exactly_match_serial_solve(self):
        result = parse_corpus_parallel(KERNEL_FILES, mode="inline")
        assert result.stats.facts_speculated > 0
        serial = solve_program_facts(result.program,
                                     sorted(result.facts))
        assert result.facts == serial


class TestSynthCorpusIdentity:
    def test_scale_corpus_fully_adopted(self):
        # All shared state lives in the synthetic corpus's core TU, so
        # every later TU validates cleanly against the seed: zero
        # fallbacks is the scaling story, not just an optimization.
        files = generate_corpus(scale=1)
        result = assert_byte_identical(files)
        assert result.stats.fallbacks == 0
        assert result.stats.adopted == result.stats.units - 1


# ---------------------------------------------------------------------------
# Effect-delta replay: shared-state mutations crossing TU boundaries.
# ---------------------------------------------------------------------------

MACRO_BASE = CorpusFile("shadow/base.c", """
#define WIDTH 4
int base(void) { return WIDTH; }
""")

MACRO_SHADOW = CorpusFile("shadow/mid.c", """
#undef WIDTH
#define WIDTH 8
int mid(void) { return WIDTH; }
""")

MACRO_READER = CorpusFile("shadow/reader.c", """
int reader(void) { return WIDTH; }
""")


class TestMacroShadowing:
    def test_shadowed_macro_replays_in_manifest_order(self):
        files = (MACRO_BASE, MACRO_SHADOW, MACRO_READER)
        result = assert_byte_identical(files)
        # The prescan predicts the canonical macro table exactly, so the
        # reader TU speculates against WIDTH=8 and adopts.
        assert result.stats.adopted == 2
        rendered = render_unit(result.program.units[-1])
        assert "8" in rendered and "WIDTH" not in rendered


STRUCT_FWD = CorpusFile("pkt/fwd.c", """
struct pkt;
struct pkt *alloc_pkt(void);
int fwd(struct pkt *p) { return p != (struct pkt *)0; }
""")

STRUCT_COMPLETE = CorpusFile("pkt/complete.c", """
struct pkt { int len; int cap; };
int length(struct pkt *p) { return p->len; }
""")

STRUCT_USER_FIELDS = CorpusFile("pkt/user.c", """
int use(struct pkt *p) { return p->cap; }
""")


class TestStructCompletionAcrossTUs:
    def test_completion_visible_to_later_tu(self):
        # user.c reads a field of the struct complete.c completed: its
        # speculative parse against the incomplete seed cannot succeed,
        # so the replay must fall back to a serial parse — and still
        # produce the serial result byte-for-byte.
        files = (STRUCT_FWD, STRUCT_COMPLETE, STRUCT_USER_FIELDS)
        result = assert_byte_identical(files)
        assert result.stats.fallbacks >= 1
        assert "cap" in render_unit(result.program.units[-1])

    def test_sizeof_of_completed_struct(self):
        sizeof_user = CorpusFile("pkt/szuser.c", """
int size_of_pkt(void) { return sizeof(struct pkt); }
""")
        files = (STRUCT_FWD, STRUCT_COMPLETE, sizeof_user)
        result = assert_byte_identical(files)
        assert result.stats.fallbacks >= 1


class TestConflictingOverlay:
    def test_typedef_introduced_mid_corpus_forces_fallback(self):
        # TU1 introduces a typedef TU2 needs; TU2's speculative parse
        # against the seed (no typedef) fails, so it must serially
        # re-parse at the canonical state and succeed.
        lib = CorpusFile("conf/lib.c", "int lib(void) { return 1; }\n")
        definer = CorpusFile("conf/def.c", "typedef int u32;\n"
                                           "u32 make(void) { return 0; }\n")
        user = CorpusFile("conf/use.c", "u32 consume(void) { return 9; }\n")
        files = (lib, definer, user)
        result = assert_byte_identical(files)
        assert result.stats.fallbacks >= 1

    def test_enum_constant_conflict_forces_fallback(self):
        lib = CorpusFile("conf2/lib.c", "int lib(void) { return 1; }\n")
        definer = CorpusFile("conf2/def.c",
                             "enum mode { MODE_A = 5, MODE_B = 7 };\n"
                             "int pick(void) { return MODE_A; }\n")
        user = CorpusFile("conf2/use.c",
                          "int choose(void) { return MODE_B; }\n")
        files = (lib, definer, user)
        result = assert_byte_identical(files)
        assert result.stats.fallbacks >= 1
        rendered = render_unit(result.program.units[-1])
        assert "7" in rendered

    def test_broken_tu_isolated_in_tolerant_mode(self):
        broken = CorpusFile("conf3/broken.c", "int oops(void) { return }\n")
        ok = CorpusFile("conf3/ok.c", "int fine(void) { return 2; }\n")
        files = (KERNEL_FILES[0], broken, ok)
        result = assert_byte_identical(files, tolerant=True)
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].filename == "conf3/broken.c"

    def test_strict_mode_raises_like_serial(self):
        from repro.minic.errors import MiniCError

        broken = CorpusFile("conf4/broken.c", "int oops(void) { return }\n")
        files = (KERNEL_FILES[0], broken)
        with pytest.raises(MiniCError):
            parse_corpus_parallel(files, mode="inline")


# ---------------------------------------------------------------------------
# Engine integration: parallel parse feeds the solver pipeline.
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    @staticmethod
    def normalized(report) -> dict:
        payload = report.to_dict()
        for key in ("elapsed_seconds", "cache_stats", "perf", "jobs",
                    "parallel"):
            payload.pop(key, None)
        return payload

    def test_inline_run_byte_identical_with_serial(self, monkeypatch):
        # On a 1-CPU host a parallel run parses with in-process workers.
        from repro.kernel import parallel

        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        parallel_report = AnalysisEngine().run(jobs=2)
        serial_report = AnalysisEngine().run(jobs=1)
        assert self.normalized(parallel_report) == self.normalized(
            serial_report)
        # The parse really went through the two-pass front-end and its
        # speculative facts shrank the consts phase.
        parse = parallel_report.perf["parse"]
        assert parse["mode"] == "inline"
        assert parse["adopted"] > 0
        assert parse["facts_speculated"] > 0
