"""Building the mini-kernel: parse, link, and (optionally) instrument.

This is the analogue of replacing ``gcc`` with ``deputy`` in the kernel
makefiles: a :class:`KernelBuild` describes which tools are applied, and
:func:`build_kernel` produces a linked :class:`~repro.machine.program.Program`
with the requested instrumentation, plus the per-tool conversion summaries the
harness reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..ccount import (
    CCountConfig,
    CCountInstrumentationResult,
    build_typeinfo,
)
from ..ccount import instrument as ccount_instrument
from ..deputy import DeputyOptions, InstrumentationResult
from ..deputy import instrument as deputy_instrument
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic import errors
from ..minic.errors import MiniCError, SourceLocation
from ..minic.lexer import tokenize
from ..minic.parser import Parser
from ..minic.source import Preprocessor
from ..minic.symtab import TypeRegistry
from .corpus import ALL_FILES, KERNEL_FILES, USER_FILES, CorpusFile


@dataclass
class BuildConfig:
    """Which tools to apply when building the kernel."""

    deputy: bool = False
    ccount: bool = False
    deputy_options: DeputyOptions = field(default_factory=DeputyOptions)
    ccount_config: CCountConfig = field(default_factory=CCountConfig)
    include_user: bool = True
    defines: dict[str, str] = field(default_factory=dict)

    @property
    def label(self) -> str:
        tools = []
        if self.deputy:
            tools.append("deputy")
        if self.ccount:
            tools.append("ccount")
        return "+".join(tools) if tools else "baseline"


@dataclass
class KernelBuild:
    """A built kernel image and its conversion metadata."""

    program: Program
    config: BuildConfig
    deputy_result: Optional[InstrumentationResult] = None
    ccount_result: Optional[CCountInstrumentationResult] = None

    @property
    def label(self) -> str:
        return self.config.label


#: How many times each corpus file has been parsed in this process.  The
#: engine's parse-once guarantee is asserted against this counter.
PARSE_COUNTS: Counter[str] = Counter()


def reset_parse_counts() -> None:
    """Reset the per-file parse counter (used by tests)."""
    PARSE_COUNTS.clear()


def _parse_file(corpus_file: CorpusFile, registry: TypeRegistry,
                preprocessor: Preprocessor):
    """Preprocess and parse one corpus file against the shared state."""
    PARSE_COUNTS[corpus_file.filename] += 1
    text = preprocessor.process(corpus_file.source, corpus_file.filename)
    tokens = tokenize(text, corpus_file.filename)
    parser = Parser(tokens, corpus_file.filename, registry)
    return parser.parse_translation_unit()


def parse_corpus(files: tuple[CorpusFile, ...] = ALL_FILES,
                 defines: dict[str, str] | None = None,
                 registry: TypeRegistry | None = None,
                 preprocessor: Preprocessor | None = None) -> Program:
    """Parse and link corpus ``files``.

    The type registry *and* the preprocessor macro table are shared across
    files, which is how the corpus models kernel-wide headers (GFP flags,
    buffer sizes, syscall numbers) without a real ``#include`` mechanism.
    """
    registry = registry or TypeRegistry()
    preprocessor = preprocessor or Preprocessor(defines)
    program = Program(registry=registry)
    for corpus_file in files:
        program.add_unit(_parse_file(corpus_file, registry, preprocessor))
    # Stash the shared preprocessor so later additions (user files) see the
    # same macro environment.
    program._corpus_preprocessor = preprocessor  # type: ignore[attr-defined]
    return program


@dataclass(frozen=True)
class ParseDiagnostic:
    """A frontend error confined to one translation unit."""

    filename: str
    kind: str            # "lex-error", "parse-error", "type-error", ...
    message: str
    location: SourceLocation

    @classmethod
    def of(cls, filename: str, error: MiniCError) -> "ParseDiagnostic":
        """The diagnostic ``error`` leaves for corpus file ``filename``."""
        return cls(filename=filename, kind=_diagnostic_kind(type(error)),
                   message=error.message, location=error.location)

    def error(self) -> MiniCError:
        """The frontend error this diagnostic records, for a strict caller
        to raise: its class (from ``kind``), message and location."""
        for cls in (errors.LexError, errors.ParseError, errors.TypeError_,
                    errors.SemanticError, MiniCError):
            if _diagnostic_kind(cls) == self.kind:
                return cls(self.message, self.location)
        raise ValueError(f"unknown diagnostic kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"filename": self.filename, "kind": self.kind,
                "message": self.message,
                "file": self.location.filename, "line": self.location.line,
                "column": self.location.column}


def _diagnostic_kind(cls: type) -> str:
    name = cls.__name__.rstrip("_")
    parts = []
    for ch in name:
        if ch.isupper() and parts:
            parts.append("-")
        parts.append(ch.lower())
    return "".join(parts)


def link_tolerant(
    parsed: Iterable[tuple[Optional[ast.TranslationUnit], Optional[ParseDiagnostic]]],
    registry: TypeRegistry,
) -> tuple[Program, tuple[ParseDiagnostic, ...]]:
    """Link parsed units in corpus order, isolating link errors per unit.

    ``parsed`` holds one ``(unit, diagnostic)`` pair per corpus file: the
    unit to link (None when the file has none) and the diagnostic its parse
    left (None when it parsed).  A unit that fails to link — a duplicate
    definition, say — is skipped and reported the same way, and leaves no
    partial functions or globals behind.
    """
    program = Program(registry=registry)
    diagnostics: list[ParseDiagnostic] = []
    linked: list[ast.TranslationUnit] = []
    for unit, diagnostic in parsed:
        if diagnostic is not None:
            diagnostics.append(diagnostic)
        if unit is None:
            continue
        try:
            program.add_unit(unit)
            linked.append(unit)
        except MiniCError as error:
            diagnostics.append(ParseDiagnostic.of(unit.filename, error))
            if len(program.units) != len(linked):
                # add_unit failed midway; relink the good units.
                program = Program(registry=registry)
                for good in linked:
                    program.add_unit(good)
    return program, tuple(diagnostics)


def parse_corpus_tolerant(
    files: tuple[CorpusFile, ...] = ALL_FILES,
    defines: dict[str, str] | None = None,
    registry: TypeRegistry | None = None,
    preprocessor: Preprocessor | None = None,
) -> tuple[Program, tuple[ParseDiagnostic, ...]]:
    """Parse and link the corpus, isolating frontend errors per file.

    A lex/parse/type error in one translation unit no longer aborts the
    whole build: the broken file is skipped (its functions simply don't
    exist in the linked program — every analysis stays sound over the
    files that *did* parse) and reported as a structured diagnostic.
    Link-time errors (duplicate definitions) skip the offending unit the
    same way (:func:`link_tolerant`).
    """
    registry = registry or TypeRegistry()
    preprocessor = preprocessor or Preprocessor(defines)
    parsed = []
    for corpus_file in files:
        try:
            parsed.append((_parse_file(corpus_file, registry, preprocessor), None))
        except MiniCError as error:
            parsed.append((None, ParseDiagnostic.of(corpus_file.filename, error)))
    program, diagnostics = link_tolerant(parsed, registry)
    program._corpus_preprocessor = preprocessor  # type: ignore[attr-defined]
    return program, diagnostics


def build_kernel(config: BuildConfig | None = None,
                 base_program: Program | None = None) -> KernelBuild:
    """Build the kernel with the tools requested by ``config``.

    Instrumentation is applied to the kernel files only; the user-level
    benchmark sources are linked in afterwards, exactly as un-deputized user
    programs run on top of a deputized kernel.

    ``base_program`` lets a caller (the analysis engine) supply an already
    parsed kernel program instead of re-parsing the corpus.  Instrumentation
    mutates the program in place, so the caller must hand over a private copy
    (:meth:`repro.engine.AnalysisEngine.fresh_program`).
    """
    config = config or BuildConfig()
    program = base_program or parse_corpus(KERNEL_FILES, config.defines)
    build = KernelBuild(program=program, config=config)

    if config.deputy:
        build.deputy_result = deputy_instrument.instrument_program(
            program, config.deputy_options)
    if config.ccount:
        typeinfo = build_typeinfo(program)
        build.ccount_result = ccount_instrument.instrument_program(
            program, config.ccount_config, typeinfo)

    if config.include_user:
        preprocessor = getattr(program, "_corpus_preprocessor", None) or Preprocessor(
            config.defines)
        for corpus_file in USER_FILES:
            program.add_unit(_parse_file(corpus_file, program.registry, preprocessor))
    return build


def baseline_build() -> KernelBuild:
    """A plain, uninstrumented kernel build."""
    return build_kernel(BuildConfig())


def deputized_build(options: DeputyOptions | None = None) -> KernelBuild:
    """A Deputy-instrumented kernel build."""
    return build_kernel(BuildConfig(deputy=True,
                                    deputy_options=options or DeputyOptions()))


def ccount_build(config: CCountConfig | None = None) -> KernelBuild:
    """A CCount-instrumented kernel build."""
    return build_kernel(BuildConfig(ccount=True,
                                    ccount_config=config or CCountConfig()))
