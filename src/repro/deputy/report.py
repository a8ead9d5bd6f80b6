"""Conversion reports: the numbers §2.1 of the paper tracks.

The paper summarises the Deputy conversion of the kernel with a handful of
statistics: how many lines of code were converted, how many lines carry
annotations (~0.6%), how many lines are trusted (<0.8%), and how the run-time
checks break down.  This module computes the same census for a MiniC program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..annotations.attrs import AnnotationKind, AnnotationSet
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.ctypes import CArray, CFunc, CPointer, CStruct, CType
from ..minic.visitor import walk
from .instrument import InstrumentationResult


@dataclass
class ConversionReport:
    """Deputy conversion statistics for one program."""

    total_lines: int = 0
    annotated_lines: int = 0
    trusted_lines: int = 0
    annotation_count: int = 0
    trusted_functions: int = 0
    trusted_blocks: int = 0
    trusted_casts: int = 0
    checks_inserted: int = 0
    checks_static: int = 0
    checks_interval: int = 0
    checks_relational: int = 0
    checks_elided: int = 0
    check_errors: int = 0
    functions_converted: int = 0
    by_annotation_kind: dict[str, int] = field(default_factory=dict)

    @property
    def annotated_fraction(self) -> float:
        return self.annotated_lines / self.total_lines if self.total_lines else 0.0

    @property
    def trusted_fraction(self) -> float:
        return self.trusted_lines / self.total_lines if self.total_lines else 0.0

    @property
    def static_fraction(self) -> float:
        """Fraction of obligations discharged without a run-time check."""
        total = self.checks_inserted + self.checks_static + self.checks_elided
        if total == 0:
            return 1.0
        return (self.checks_static + self.checks_elided) / total

    def rows(self) -> list[tuple[str, str]]:
        """Rows for the harness's textual report."""
        return [
            ("lines converted", str(self.total_lines)),
            ("annotated lines", f"{self.annotated_lines} ({self.annotated_fraction:.2%})"),
            ("trusted lines", f"{self.trusted_lines} ({self.trusted_fraction:.2%})"),
            ("annotations", str(self.annotation_count)),
            ("functions converted", str(self.functions_converted)),
            ("trusted functions", str(self.trusted_functions)),
            ("trusted blocks", str(self.trusted_blocks)),
            ("trusted casts", str(self.trusted_casts)),
            ("run-time checks inserted", str(self.checks_inserted)),
            ("obligations proven statically", str(self.checks_static)),
            ("  of which interval-bounded", str(self.checks_interval)),
            ("  of which relational-bounded", str(self.checks_relational)),
            ("redundant checks elided", str(self.checks_elided)),
            ("static errors outstanding", str(self.check_errors)),
        ]

    def __str__(self) -> str:
        return "\n".join(f"{key:>32}: {value}" for key, value in self.rows())


def _annotation_sets_of_type(ctype: CType, seen: set[int]) -> list[AnnotationSet]:
    if id(ctype) in seen:
        return []
    seen.add(id(ctype))
    sets: list[AnnotationSet] = []
    if isinstance(ctype, CPointer):
        if ctype.annotations:
            sets.append(ctype.annotations)
        sets.extend(_annotation_sets_of_type(ctype.target, seen))
    elif isinstance(ctype, CArray):
        sets.extend(_annotation_sets_of_type(ctype.element, seen))
    elif isinstance(ctype, CFunc):
        if ctype.annotations:
            sets.append(ctype.annotations)
        for param in ctype.params:
            if param.annotations:
                sets.append(param.annotations)
            sets.extend(_annotation_sets_of_type(param.type, seen))
        sets.extend(_annotation_sets_of_type(ctype.return_type, seen))
    elif isinstance(ctype, CStruct):
        for member in ctype.fields:
            if member.annotations:
                sets.append(member.annotations)
            sets.extend(_annotation_sets_of_type(member.type, seen))
    return sets


def _declared_sets(node: ast.Declaration | ast.FuncDef,
                   seen: set[int]) -> list[AnnotationSet]:
    """The annotation sets ``node`` declares, each once: a function's own
    set is also its ``CFunc``'s, so it is counted through the type."""
    sets = _annotation_sets_of_type(node.type, seen)
    if node.annotations and not isinstance(node.type, CFunc):
        sets.insert(0, node.annotations)
    return sets


def _span_lines(node: ast.Node) -> int:
    """Approximate number of source lines covered by ``node``."""
    lines = [n.location.line for n in walk(node) if n.location.line > 0]
    if not lines:
        return 1
    return max(lines) - min(lines) + 1


def build_report(program: Program,
                 instrumentation: InstrumentationResult | None = None) -> ConversionReport:
    """Compute the Deputy conversion census for ``program``."""
    report = ConversionReport()
    seen_types: set[int] = set()
    annotated_lines: set[tuple[str, int]] = set()

    def note_annotations(sets: list[AnnotationSet], filename: str, line: int) -> None:
        # The parser folds a declarator's trailing annotations onto its
        # pointer type as the same objects, so one declaration's sets may
        # share annotations: each is counted once.
        counted: set[int] = set()
        for annotation_set in sets:
            for annotation in annotation_set:
                if id(annotation) in counted:
                    continue
                counted.add(id(annotation))
                report.annotation_count += 1
                kind = annotation.kind.name.lower()
                report.by_annotation_kind[kind] = report.by_annotation_kind.get(kind, 0) + 1
                if line > 0:
                    annotated_lines.add((filename, line))

    for unit in program.units:
        last_line = 0
        for node in walk(unit):
            if node.location.filename == unit.filename:
                last_line = max(last_line, node.location.line)
            if isinstance(node, ast.Declaration):
                note_annotations(_declared_sets(node, seen_types),
                                 node.location.filename, node.location.line)
            elif isinstance(node, ast.FuncDef):
                report.functions_converted += 1
                note_annotations(_declared_sets(node, seen_types),
                                 node.location.filename, node.location.line)
                if program.function_annotations(node.name).has(AnnotationKind.TRUSTED):
                    report.trusted_functions += 1
                    report.trusted_lines += _span_lines(node)
            elif isinstance(node, ast.StructDecl):
                sets = _annotation_sets_of_type(node.ctype, seen_types)
                note_annotations(sets, node.location.filename, node.location.line)
            elif isinstance(node, ast.Block) and node.trusted:
                report.trusted_blocks += 1
                report.trusted_lines += _span_lines(node)
            elif isinstance(node, ast.Cast) and node.trusted:
                report.trusted_casts += 1
                annotated_lines.add((node.location.filename, node.location.line))
        report.total_lines += last_line

    report.annotated_lines = len(annotated_lines)
    if instrumentation is not None:
        report.checks_inserted = instrumentation.checks_inserted
        report.checks_static = instrumentation.checks_static
        report.checks_interval = instrumentation.checks_interval
        report.checks_relational = instrumentation.checks_relational
        report.checks_elided = instrumentation.checks_elided
        report.check_errors = len(instrumentation.errors)
    return report
