"""Linking: combine translation units into a runnable program image.

The mini-kernel (like the real one) is split across many source files that
share struct definitions and call across file boundaries.  The
:class:`Program` collects every function definition, prototype and global
variable, merges annotations between prototypes and definitions (a prototype
``void schedule(void) blocking;`` in one file must make the *definition*
blocking for BlockStop), and detects duplicate definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..annotations.attrs import AnnotationSet
from ..minic import ast_nodes as ast
from ..minic.ctypes import CFunc, CType
from ..minic.errors import SemanticError
from ..minic.symtab import TypeRegistry
from ..minic.syntax import FunctionSyntax, index_function


@dataclass
class Program:
    """A fully linked program: functions, prototypes and globals by name."""

    registry: TypeRegistry = field(default_factory=TypeRegistry)
    units: list[ast.TranslationUnit] = field(default_factory=list)
    functions: dict[str, ast.FuncDef] = field(default_factory=dict)
    prototypes: dict[str, ast.Declaration] = field(default_factory=dict)
    globals: dict[str, ast.Declaration] = field(default_factory=dict)
    #: Function name -> syntax record of ``functions[name]``, built on first
    #: use.  Never pickled or deep-copied: a copy indexes its own nodes.
    _syntax: dict[str, FunctionSyntax] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_syntax", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._syntax = {}

    # -- construction -------------------------------------------------------

    def add_unit(self, unit: ast.TranslationUnit) -> None:
        """Link one translation unit into the program."""
        self.units.append(unit)
        for decl in unit.decls:
            if isinstance(decl, ast.FuncDef):
                self._add_function(decl)
            elif isinstance(decl, ast.Declaration):
                self._add_declaration(decl)

    def _add_function(self, func: ast.FuncDef) -> None:
        existing = self.functions.get(func.name)
        if existing is not None:
            raise SemanticError(f"duplicate definition of function {func.name!r}",
                                func.location)
        self.functions[func.name] = func
        proto = self.prototypes.get(func.name)
        if proto is not None:
            _merge_annotations(func.annotations, proto.annotations)
            proto_type = proto.type.strip()
            if isinstance(proto_type, CFunc):
                _merge_annotations(func.annotations, proto_type.annotations)

    def _add_declaration(self, decl: ast.Declaration) -> None:
        if decl.is_typedef:
            return
        if decl.type.strip().is_function():
            previous = self.prototypes.get(decl.name)
            if previous is not None:
                _merge_annotations(decl.annotations, previous.annotations)
            self.prototypes[decl.name] = decl
            existing_def = self.functions.get(decl.name)
            if existing_def is not None:
                _merge_annotations(existing_def.annotations, decl.annotations)
                decl_type = decl.type.strip()
                if isinstance(decl_type, CFunc):
                    _merge_annotations(existing_def.annotations, decl_type.annotations)
            return
        if decl.storage == "extern" and decl.name in self.globals:
            return
        existing = self.globals.get(decl.name)
        if existing is not None and existing.init is not None and decl.init is not None:
            raise SemanticError(f"duplicate definition of global {decl.name!r}",
                                decl.location)
        if existing is None or (existing.init is None and decl.init is not None):
            self.globals[decl.name] = decl

    # -- queries --------------------------------------------------------------

    def function(self, name: str) -> ast.FuncDef | None:
        return self.functions.get(name)

    # -- the syntax index -----------------------------------------------------

    def syntax(self, name: str) -> FunctionSyntax:
        """The syntax record of defined function ``name`` (built on first use)."""
        record = self._syntax.get(name)
        if record is None:
            record = self._syntax[name] = index_function(self.functions[name])
        return record

    def syntax_of(self, func: ast.FuncDef) -> FunctionSyntax:
        """``func``'s syntax record: the cached one when ``func`` is the linked
        definition, otherwise (a clone being instrumented) a fresh index."""
        if self.functions.get(func.name) is func:
            return self.syntax(func.name)
        return index_function(func)

    def adopt_syntax(self, func: ast.FuncDef, record: FunctionSyntax) -> None:
        """Install a record indexed from ``func`` by an earlier link of the
        same, unmodified FuncDef (the incremental analyzer's reuse)."""
        if self.functions.get(func.name) is func:
            self._syntax[func.name] = record

    def forget_syntax(self, func: ast.FuncDef) -> None:
        """Drop ``func``'s record after its body was rewritten in place."""
        if self.functions.get(func.name) is func:
            self._syntax.pop(func.name, None)

    def function_type(self, name: str) -> CFunc | None:
        """The function type of ``name`` from its definition or prototype."""
        func = self.functions.get(name)
        if func is not None:
            stripped = func.type.strip()
            return stripped if isinstance(stripped, CFunc) else None
        proto = self.prototypes.get(name)
        if proto is not None:
            stripped = proto.type.strip()
            return stripped if isinstance(stripped, CFunc) else None
        return None

    def function_annotations(self, name: str) -> AnnotationSet:
        """Merged annotations for ``name`` from its definition and prototypes."""
        merged = AnnotationSet()
        func = self.functions.get(name)
        if func is not None:
            _merge_annotations(merged, func.annotations)
            stripped = func.type.strip()
            if isinstance(stripped, CFunc):
                _merge_annotations(merged, stripped.annotations)
        proto = self.prototypes.get(name)
        if proto is not None:
            _merge_annotations(merged, proto.annotations)
            stripped = proto.type.strip()
            if isinstance(stripped, CFunc):
                _merge_annotations(merged, stripped.annotations)
        return merged

    def global_type(self, name: str) -> CType | None:
        decl = self.globals.get(name)
        return decl.type if decl is not None else None

    def functions_subset(self, names: list[str] | None = None,
                         ) -> list[tuple[str, ast.FuncDef]]:
        """Defined functions as (name, def) pairs, optionally restricted.

        Names without a definition are skipped: the engine's per-unit shards
        pass prototype-only names freely.
        """
        if names is None:
            return list(self.functions.items())
        return [(name, self.functions[name]) for name in names
                if name in self.functions]

    def all_function_names(self) -> list[str]:
        names = set(self.functions) | set(self.prototypes)
        return sorted(names)

    def defined_function_names(self) -> list[str]:
        return sorted(self.functions)

    def total_source_lines(self) -> int:
        """Total number of source lines across the linked units."""
        total = 0
        for unit in self.units:
            last_line = 0
            from ..minic.visitor import walk
            for node in walk(unit):
                if node.location.line > last_line and node.location.filename == unit.filename:
                    last_line = node.location.line
            total += last_line
        return total


def _merge_annotations(target: AnnotationSet, source: AnnotationSet) -> None:
    """Add annotations from ``source`` that ``target`` does not already have."""
    for annotation in source:
        if not any(existing.kind is annotation.kind for existing in target):
            target.add(annotation)


def link_units(units: list[ast.TranslationUnit],
               registry: TypeRegistry | None = None) -> Program:
    """Link ``units`` (parsed against ``registry``) into a Program."""
    program = Program(registry=registry or TypeRegistry())
    for unit in units:
        program.add_unit(unit)
    return program
