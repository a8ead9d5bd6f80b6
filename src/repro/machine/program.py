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
from ..minic.ctypes import CFunc
from ..minic.errors import SemanticError
from ..minic.symtab import TypeRegistry
from ..minic.syntax import FunctionSyntax, index_function


@dataclass
class Program:
    """A fully linked program: functions, prototypes and globals by name."""

    registry: TypeRegistry = field(default_factory=TypeRegistry)
    units: list[ast.TranslationUnit] = field(default_factory=list)
    functions: dict[str, ast.FuncDef] = field(default_factory=dict)
    #: Function name -> every prototype of it, in link order.
    prototypes: dict[str, list[ast.Declaration]] = field(default_factory=dict)
    globals: dict[str, ast.Declaration] = field(default_factory=dict)
    #: Function name -> syntax record of ``functions[name]``, built on first
    #: use.  Never pickled or deep-copied: a copy indexes its own nodes.
    _syntax: dict[str, FunctionSyntax] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: Function name -> merged annotations adopted from an earlier link
    #: (see :meth:`adopt_annotations`).  Never pickled or deep-copied.
    _annotations: dict[str, AnnotationSet] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_syntax", None)
        state.pop("_annotations", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._syntax = {}
        self._annotations = {}

    # -- construction -------------------------------------------------------

    def add_unit(self, unit: ast.TranslationUnit) -> None:
        """Link one translation unit into the program."""
        self.units.append(unit)
        for decl in unit.decls:
            if isinstance(decl, ast.FuncDef):
                if decl.name in self.functions:
                    raise SemanticError(
                        f"duplicate definition of function {decl.name!r}",
                        decl.location)
                self.functions[decl.name] = decl
            elif isinstance(decl, ast.Declaration):
                self._add_declaration(decl)

    def _add_declaration(self, decl: ast.Declaration) -> None:
        if decl.is_typedef:
            return
        if decl.type.strip().is_function():
            self.prototypes.setdefault(decl.name, []).append(decl)
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
        definition, otherwise (a copy, say) a fresh index."""
        if self.functions.get(func.name) is func:
            return self.syntax(func.name)
        return index_function(func)

    def adopt_syntax(self, func: ast.FuncDef, record: FunctionSyntax) -> None:
        """Install a record indexed from ``func`` by an earlier link of the
        same, unmodified FuncDef (the incremental analyzer's reuse)."""
        if self.functions.get(func.name) is func:
            self._syntax[func.name] = record

    def forget_syntax(self, func: ast.FuncDef) -> None:
        """Drop ``func``'s record after an in-place installer replaced its
        body (on a private program; analyses never rewrite a linked body)."""
        if self.functions.get(func.name) is func:
            self._syntax.pop(func.name, None)

    def function_type(self, name: str) -> CFunc | None:
        """The function type of ``name`` from its definition or prototype."""
        func = self.functions.get(name)
        if func is not None:
            stripped = func.type.strip()
            return stripped if isinstance(stripped, CFunc) else None
        protos = self.prototypes.get(name)
        if protos:
            stripped = protos[-1].type.strip()
            return stripped if isinstance(stripped, CFunc) else None
        return None

    def adopt_annotations(self, name: str, annotations: AnnotationSet) -> None:
        """Serve ``annotations`` as ``name``'s merged annotations: the
        incremental analyzer's reuse of a merge made by an earlier link of
        the same definition and the same prototypes.  Callers only read
        the set :meth:`function_annotations` returns."""
        self._annotations[name] = annotations

    def function_annotations(self, name: str) -> AnnotationSet:
        """Merged annotations for ``name``: its definition's, then its
        prototypes', the latest linked first.  A kind present in an earlier
        set is not taken again from a later one."""
        adopted = self._annotations.get(name)
        if adopted is not None:
            return adopted
        merged = AnnotationSet()
        func = self.functions.get(name)
        sources = [func] if func is not None else []
        sources.extend(reversed(self.prototypes.get(name, ())))
        for node in sources:
            _merge_annotations(merged, node.annotations)
            stripped = node.type.strip()
            if isinstance(stripped, CFunc):
                _merge_annotations(merged, stripped.annotations)
        return merged

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
