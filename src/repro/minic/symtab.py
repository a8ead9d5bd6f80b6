"""Symbol tables and the shared type registry.

Kernel code is split across many files that share headers.  MiniC has no
real ``#include`` of type definitions, so the build system instead shares a
single :class:`TypeRegistry` across every file of a program: struct/union
tags, typedef names and enum constants defined by one file are visible to the
files parsed after it, exactly as if they had come from a common header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ctypes import CEnum, CStruct, CType
from .errors import SemanticError, SourceLocation


@dataclass
class TypeRegistry:
    """Program-wide registry of tags, typedefs and enum constants."""

    structs: dict[str, CStruct] = field(default_factory=dict)
    enums: dict[str, CEnum] = field(default_factory=dict)
    typedefs: dict[str, CType] = field(default_factory=dict)
    enum_constants: dict[str, int] = field(default_factory=dict)
    _anon_counter: int = 0

    def struct_tag(self, tag: str, is_union: bool = False) -> CStruct:
        """Look up or create the struct/union type for ``tag``."""
        key = ("union " if is_union else "struct ") + tag
        existing = self.structs.get(key)
        if existing is None:
            existing = CStruct(tag=tag, is_union=is_union)
            self.structs[key] = existing
        return existing

    def enum_tag(self, tag: str) -> CEnum:
        existing = self.enums.get(tag)
        if existing is None:
            existing = CEnum(tag=tag)
            self.enums[tag] = existing
        return existing

    def anonymous_tag(self, prefix: str) -> str:
        self._anon_counter += 1
        return f"__anon_{prefix}_{self._anon_counter}"

    def define_typedef(self, name: str, ctype: CType) -> None:
        self.typedefs[name] = ctype

    def is_typedef(self, name: str) -> bool:
        return name in self.typedefs

    def typedef(self, name: str) -> CType:
        return self.typedefs[name]

    def define_enum_constant(self, name: str, value: int) -> None:
        self.enum_constants[name] = value

    def is_enum_constant(self, name: str) -> bool:
        return name in self.enum_constants

    def enum_constant(self, name: str) -> int:
        return self.enum_constants[name]


@dataclass
class Symbol:
    """A named program entity bound in some scope."""

    name: str
    ctype: CType
    kind: str = "var"              # "var", "param", "func"
    storage: str = ""
    location: SourceLocation = field(default_factory=SourceLocation)


class Scope:
    """A lexical scope mapping names to symbols."""

    def __init__(self, parent: Optional["Scope"] = None, name: str = "") -> None:
        self.parent = parent
        self.name = name
        self.symbols: dict[str, Symbol] = {}

    def define(self, symbol: Symbol, allow_redefine: bool = False) -> Symbol:
        if symbol.name in self.symbols and not allow_redefine:
            raise SemanticError(
                f"redefinition of {symbol.name!r} in scope {self.name or '<anon>'}",
                symbol.location,
            )
        self.symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def lookup_local(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name)

    def child(self, name: str = "") -> "Scope":
        return Scope(self, name)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None
