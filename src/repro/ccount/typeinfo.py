"""Run-time type information for CCount.

CCount needs to know where the pointers live inside an object in three
situations the paper calls out: when the object is freed (its outgoing
references must be dropped), when it is copied with ``memcpy`` (the copied
pointers create new references) and when it is cleared with ``memset``.

The registry assigns a small integer *type id* to every struct layout and
records the byte offsets of its pointer-typed cells.  The paper reports having
to describe 32 type layouts by hand and add explicit run-time type information
in 27 places; in this reproduction the layouts are extracted automatically
from the parsed corpus, and the explicit RTTI sites are the corpus's calls to
``__ccount_rtti(ptr, TYPEID_xxx)`` after allocations whose static type the
runtime cannot otherwise see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.program import Program
from ..minic.ctypes import CStruct


@dataclass
class TypeLayout:
    """Pointer layout of one struct type."""

    type_id: int
    tag: str
    size: int
    pointer_offsets: tuple[int, ...]

    @property
    def has_pointers(self) -> bool:
        return bool(self.pointer_offsets)


@dataclass
class TypeInfoRegistry:
    """All struct layouts known to the CCount runtime."""

    layouts: dict[int, TypeLayout] = field(default_factory=dict)
    by_tag: dict[str, TypeLayout] = field(default_factory=dict)
    _next_id: int = 1

    def register_struct(self, struct: CStruct) -> TypeLayout:
        key = f"{struct.kind_name} {struct.tag}"
        existing = self.by_tag.get(key)
        if existing is not None:
            return existing
        layout = TypeLayout(
            type_id=self._next_id,
            tag=key,
            size=struct.size if struct.complete else 0,
            pointer_offsets=tuple(struct.pointer_field_offsets()) if struct.complete else (),
        )
        self._next_id += 1
        self.layouts[layout.type_id] = layout
        self.by_tag[key] = layout
        return layout

    def layout(self, type_id: int) -> TypeLayout | None:
        return self.layouts.get(type_id)

    def layout_for_tag(self, tag: str) -> TypeLayout | None:
        return self.by_tag.get(tag)

    def described_types(self) -> int:
        """How many distinct layouts containing pointers were described."""
        return sum(1 for layout in self.layouts.values() if layout.has_pointers)

    def __len__(self) -> int:
        return len(self.layouts)


def build_typeinfo(program: Program) -> TypeInfoRegistry:
    """Extract pointer layouts for every complete struct in ``program``."""
    registry = TypeInfoRegistry()
    for struct in program.registry.structs.values():
        if struct.complete:
            registry.register_struct(struct)
    return registry
