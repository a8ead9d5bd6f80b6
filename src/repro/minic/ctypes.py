"""The MiniC type representation and layout rules.

MiniC models the i386 kernel ABI the paper targets (Linux 2.6.15.5 on a
Pentium M): ``char`` is 1 byte, ``short`` 2, ``int`` and ``long`` 4,
``long long`` 8, pointers 4, and structs are laid out with natural alignment.
Keeping the data layout explicit matters for two of the three tools:

* CCount maintains one 8-bit reference count per 16-byte chunk of memory, so
  object sizes and field offsets must be real byte offsets.
* Deputy bounds checks are expressed in element counts, so element sizes must
  be known.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..annotations.attrs import AnnotationSet
from .errors import TypeError_

POINTER_SIZE = 4
POINTER_ALIGN = 4


class CType:
    """Base class of all MiniC types."""

    annotations: AnnotationSet

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def align(self) -> int:
        raise NotImplementedError

    def is_integer(self) -> bool:
        return False

    def is_pointer(self) -> bool:
        return False

    def is_arithmetic(self) -> bool:
        return self.is_integer()

    def is_scalar(self) -> bool:
        return self.is_arithmetic() or self.is_pointer()

    def is_void(self) -> bool:
        return isinstance(self, CVoid)

    def is_aggregate(self) -> bool:
        return isinstance(self, (CStruct, CArray))

    def is_function(self) -> bool:
        return isinstance(self, CFunc)

    def strip(self) -> "CType":
        """Resolve typedefs down to the underlying type."""
        return self


@dataclass(frozen=True)
class CVoid(CType):
    """The ``void`` type (size 1 so ``void *`` arithmetic behaves like gcc)."""

    @property
    def size(self) -> int:
        return 1

    @property
    def align(self) -> int:
        return 1

    def __str__(self) -> str:
        return "void"


#: Integer kind names mapped to (size, alignment).
INT_KINDS: dict[str, tuple[int, int]] = {
    "char": (1, 1),
    "short": (2, 2),
    "int": (4, 4),
    "long": (4, 4),
    "longlong": (8, 4),
    "bool": (1, 1),
}


@dataclass(frozen=True)
class CInt(CType):
    """An integer type (``char`` through ``long long``, signed or not)."""

    kind: str = "int"
    signed: bool = True

    def __post_init__(self) -> None:
        if self.kind not in INT_KINDS:
            raise TypeError_(f"unknown integer kind {self.kind!r}")

    @property
    def size(self) -> int:
        return INT_KINDS[self.kind][0]

    @property
    def align(self) -> int:
        return INT_KINDS[self.kind][1]

    def is_integer(self) -> bool:
        return True

    @property
    def min_value(self) -> int:
        if not self.signed:
            return 0
        return -(1 << (8 * self.size - 1))

    @property
    def max_value(self) -> int:
        if not self.signed:
            return (1 << (8 * self.size)) - 1
        return (1 << (8 * self.size - 1)) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` modulo the type's range (C integer semantics)."""
        bits = 8 * self.size
        value &= (1 << bits) - 1
        if self.signed and value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value

    def __str__(self) -> str:
        prefix = "" if self.signed else "unsigned "
        name = {"longlong": "long long", "bool": "_Bool"}.get(self.kind, self.kind)
        return prefix + name


@dataclass(frozen=True)
class CFloat(CType):
    """A floating point type; rarely used in kernel code but supported."""

    double: bool = True

    @property
    def size(self) -> int:
        return 8 if self.double else 4

    @property
    def align(self) -> int:
        return 4

    def is_arithmetic(self) -> bool:
        return True

    def __str__(self) -> str:
        return "double" if self.double else "float"


@dataclass
class CPointer(CType):
    """A pointer type, carrying Deputy annotations on the pointer itself."""

    target: CType
    annotations: AnnotationSet = field(default_factory=AnnotationSet)

    @property
    def size(self) -> int:
        return POINTER_SIZE

    @property
    def align(self) -> int:
        return POINTER_ALIGN

    def is_pointer(self) -> bool:
        return True

    def is_function_pointer(self) -> bool:
        return isinstance(self.target.strip(), CFunc)

    def __str__(self) -> str:
        annos = f" {self.annotations}" if self.annotations else ""
        return f"{self.target} *{annos}"


@dataclass
class CArray(CType):
    """An array type with a compile-time constant length (or incomplete)."""

    element: CType
    length: Optional[int] = None

    @property
    def size(self) -> int:
        if self.length is None:
            raise TypeError_("sizeof applied to incomplete array type")
        return self.element.size * self.length

    @property
    def align(self) -> int:
        return self.element.align

    def __str__(self) -> str:
        length = "" if self.length is None else str(self.length)
        return f"{self.element}[{length}]"


@dataclass
class CField:
    """A named member of a struct or union."""

    name: str
    type: CType
    offset: int = 0
    annotations: AnnotationSet = field(default_factory=AnnotationSet)

    def __str__(self) -> str:
        return f"{self.type} {self.name} @ {self.offset}"


@dataclass
class CStruct(CType):
    """A struct or union type.

    Structs may be *incomplete* (declared but not defined); completion fills
    in the field list and computes the layout.
    """

    tag: str
    is_union: bool = False
    fields: list[CField] = field(default_factory=list)
    complete: bool = False
    annotations: AnnotationSet = field(default_factory=AnnotationSet)
    _size: int = 0
    _align: int = 1

    def define(self, fields: list[CField]) -> None:
        """Complete the struct with ``fields`` and compute its layout."""
        if self.complete:
            raise TypeError_(f"redefinition of {self.kind_name} {self.tag}")
        self.fields = fields
        self._layout()
        self.complete = True

    @property
    def kind_name(self) -> str:
        return "union" if self.is_union else "struct"

    def _layout(self) -> None:
        offset = 0
        align = 1
        for member in self.fields:
            member_align = member.type.align
            member_size = member.type.size
            align = max(align, member_align)
            if self.is_union:
                member.offset = 0
                offset = max(offset, member_size)
            else:
                offset = _round_up(offset, member_align)
                member.offset = offset
                offset += member_size
        self._size = _round_up(max(offset, 1), align)
        self._align = align

    @property
    def size(self) -> int:
        if not self.complete:
            raise TypeError_(f"sizeof applied to incomplete {self.kind_name} {self.tag}")
        return self._size

    @property
    def align(self) -> int:
        if not self.complete:
            raise TypeError_(f"alignment of incomplete {self.kind_name} {self.tag}")
        return self._align

    def field_named(self, name: str) -> CField:
        for member in self.fields:
            if member.name == name:
                return member
        raise TypeError_(f"{self.kind_name} {self.tag} has no member {name!r}")

    def has_field(self, name: str) -> bool:
        return any(member.name == name for member in self.fields)

    def pointer_field_offsets(self) -> Iterator[int]:
        """Yield byte offsets of every pointer-typed cell inside the struct.

        CCount's type-aware memcpy/memset needs to know where the pointers
        live inside an object so that it can adjust reference counts.
        """
        for member in self.fields:
            yield from _pointer_offsets(member.type, member.offset)

    def __str__(self) -> str:
        return f"{self.kind_name} {self.tag}"


def _pointer_offsets(ctype: CType, base: int) -> Iterator[int]:
    stripped = ctype.strip()
    if isinstance(stripped, CPointer):
        yield base
    elif isinstance(stripped, CStruct) and stripped.complete:
        for member in stripped.fields:
            yield from _pointer_offsets(member.type, base + member.offset)
    elif isinstance(stripped, CArray) and stripped.length is not None:
        element = stripped.element
        for index in range(stripped.length):
            yield from _pointer_offsets(element, base + index * element.size)


@dataclass
class CEnum(CType):
    """An enum type.  Enumerators are plain ints at run time."""

    tag: str
    members: dict[str, int] = field(default_factory=dict)
    complete: bool = False

    @property
    def size(self) -> int:
        return 4

    @property
    def align(self) -> int:
        return 4

    def is_integer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"enum {self.tag}"


@dataclass
class CParam:
    """A formal parameter of a function type."""

    name: str
    type: CType
    annotations: AnnotationSet = field(default_factory=AnnotationSet)

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass
class CFunc(CType):
    """A function type."""

    return_type: CType
    params: list[CParam] = field(default_factory=list)
    varargs: bool = False
    annotations: AnnotationSet = field(default_factory=AnnotationSet)

    @property
    def size(self) -> int:
        return 1

    @property
    def align(self) -> int:
        return 1

    def param_named(self, name: str) -> CParam | None:
        for param in self.params:
            if param.name == name:
                return param
        return None

    def signature(self) -> str:
        """A type-based signature string used by the points-to analysis."""
        parts = [type_signature(self.return_type)]
        parts.extend(type_signature(p.type) for p in self.params)
        if self.varargs:
            parts.append("...")
        return "(" + ",".join(parts) + ")"

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.varargs:
            params = params + ", ..." if params else "..."
        return f"{self.return_type} (*)({params})"


@dataclass
class CNamed(CType):
    """A typedef name; ``strip`` resolves to the underlying type."""

    name: str
    underlying: CType

    @property
    def size(self) -> int:
        return self.underlying.size

    @property
    def align(self) -> int:
        return self.underlying.align

    def is_integer(self) -> bool:
        return self.underlying.is_integer()

    def is_pointer(self) -> bool:
        return self.underlying.is_pointer()

    def is_arithmetic(self) -> bool:
        return self.underlying.is_arithmetic()

    def strip(self) -> CType:
        return self.underlying.strip()

    def __str__(self) -> str:
        return self.name


def _round_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align


def type_signature(ctype: CType) -> str:
    """A coarse, name-insensitive signature used for type-based points-to."""
    stripped = ctype.strip()
    if isinstance(stripped, CVoid):
        return "void"
    if isinstance(stripped, (CInt, CEnum)):
        return f"int{stripped.size}"
    if isinstance(stripped, CFloat):
        return "float"
    if isinstance(stripped, CPointer):
        inner = stripped.target.strip()
        if isinstance(inner, CFunc):
            return "fnptr" + inner.signature()
        return "ptr"
    if isinstance(stripped, CArray):
        return "ptr"
    if isinstance(stripped, CStruct):
        return f"{stripped.kind_name}:{stripped.tag}"
    if isinstance(stripped, CFunc):
        return "fn" + stripped.signature()
    return str(stripped)


def types_compatible(left: CType, right: CType) -> bool:
    """Structural compatibility used by Deputy's cast rules."""
    a, b = left.strip(), right.strip()
    if isinstance(a, CVoid) or isinstance(b, CVoid):
        return isinstance(a, CVoid) and isinstance(b, CVoid)
    if isinstance(a, (CInt, CEnum)) and isinstance(b, (CInt, CEnum)):
        return a.size == b.size
    if isinstance(a, CFloat) and isinstance(b, CFloat):
        return a.size == b.size
    if isinstance(a, CPointer) and isinstance(b, CPointer):
        at, bt = a.target.strip(), b.target.strip()
        if isinstance(at, CVoid) or isinstance(bt, CVoid):
            return True
        return types_compatible(a.target, b.target)
    if isinstance(a, CArray) and isinstance(b, CArray):
        return types_compatible(a.element, b.element)
    if isinstance(a, CStruct) and isinstance(b, CStruct):
        return a is b or (a.tag == b.tag and a.is_union == b.is_union)
    if isinstance(a, CFunc) and isinstance(b, CFunc):
        return a.signature() == b.signature()
    return False


# Commonly used type singletons.
VOID = CVoid()
CHAR = CInt("char", signed=True)
UCHAR = CInt("char", signed=False)
SHORT = CInt("short", signed=True)
USHORT = CInt("short", signed=False)
INT = CInt("int", signed=True)
UINT = CInt("int", signed=False)
LONG = CInt("long", signed=True)
ULONG = CInt("long", signed=False)
LONGLONG = CInt("longlong", signed=True)
ULONGLONG = CInt("longlong", signed=False)
BOOL = CInt("bool", signed=False)


def pointer_to(target: CType, annotations: AnnotationSet | None = None) -> CPointer:
    """Construct a pointer type to ``target``."""
    return CPointer(target, annotations or AnnotationSet())


def void_pointer() -> CPointer:
    return pointer_to(VOID)


def common_arithmetic_type(left: CType, right: CType) -> CType:
    """The usual arithmetic conversions, simplified for MiniC."""
    a, b = left.strip(), right.strip()
    if isinstance(a, CFloat) or isinstance(b, CFloat):
        return CFloat(double=True)
    if not (isinstance(a, (CInt, CEnum)) and isinstance(b, (CInt, CEnum))):
        raise TypeError_(f"cannot combine {left} and {right} arithmetically")
    size = max(a.size, b.size, 4)
    signed_a = a.signed if isinstance(a, CInt) else True
    signed_b = b.signed if isinstance(b, CInt) else True
    signed = signed_a and signed_b
    kind = {4: "int", 8: "longlong"}[size]
    return CInt(kind, signed=signed)
