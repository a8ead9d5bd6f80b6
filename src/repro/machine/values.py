"""Typed run-time values.

The interpreter evaluates every expression to a :class:`TypedValue`: a plain
Python number paired with the MiniC static type it was produced at.  Pointers
are integers (flat addresses from :mod:`repro.machine.memory`); aggregate
(struct/array) expressions evaluate to the *address* of the aggregate, which
is all the assignment and call machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..minic.ctypes import (
    CArray,
    CEnum,
    CFloat,
    CFunc,
    CInt,
    CPointer,
    CStruct,
    CType,
    CVoid,
    INT,
)

Number = Union[int, float]


@dataclass(frozen=True)
class TypedValue:
    """A run-time value together with its static type."""

    value: Number
    ctype: CType

    def as_int(self) -> int:
        return int(self.value)

    def as_bool(self) -> bool:
        return bool(self.value)

    def __repr__(self) -> str:
        return f"TypedValue({self.value!r}, {self.ctype})"


#: The canonical void result of expression statements and void calls.
VOID_VALUE = TypedValue(0, CVoid())


def int_value(value: int, ctype: CType = INT) -> TypedValue:
    return TypedValue(int(value), ctype)


def pointer_value(addr: int, ctype: CType) -> TypedValue:
    return TypedValue(int(addr), ctype)


def convert(value: Number, to_type: CType) -> Number:
    """Convert ``value`` to the representation of ``to_type`` (C semantics)."""
    stripped = to_type.strip()
    if isinstance(stripped, CFloat):
        return float(value)
    if isinstance(stripped, CInt):
        return stripped.wrap(int(value))
    if isinstance(stripped, CEnum):
        return int(value) & 0xFFFFFFFF
    if isinstance(stripped, (CPointer, CArray, CFunc)):
        return int(value) & 0xFFFFFFFF
    if isinstance(stripped, CVoid):
        return 0
    if isinstance(stripped, CStruct):
        # Struct values are represented by their address.
        return int(value)
    return value


def load_size(ctype: CType) -> int:
    """How many bytes a scalar of ``ctype`` occupies in memory."""
    stripped = ctype.strip()
    if isinstance(stripped, (CPointer, CArray)):
        return 4
    return stripped.size


def is_signed(ctype: CType) -> bool:
    stripped = ctype.strip()
    if isinstance(stripped, CInt):
        return stripped.signed
    if isinstance(stripped, CEnum):
        return True
    return False
