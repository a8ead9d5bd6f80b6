"""The shared annotation vocabulary used by Deputy, CCount and BlockStop."""

from .attrs import (
    BLOCKSTOP_KINDS,
    DEPUTY_KINDS,
    FUTURE_KINDS,
    KEYWORD_TO_KIND,
    KIND_TO_KEYWORD,
    NULLARY_KINDS,
    Annotation,
    AnnotationKind,
    AnnotationSet,
    empty,
)
from .erase import erase_type, erase_unit, erased_source

__all__ = [
    "Annotation", "AnnotationKind", "AnnotationSet", "empty",
    "KEYWORD_TO_KIND", "KIND_TO_KEYWORD", "NULLARY_KINDS",
    "DEPUTY_KINDS", "BLOCKSTOP_KINDS", "FUTURE_KINDS",
    "erase_type", "erase_unit", "erased_source",
]
