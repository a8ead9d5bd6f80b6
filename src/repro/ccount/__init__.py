"""CCount: reference-count verification of manual memory management."""

from .delayed_free import (
    count_delayed_scopes,
    count_pointer_nullouts,
    count_rtti_sites,
    delayed_free_scope,
)
from .instrument import (
    CCountInstrumentationResult,
    CCountInstrumenter,
    instrument_program,
)
from .report import (
    CCountConversionReport,
    CCountRunReport,
    build_conversion_report,
    build_run_report,
)
from .runtime import BadFree, CCountConfig, CCountRuntime, CCountStats, install
from .typeinfo import TypeInfoRegistry, TypeLayout, build_typeinfo, typeid_constants

__all__ = [
    "delayed_free_scope", "count_delayed_scopes", "count_pointer_nullouts",
    "count_rtti_sites",
    "CCountInstrumentationResult", "CCountInstrumenter", "instrument_program",
    "CCountConversionReport", "CCountRunReport", "build_conversion_report",
    "build_run_report",
    "BadFree", "CCountConfig", "CCountRuntime", "CCountStats", "install",
    "TypeInfoRegistry", "TypeLayout", "build_typeinfo", "typeid_constants",
]
