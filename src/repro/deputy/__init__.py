"""Deputy: dependent pointer types and hybrid memory-safety checking."""

from .checker import (
    Decision,
    DeputyOptions,
    FunctionCheckResult,
    Obligation,
    ObligationKind,
    ObligationStatus,
    check_program,
)
from .instrument import (
    DeputyInstrumenter,
    InstrumentationResult,
    instrument_program,
)
from .optimizer import CheckCache
from .report import ConversionReport, build_report
from .runtime import CHECK_BUILTINS, DeputyRuntimeStats, install
from .typesystem import (
    DeputyError,
    PointerFacts,
    PointerKind,
    TypeEnv,
    compatible_pointer_cast,
    pointer_facts,
)

__all__ = [
    "Decision", "DeputyOptions", "FunctionCheckResult", "Obligation",
    "ObligationKind", "ObligationStatus", "check_program",
    "DeputyInstrumenter", "InstrumentationResult", "instrument_program",
    "CheckCache",
    "ConversionReport", "build_report",
    "CHECK_BUILTINS", "DeputyRuntimeStats", "install",
    "DeputyError", "PointerFacts", "PointerKind", "TypeEnv",
    "compatible_pointer_cast", "pointer_facts",
]
