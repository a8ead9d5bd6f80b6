"""The paper's proposed future analyses (§3.1): locks, stack depth, error codes."""

from .errcheck import (
    ErrcheckReport,
    UncheckedCall,
    check_error_returns,
    find_error_returning_functions,
)
from .lockcheck import (
    LockAcquisition,
    LockFacts,
    LockLeak,
    LockReport,
    analyse_locks,
    check_locks,
    derive_report,
)
from .stackcheck import KERNEL_STACK_BYTES, StackReport, analyse_stack, frame_size

__all__ = [
    "ErrcheckReport", "UncheckedCall", "check_error_returns",
    "find_error_returning_functions",
    "LockAcquisition", "LockFacts", "LockLeak", "LockReport", "analyse_locks",
    "check_locks", "derive_report",
    "KERNEL_STACK_BYTES", "StackReport", "analyse_stack", "frame_size",
]
