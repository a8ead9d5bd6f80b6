"""The mini-kernel: corpus, build system, boot and workloads."""

from .boot import KernelInstance, boot_kernel
from .build import (
    BuildConfig,
    KernelBuild,
    build_kernel,
    parse_corpus,
)
from .corpus import (
    ALL_FILES,
    BOOT_SEQUENCE,
    KERNEL_FILES,
    USER_FILES,
    CorpusFile,
    corpus_line_count,
    kernel_line_count,
)
from .workloads import (
    WorkloadResult,
    workload_boot_to_login,
    workload_deferred_work,
    workload_fork,
    workload_light_use,
    workload_module_load,
)

__all__ = [
    "KernelInstance", "boot_kernel",
    "BuildConfig", "KernelBuild", "build_kernel", "parse_corpus",
    "ALL_FILES", "BOOT_SEQUENCE", "KERNEL_FILES", "USER_FILES", "CorpusFile",
    "corpus_line_count", "kernel_line_count",
    "WorkloadResult", "workload_boot_to_login", "workload_deferred_work",
    "workload_fork", "workload_light_use", "workload_module_load",
]
