"""Shared fixtures: parsed corpus and booted kernels are expensive, so they
are built once per session and reused by read-only tests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation, and
# let test modules import this directory's helpers (``reference``).
for _path in (Path(__file__).resolve().parent.parent / "src",
              Path(__file__).resolve().parent):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.kernel.boot import boot_kernel  # noqa: E402
from repro.kernel.build import BuildConfig, parse_corpus  # noqa: E402
from repro.kernel.corpus import KERNEL_FILES  # noqa: E402


@pytest.fixture(scope="session")
def kernel_program():
    """The parsed (uninstrumented) kernel corpus."""
    return parse_corpus(KERNEL_FILES)


@pytest.fixture(scope="session")
def kernel_artifacts(kernel_program):
    """The from-scratch artifact bundle of the kernel corpus, which every
    checker entry reads."""
    from repro.engine import build_shared_artifacts

    return build_shared_artifacts(kernel_program)


@pytest.fixture(scope="session")
def baseline_kernel():
    """A booted baseline kernel shared by read-mostly tests."""
    return boot_kernel(BuildConfig(), reset_cycles_after_boot=True)


@pytest.fixture(scope="session")
def deputy_kernel():
    """A booted Deputy-instrumented kernel shared by read-mostly tests."""
    return boot_kernel(BuildConfig(deputy=True), reset_cycles_after_boot=True)


@pytest.fixture(scope="session")
def ccount_kernel():
    """A booted CCount-instrumented kernel shared by read-mostly tests."""
    return boot_kernel(BuildConfig(ccount=True), reset_cycles_after_boot=True)
