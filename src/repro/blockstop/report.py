"""BlockStop reports: the §2.3 numbers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .checker import BlockStopResult, Violation


@dataclass
class BlockStopReport:
    """Summary of one BlockStop run over the kernel."""

    functions_analyzed: int = 0
    blocking_functions: int = 0
    blocking_seeds: int = 0
    indirect_edges: int = 0
    atomic_call_sites: int = 0
    violations_reported: int = 0
    violations_silenced: int = 0
    irq_handlers: int = 0
    asm_functions: int = 0
    runtime_checks: int = 0
    precision: str = "type_based"
    reported: list[Violation] = field(default_factory=list)
    silenced: list[Violation] = field(default_factory=list)

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("points-to precision", self.precision),
            ("functions analyzed", str(self.functions_analyzed)),
            ("annotated blocking seeds", str(self.blocking_seeds)),
            ("functions that may block", str(self.blocking_functions)),
            ("indirect call edges", str(self.indirect_edges)),
            ("interrupt handlers found", str(self.irq_handlers)),
            ("calls in atomic context", str(self.atomic_call_sites)),
            ("violations reported", str(self.violations_reported)),
            ("violations silenced by run-time checks", str(self.violations_silenced)),
            ("manual run-time checks", str(self.runtime_checks)),
            ("functions with inline asm (opaque)", str(self.asm_functions)),
        ]

    def __str__(self) -> str:
        lines = [f"{key:>42}: {value}" for key, value in self.rows()]
        if self.reported:
            lines.append("reported violations:")
            lines.extend("  " + v.describe() for v in self.reported)
        return "\n".join(lines)


def build_report(result: BlockStopResult) -> BlockStopReport:
    """Summarise a :class:`BlockStopResult`."""
    return BlockStopReport(
        functions_analyzed=len(result.graph),
        blocking_functions=len(result.blocking.may_block),
        blocking_seeds=len(result.blocking.seeds) + len(result.blocking.conditional_seeds),
        indirect_edges=sum(len(callees)
                           for callees in result.graph.indirect.values()),
        atomic_call_sites=len(result.atomic_call_sites),
        violations_reported=len(result.reported),
        violations_silenced=len(result.silenced),
        irq_handlers=len(result.irq_handlers),
        asm_functions=len(result.asm_functions),
        runtime_checks=len(result.runtime_checks),
        precision=result.precision.name.lower(),
        reported=list(result.reported),
        silenced=list(result.silenced),
    )
