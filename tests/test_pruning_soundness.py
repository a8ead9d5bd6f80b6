"""Pruned edges and solved facts checked against real execution.

The product solve marks a branch edge infeasible when some domain proves it
dead, and every client lattice (BlockStop, lockcheck, errcheck, the
summaries) then skips it.  A pruned edge that runs hides whatever sits
behind it.  These tests run functions on the abstract machine and check the
solved facts against what happened:

* four probes where an assignment under ``&&``/``?:``, or a second
  assignment in one comma expression, reads a constant an earlier effect of
  the same element moved;
* BlockStop over the first probe's shape with a blocking call behind the
  branch, and over a twin without the short circuit;
* a generated oracle: small straight-line functions built from assignments,
  ``++``/``--``, comma, ``&&``, ``||`` and ``?:``, run with a few
  arguments.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.cfg import RETURN, build_cfg
from repro.dataflow.domains import solve_function_facts
from repro.engine.core import AnalysisEngine
from repro.kernel.build import parse_corpus
from repro.kernel.corpus import CorpusFile
from repro.machine.interpreter import Interpreter

PROBES = r"""
int f(void) {
    int x;
    int i;
    x = 1;
    i = 0;
    x = 0, (x && (i = 5));
    if (i < 3) return 7;
    return 0;
}
int g(void) {
    int x;
    int i;
    x = 1;
    i = 0;
    x = 0, (x ? (i = 5) : 0);
    if (i < 3) return 7;
    return 0;
}
int h(int n, int i) {
    int x;
    x = 1;
    x = 0, (x && (i = n + 5));
    if (i < n + 3) return 7;
    return 0;
}
int k(void) {
    int x;
    int i;
    x = 1;
    x = 5, i = x + 1;
    if (i < 3) return 7;
    return 0;
}
"""


def _edge(cfg, truth: bool) -> tuple[int, int]:
    """``(block, successor position)`` of the one condition's ``truth`` edge."""
    (block,) = [b for b in cfg.blocks if b.condition_element() is not None]
    label = "true" if truth else "false"
    (pos,) = [pos for pos, edge in enumerate(block.succs) if edge.label == label]
    return block.index, pos


@pytest.mark.parametrize(
    "name, args, returned",
    [
        ("f", (), 7),  # intervals pruned the true edge
        ("g", (), 7),  # the same, through a ternary arm
        ("h", (1, 0), 7),  # octagons alone pruned the true edge
        ("k", (), 0),  # intervals pruned the false edge
    ],
)
def test_the_edge_taken_is_not_pruned(name, args, returned):
    program = parse_corpus((CorpusFile("probes.c", PROBES),))
    func = program.functions[name]
    cfg = build_cfg(func)
    facts = solve_function_facts(func, cfg)
    assert Interpreter(program).run(name, *args).as_int() == returned
    assert _edge(cfg, returned == 7) not in facts.infeasible


BLOCKING_PAIR = r"""
void schedule(void) blocking;
void f(void) {
    int x;
    int i;
    x = 1;
    i = 0;
    cli();
    x = 0, (x && (i = 5));
    if (i < 3) {
        schedule();
    }
    sti();
}
void f_plain(void) {
    int x;
    int i;
    x = 1;
    i = 0;
    cli();
    x = 0;
    if (x) {
        i = 5;
    }
    if (i < 3) {
        schedule();
    }
    sti();
}
"""


def test_blockstop_sees_the_blocking_call_behind_a_short_circuit():
    engine = AnalysisEngine(files=(CorpusFile("pair.c", BLOCKING_PAIR),))
    findings = engine.run(["blockstop"]).analyses["blockstop"].findings
    assert sorted(finding["function"] for finding in findings) == ["f", "f_plain"]


# ---------------------------------------------------------------------------
# The run-time oracle
# ---------------------------------------------------------------------------

LOCALS = ("a", "b", "c")
TRACKED = LOCALS + ("p",)
COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")

small = st.integers(min_value=-2, max_value=6)
tracked = st.sampled_from(TRACKED)
pure = st.one_of(
    small.map(str),
    tracked,
    st.builds("{} {} {}".format, tracked, st.sampled_from(("+", "-")), st.integers(0, 3)),
)
atomic_effects = st.one_of(
    st.builds("({} {} {})".format, tracked, st.sampled_from(("=", "+=", "-=")), pure),
    st.builds("{}{}".format, tracked, st.sampled_from(("++", "--"))),
    st.builds("{}{}".format, st.sampled_from(("++", "--")), tracked),
)


def _compound(effects):
    condition = st.one_of(
        pure,
        st.builds("{} {} {}".format, pure, st.sampled_from(COMPARISONS), pure),
        effects,
    )
    return st.one_of(
        st.builds("({}, {})".format, effects, effects),
        st.builds("({} && {})".format, condition, effects),
        st.builds("({} || {})".format, condition, effects),
        st.builds("({} ? {} : {})".format, condition, effects, effects),
    )


effects = st.recursive(atomic_effects, _compound, max_leaves=6)


@st.composite
def functions(draw):
    """The source of ``int oracle(int p)`` and its ending's kind."""
    lines = [f"    int {name} = {draw(small)};" for name in LOCALS]
    lines += [f"    {draw(effects)};" for _ in range(draw(st.integers(1, 3)))]
    result = draw(tracked)
    if draw(st.booleans()):
        op = draw(st.sampled_from(COMPARISONS))
        lines += [f"    if ({result} {op} {draw(small)}) return 1;", "    return 0;"]
        ending = "branch"
    else:
        # The label starts the return's own block, so the solved facts at
        # that block hold the state after the body.
        lines += ["out:", f"    return {result};"]
        ending = result
    return "int oracle(int p) {\n" + "\n".join(lines) + "\n}\n", ending


@settings(max_examples=150, derandomize=True, deadline=None)
@given(functions())
def test_solved_facts_hold_on_every_run(case):
    source, ending = case
    program = parse_corpus((CorpusFile("oracle.c", source),))
    func = program.functions["oracle"]
    cfg = build_cfg(func)
    facts = solve_function_facts(func, cfg)
    for argument in (-1, 0, 3):
        returned = Interpreter(program).run("oracle", argument).as_int()
        if ending == "branch":
            assert _edge(cfg, returned == 1) not in facts.infeasible, source
            continue
        (block,) = [b for b in cfg.blocks if b.elements and b.elements[0].kind == RETURN]
        assert block.index in facts.reachable, source
        constant = dict(facts.in_envs[block.index]).get(ending)
        assert constant is None or constant == returned, source
        lo, hi = dict(facts.interval_envs.get(block.index, ())).get(ending, (None, None))
        assert (lo is None or lo <= returned) and (hi is None or returned <= hi), source
