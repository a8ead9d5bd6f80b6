"""The consts × intervals × octagons product fixpoint: same facts, less work.

``solve_function_facts`` skips elements no transfer can move and shares one
block transfer per input tuple and one edge refinement per out-state tuple
between the worklist solve, the narrowing rounds and the recording pass.
These tests pin that down three ways:

* against a test-local copy of the algorithm without those shortcuts (it
  walks every element, re-transfers in narrowing, and refines per domain
  again while recording), every function's facts are equal, field by
  field, on the seed corpus, two synthetic corpora and a file of shapes they
  lack, under the full product and the two prefixes the benchmark solves;
* the product walk returns its input states for every element the skip
  leaves out, and every domain its input state on every edge without a
  usable condition, which the solve does not refine;
* the work counts (walk steps, edge refinements per domain, side-effect
  walks per condition) stay under bounds, and repeat exactly.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.dataflow import cfg as cfg_module
from repro.dataflow import consts as consts_module
from repro.dataflow import domains as domains_module
from repro.dataflow import intervals as intervals_module
from repro.dataflow import octagons as octagons_module
from repro.dataflow.cfg import build_cfg
from repro.dataflow.consts import (
    CONST_SOLVE_COUNTS,
    reset_const_solve_counts,
    trackable_names,
)
from repro.dataflow.domains import (
    DEFAULT_DOMAINS,
    DOMAIN_REGISTRY,
    NARROW_ROUNDS,
    FunctionFacts,
    ProductWalk,
    moves_state,
    solve_function_facts,
    solve_program_facts,
)
from repro.dataflow.solver import INFEASIBLE, solve_forward
from repro.kernel.build import parse_corpus
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.kernel.synth import generate_corpus

#: The domain tuples every engine path and the benchmark's per-domain split
#: solve: the full product and its two prefixes.
DOMAIN_SETS = (DEFAULT_DOMAINS, ("consts",), ("consts", "intervals"))

#: Shapes the kernel corpora lack: pruning only intervals or only octagons
#: prove, conditions with side effects or a comma, switch dispatch, and a
#: widened loop whose bound the narrowing rounds refill.
SHAPES = """
int f(int x);
int interval_only(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) {
        if (i < 0) s = s + 1;
        s += i;
    }
    return s;
}
int octagon_only(int a, int b) {
    if (a < b) {
        if (b < a) return 1;
        if (a == b) return 2;
    }
    return 0;
}
int relate(int n) {
    int limit = n - 1;
    int k;
    for (k = 0; k < limit; k++) f(k);
    return limit;
}
int effects(int x) {
    int mode = 2;
    switch (mode) {
    case 1: x = 1; break;
    case 2: x = 2; break;
    default: x = 3;
    }
    while (x++ < 10) f(x);
    if ((f(x), x > 3)) f(0);
    if (x = 0) f(1);
    return x;
}
int dead(int x) {
    if (0) { x = 5; }
    do { x--; } while (0);
    return x;
}
int narrowed(void) {
    int j = 0;
    while (j < 100) j++;
    if (j > 100) return 1;
    return j;
}
"""

CORPORA = {
    "seed": lambda: KERNEL_FILES,
    "synth-2-3": lambda: generate_corpus(2, 3),
    "synth-2-11": lambda: generate_corpus(2, 11),
    "shapes": lambda: (CorpusFile("shapes.c", SHAPES),),
}


@pytest.fixture(scope="module")
def programs():
    return {name: parse_corpus(files()) for name, files in CORPORA.items()}


def _branchy(program):
    return [(name, func) for name, func in program.functions_subset()
            if program.syntax(name).has_branches]


# ---------------------------------------------------------------------------
# The reference: the product solve without skipping or memoization
# ---------------------------------------------------------------------------

def reference_solve(func, domains, syntax) -> FunctionFacts:
    """Solve ``func``'s product facts the plain way (the reference)."""
    cfg = build_cfg(func)
    safe = trackable_names(func, syntax)
    insts = [DOMAIN_REGISTRY[name](func, cfg, safe) for name in domains]
    walk = ProductWalk(insts, safe)

    def transfer(block, states):
        for element in block.elements:
            states = walk.element(element, states)
        return states

    def join(a, b):
        return tuple(d.join(x, y) for d, x, y in zip(insts, a, b))

    def widen(old, new):
        return tuple(d.widen(x, y) for d, x, y in zip(insts, old, new))

    def refine(block, pos, edge, states):
        snapshot = {d.name: s for d, s in zip(insts, states)}
        refined = []
        for d, s in zip(insts, states):
            outcome = d.refine_edge(block, pos, edge, s, snapshot)
            if outcome is INFEASIBLE:
                return INFEASIBLE
            refined.append(outcome)
        return tuple(refined)

    entry = tuple(d.initial() for d in insts)
    in_states = solve_forward(cfg, transfer, join, entry, edge_refine=refine, widen=widen)
    _reference_narrow(cfg, insts, transfer, join, refine, in_states)
    return _reference_record(cfg, domains, insts, transfer, in_states)


def _reference_narrow(cfg, insts, transfer, join, refine, in_states) -> None:
    preds = [[] for _ in cfg.blocks]
    for block in cfg.blocks:
        for pos, edge in enumerate(block.succs):
            preds[edge.target].append((block.index, pos, edge))
    for _ in range(NARROW_ROUNDS):
        changed = False
        for block in cfg.blocks:
            index = block.index
            if index == cfg.entry or in_states[index] is None:
                continue
            merged = None
            for pred_index, pos, edge in preds[index]:
                pred_state = in_states[pred_index]
                if pred_state is None:
                    continue
                out_state = transfer(cfg.blocks[pred_index], pred_state)
                refined = refine(cfg.blocks[pred_index], pos, edge, out_state)
                if refined is INFEASIBLE:
                    continue
                merged = refined if merged is None else join(merged, refined)
            if merged is None:
                continue
            narrowed = tuple(
                d.narrow(old, new) for d, old, new in zip(insts, in_states[index], merged))
            if narrowed != in_states[index]:
                in_states[index] = narrowed
                changed = True
        if not changed:
            break


def _reference_record(cfg, domains, insts, transfer, in_states) -> FunctionFacts:
    result = FunctionFacts(
        function=cfg.function, domains=tuple(domains), block_count=len(cfg.blocks))
    by_name = {d.name: i for i, d in enumerate(insts)}
    const_slot = by_name.get("consts")
    interval_slot = by_name.get("intervals")
    octagon_slot = by_name.get("octagons")
    infeasible, interval_pruned, octagon_pruned = set(), set(), set()
    for block in cfg.blocks:
        states = in_states[block.index]
        if states is None:
            continue
        if const_slot is not None:
            result.in_envs[block.index] = insts[const_slot].freeze(states[const_slot])
        if interval_slot is not None:
            frozen = insts[interval_slot].freeze(states[interval_slot])
            if frozen:
                result.interval_envs[block.index] = frozen
        if octagon_slot is not None:
            frozen = insts[octagon_slot].freeze(states[octagon_slot])
            if frozen:
                result.octagon_envs[block.index] = frozen
        out_states = transfer(block, states)
        snapshot = {d.name: s for d, s in zip(insts, out_states)}
        for pos, edge in enumerate(block.succs):
            pruned_by = None
            oct_refined = None
            for d, s in zip(insts, out_states):
                outcome = d.refine_edge(block, pos, edge, s, snapshot)
                if outcome is INFEASIBLE:
                    pruned_by = d.name
                    break
                if d.name == "octagons":
                    oct_refined = outcome
            if pruned_by is not None:
                infeasible.add((block.index, pos))
                if pruned_by == "intervals":
                    interval_pruned.add((block.index, pos))
                elif pruned_by == "octagons":
                    octagon_pruned.add((block.index, pos))
                continue
            if const_slot is not None:
                facts = insts[const_slot].edge_facts(block, pos, edge, out_states[const_slot])
                if facts and facts is not INFEASIBLE:
                    result.edge_facts[(block.index, pos)] = facts
            if octagon_slot is not None and oct_refined is not None:
                out_env = out_states[octagon_slot]
                delta = {key: bound for key, bound in oct_refined.items()
                         if out_env.get(key) is None or bound < out_env[key]}
                if delta:
                    result.octagon_edge_facts[(block.index, pos)] = tuple(
                        sorted((a, b, c) for (a, b), c in delta.items()))
    result.infeasible = frozenset(infeasible)
    result.interval_pruned = frozenset(interval_pruned)
    result.octagon_pruned = frozenset(octagon_pruned)
    return result


class TestMatchesReference:
    @pytest.mark.parametrize("domains", DOMAIN_SETS, ids="+".join)
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_every_function_has_the_reference_facts(self, programs, corpus, domains):
        program = programs[corpus]
        functions = _branchy(program)
        assert functions
        for name, func in functions:
            syntax = program.syntax(name)
            solved = solve_function_facts(func, None, domains, syntax)
            expected = reference_solve(func, domains, syntax)
            assert solved == expected, name
            # Equal dicts may still differ in order; persisted artifacts
            # are compared byte for byte, so the order must hold too.
            assert repr(solved) == repr(expected), name

    def test_the_reference_prunes_and_relates(self, programs):
        # The comparison is only as strong as what the corpora exercise:
        # each component must prune or relate somewhere.
        facts = [reference_solve(func, DEFAULT_DOMAINS, program.syntax(name))
                 for program in programs.values() for name, func in _branchy(program)]
        assert any(f.octagon_pruned for f in facts)
        assert any(f.infeasible - f.interval_pruned - f.octagon_pruned for f in facts)
        assert any(f.interval_pruned for f in facts)
        assert any(f.octagon_envs for f in facts)
        assert any(f.edge_facts for f in facts)
        assert any(f.octagon_edge_facts for f in facts)

    def test_one_const_solve_per_function(self, programs):
        program = programs["seed"]
        reset_const_solve_counts()
        solve_program_facts(program)
        assert CONST_SOLVE_COUNTS == Counter(name for name, _ in _branchy(program))


# ---------------------------------------------------------------------------
# The identity rule: the walk leaves effect-free elements alone
# ---------------------------------------------------------------------------

def _solved(program, fname, func):
    """``(cfg, safe, domains, in_states)`` of ``func``'s solve with every
    registered domain in the product."""
    captured = {}
    record = domains_module._record

    def capture(cfg, domains, insts, transfer, edge_outcome, in_states):
        captured.update(insts=insts, in_states=list(in_states))
        return record(cfg, domains, insts, transfer, edge_outcome, in_states)

    cfg = build_cfg(func)
    domains_module._record = capture
    try:
        solve_function_facts(func, cfg, tuple(DOMAIN_REGISTRY), program.syntax(fname))
    finally:
        domains_module._record = record
    safe = trackable_names(func, program.syntax(fname))
    return cfg, safe, captured["insts"], captured["in_states"]


def _identity_check(program) -> tuple[int, list[tuple[str, str]]]:
    """Walk every element of every reachable block, every registered domain
    in the product, from the block's solved input states.  Returns how many
    elements :func:`moves_state` rejected, and ``(function, element kind)``
    wherever the walk returned anything but its input tuple for one."""
    checked = 0
    violations = []
    for fname, func in _branchy(program):
        cfg, safe, insts, in_states = _solved(program, fname, func)
        walk = ProductWalk(insts, safe)
        for block in cfg.blocks:
            current = in_states[block.index]
            if current is None:
                continue
            for element in block.elements:
                after = walk.element(element, current)
                if not moves_state(element, safe):
                    checked += 1
                    if after is not current:
                        violations.append((fname, element.kind))
                current = after
    return checked, violations


class TestIdentityRule:
    @pytest.mark.parametrize("corpus", ["seed", "shapes"])
    def test_every_registered_domain_keeps_skipped_elements_fixed(self, programs, corpus):
        checked, violations = _identity_check(programs[corpus])
        assert checked > 10  # the rule is exercised, not vacuous
        assert violations == []


# ---------------------------------------------------------------------------
# The edge rule: an edge without a usable condition keeps its out-state
# ---------------------------------------------------------------------------

def _edge_rule_check(program) -> tuple[int, int, list[tuple[str, str, int]]]:
    """Refine every out-edge of every reachable block on which
    ``block.branch`` is ``None``, with every registered domain, from the
    block's solved out-states.  Returns how many such edges there were, how
    many of them leave a condition that assigns or increments, and
    ``(function, domain, block)`` wherever a domain returned anything but
    its input state."""
    checked = effectful = 0
    violations = []
    for fname, func in _branchy(program):
        cfg, safe, insts, in_states = _solved(program, fname, func)
        walk = ProductWalk(insts, safe)
        for block in cfg.blocks:
            states = in_states[block.index]
            if states is None:
                continue
            for element in block.elements:
                states = walk.element(element, states)
            snapshot = {d.name: s for d, s in zip(insts, states)}
            for pos, edge in enumerate(block.succs):
                if block.branch(edge) is not None:
                    continue
                checked += 1
                effectful += block.condition_element() is not None
                for d, state in zip(insts, states):
                    if d.refine_edge(block, pos, edge, state, snapshot) is not state:
                        violations.append((fname, d.name, block.index))
    return checked, effectful, violations


class TestEdgeRule:
    @pytest.mark.parametrize("corpus", ["seed", "shapes"])
    def test_every_registered_domain_keeps_an_unconditioned_edge(self, programs, corpus):
        checked, effectful, violations = _edge_rule_check(programs[corpus])
        assert checked > 10  # the rule is exercised, not vacuous
        if corpus == "shapes":
            assert effectful > 0  # ``while (x++ < 10)`` and ``if (x = 0)``
        assert violations == []


# ---------------------------------------------------------------------------
# Deterministic work counts: evaluations of the transfer per solve
# ---------------------------------------------------------------------------

def _counting(cls, counts: Counter):
    """``cls`` with its ``refine_edge`` calls counted."""

    class Counting(cls):
        def refine_edge(self, block, pos, edge, state, product):
            counts[self.name, "refine_edge"] += 1
            return super().refine_edge(block, pos, edge, state, product)

    return Counting


@pytest.fixture
def work(monkeypatch):
    """Count walk steps, and edge refinements per domain."""
    counts: Counter = Counter()
    for key, cls in list(DOMAIN_REGISTRY.items()):
        monkeypatch.setitem(DOMAIN_REGISTRY, key, _counting(cls, counts))
    step = ProductWalk.element

    def counting_step(self, element, states):
        counts["walk"] += 1
        return step(self, element, states)

    monkeypatch.setattr(ProductWalk, "element", counting_step)
    return counts


class TestWorkCounts:
    def test_seed_corpus_transfers_and_refinements(self, programs, work):
        solve_program_facts(programs["seed"])
        # Without skipping and memoization: 4,635 walk steps.
        assert work["walk"] <= 1_100
        for name in DEFAULT_DOMAINS:
            # Without the edge memo: about 3,573 (consts), 3,543 (intervals)
            # and 3,503 (octagons) refinements; without the edge rule, 1,850,
            # 1,826 and 1,786.
            assert work[name, "refine_edge"] <= 1_000, name
        first = Counter(work)
        work.clear()
        solve_program_facts(programs["seed"])
        assert work == first  # counts repeat exactly

    def test_effect_free_branches_transfer_nothing(self, work):
        program = parse_corpus((CorpusFile("pick.c", """
        int f(int x);
        int g(int x);
        void pick(int x) { if (x > 0) f(x); else g(x); }
        """),))
        facts = solve_function_facts(program.functions["pick"])
        assert facts.reachable
        assert work["walk"] == 0
        assert all(work[name, "refine_edge"] > 0 for name in DEFAULT_DOMAINS)

    def test_each_condition_is_walked_once_per_solve(self, programs, monkeypatch):
        walks: Counter = Counter()
        walker = cfg_module.expr_has_side_effects

        def counting(expr):
            walks[id(expr)] += 1
            return walker(expr)

        monkeypatch.setattr(cfg_module, "expr_has_side_effects", counting)
        for module in (consts_module, intervals_module, octagons_module):
            monkeypatch.setattr(module, "_has_side_effects", counting)
        program = programs["seed"]
        conditions = 0
        for name, func in _branchy(program):
            cfg = build_cfg(func)
            walks.clear()
            solve_function_facts(func, cfg, DEFAULT_DOMAINS, program.syntax(name))
            for block in cfg.blocks:
                element = block.condition_element()
                if element is not None and element.expr is not None:
                    conditions += 1
                    assert walks[id(element.expr)] <= 1, name
        assert conditions > 200
