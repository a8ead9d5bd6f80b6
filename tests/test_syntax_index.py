"""Tests for the cheap AST traversal and the per-function syntax index.

The traversal is checked against the recursive reference implementation it
replaced (kept below verbatim), node for node and by identity.  Every
:class:`FunctionSyntax` field is checked against the per-site body walk it
replaced, over the seed corpus and a generated one.  The incremental
analyzer must re-index exactly the functions of re-parsed units and still
report byte-identically with a cold engine.
"""

from __future__ import annotations

import copy
import json
import shutil
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import repro
from repro.annotations.attrs import AnnotationKind
from repro.dataflow.consts import has_branches, trackable_names
from repro.dataflow.summaries import FRAME_OVERHEAD, function_frame_size
from repro.deputy import instrument as deputy_instrument
from repro.deputy.typesystem import TypeEnv
from repro.engine import AnalysisEngine
from repro.kernel.build import parse_corpus
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.kernel.synth import generate_corpus
from repro.machine.interpreter import ctype_size
from repro.minic import ast_nodes as ast
from repro.minic.ctypes import CArray
from repro.minic.pretty import PrettyPrinter
from repro.minic.syntax import index_function
from repro.minic.visitor import Transformer, iter_child_nodes, walk
from repro.service import AnalysisService, IncrementalAnalyzer

# ---------------------------------------------------------------------------
# The reference traversal: the recursive, reflective implementation the
# table-driven one replaced.
# ---------------------------------------------------------------------------


def reference_iter_child_nodes(node):
    if not is_dataclass(node):
        return
    for spec in fields(node):
        value = getattr(node, spec.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def reference_walk(node):
    yield node
    for child in reference_iter_child_nodes(node):
        yield from reference_walk(child)


class ReferenceTransformer:
    def visit(self, node):
        self._transform_children(node)
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            replacement = method(node)
            return node if replacement is None else replacement
        return node

    def _transform_children(self, node):
        if not is_dataclass(node):
            return
        for spec in fields(node):
            value = getattr(node, spec.name)
            if isinstance(value, ast.Node):
                setattr(node, spec.name, self.visit(value))
            elif isinstance(value, list):
                new_items = []
                for item in value:
                    if isinstance(item, ast.Node):
                        replacement = self.visit(item)
                        if isinstance(replacement, list):
                            new_items.extend(replacement)
                        else:
                            new_items.append(replacement)
                    else:
                        new_items.append(item)
                setattr(node, spec.name, new_items)


class _Rewrites:
    """Hooks exercising node replacement and list splicing."""

    def visit_IntLit(self, node):
        return ast.IntLit(value=node.value + 1, location=node.location)

    def visit_ExprStmt(self, node):
        return [node, ast.EmptyStmt(location=node.location)]


class NewRewriter(_Rewrites, Transformer):
    pass


class ReferenceRewriter(_Rewrites, ReferenceTransformer):
    pass


# ---------------------------------------------------------------------------
# The per-site walks the index replaced.
# ---------------------------------------------------------------------------


def reference_base_ident(expr):
    while isinstance(expr, (ast.Member, ast.Index)):
        expr = expr.base
    if isinstance(expr, ast.Cast):
        return reference_base_ident(expr.operand)
    return expr.name if isinstance(expr, ast.Ident) else None


def reference_trackable_names(func):
    names = {param.name for param in getattr(func.type.strip(), "params", [])
             if getattr(param, "name", None)}
    escaped = set()
    for node in reference_walk(func.body):
        if isinstance(node, ast.Declaration) and node.name and not node.is_typedef:
            if node.name in names:
                escaped.add(node.name)
            elif isinstance(node.type.strip(), CArray):
                escaped.add(node.name)
            else:
                names.add(node.name)
        elif isinstance(node, ast.Unary) and node.op == "&":
            name = reference_base_ident(node.operand)
            if name is not None:
                escaped.add(name)
    return frozenset(names - escaped)


def reference_has_branches(func):
    for node in reference_walk(func.body):
        if isinstance(node, (ast.If, ast.While, ast.DoWhile, ast.Switch)):
            return True
        if isinstance(node, ast.For) and node.cond is not None:
            return True
    return False


def reference_frame_size(func):
    total = FRAME_OVERHEAD
    for param in getattr(func.type.strip(), "params", []):
        total += max(ctype_size(param.type), 4)
    for node in reference_walk(func.body):
        if isinstance(node, ast.Declaration) and not node.is_typedef:
            try:
                total += max(ctype_size(node.type), 4)
            except Exception:
                total += 4
    return total


def _programs():
    return [("seed", parse_corpus(KERNEL_FILES)),
            ("synth-2", parse_corpus(generate_corpus(2, seed=11)))]


@pytest.fixture(scope="module")
def programs():
    return _programs()


def _same_nodes(left, right):
    left, right = list(left), list(right)
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


class TestTraversal:
    def test_walk_and_children_match_reference(self, programs):
        for _, program in programs:
            for unit in program.units:
                assert _same_nodes(walk(unit), reference_walk(unit))
                for node in walk(unit):
                    assert _same_nodes(iter_child_nodes(node),
                                       reference_iter_child_nodes(node))

    def test_transformer_output_unchanged(self, programs):
        printer = PrettyPrinter()

        def shape(func):
            # Rendered source plus every node's class and position (node
            # equality would chase the registry's cyclic struct types).
            return (printer.print_funcdef(func),
                    [(type(n).__name__, n.location.line, n.location.column)
                     for n in reference_walk(func)])

        rewritten = 0
        for _, program in programs:
            for func in program.functions.values():
                new = NewRewriter().visit(copy.deepcopy(func))
                reference = ReferenceRewriter().visit(copy.deepcopy(func))
                assert shape(new) == shape(reference)
                rewritten += shape(new) != shape(func)
        assert rewritten > 100

    def test_walk_is_not_bounded_by_recursion_depth(self):
        expr = ast.IntLit(value=0)
        for _ in range(5000):
            expr = ast.Unary(op="-", operand=expr)
        assert sum(1 for _ in walk(expr)) == 5001


class TestFunctionSyntax:
    def test_fields_match_per_site_walks(self, programs):
        for _, program in programs:
            for name, func in program.functions.items():
                syntax = program.syntax(name)
                body = list(reference_walk(func.body))
                assert _same_nodes(syntax.calls,
                                   [n for n in body if isinstance(n, ast.Call)])
                assert _same_nodes(syntax.assigns,
                                   [n for n in body if isinstance(n, ast.Assign)
                                    and n.op == "="])
                assert _same_nodes(syntax.declarations,
                                   [n for n in body
                                    if isinstance(n, ast.Declaration)])
                assert _same_nodes(syntax.returns,
                                   [n for n in body if isinstance(n, ast.Return)])
                assert syntax.address_taken == {
                    reference_base_ident(n.operand) for n in body
                    if isinstance(n, ast.Unary) and n.op == "&"} - {None}
                assert syntax.has_asm == any(isinstance(n, ast.Asm) for n in body)
                assert syntax.has_branches == reference_has_branches(func)

    def test_consumers_match_per_site_walks(self, programs):
        for _, program in programs:
            for name, func in program.functions.items():
                syntax = program.syntax(name)
                assert trackable_names(func, syntax) == reference_trackable_names(func)
                assert trackable_names(func) == reference_trackable_names(func)
                assert has_branches(func) == reference_has_branches(func)
                if not program.function_annotations(name).has(
                        AnnotationKind.STACKSIZE):
                    assert (function_frame_size(program, func)
                            == reference_frame_size(func))
                env = TypeEnv(program, func)
                declared = {n.name: n.type for n in reference_walk(func.body)
                            if isinstance(n, ast.Declaration) and not n.is_typedef}
                params = {p.name for p in getattr(func.type.strip(), "params", [])
                          if p.name}
                assert set(env.locals) == params | set(declared)
                assert all(env.locals[key] is ctype
                           for key, ctype in declared.items())

    def test_program_caches_one_record_per_function(self):
        program = parse_corpus(KERNEL_FILES)
        name = next(name for name in program.functions
                    if program.syntax(name).calls)
        func = program.functions[name]
        assert program.syntax(name) is program.syntax(name)
        assert program.syntax_of(func) is program.syntax(name)
        # A FuncDef that is not the linked definition (an instrumenter's
        # clone) is indexed afresh, over its own nodes, and never cached.
        clone = copy.deepcopy(func)
        record = program.syntax_of(clone)
        assert record is not program.syntax_of(clone)
        assert _same_nodes(record.calls, index_function(clone).calls)
        assert not any(a is b for a, b in zip(record.calls,
                                              program.syntax(name).calls))

    def test_copies_and_pickles_start_without_an_index(self):
        import pickle

        program = parse_corpus(KERNEL_FILES)
        for name in program.functions:
            program.syntax(name)
        assert copy.deepcopy(program)._syntax == {}
        assert pickle.loads(pickle.dumps(program))._syntax == {}
        assert len(program._syntax) == len(program.functions)

    def test_in_place_rewrite_drops_the_record(self):
        program = parse_corpus(KERNEL_FILES)
        before = {name: program.syntax(name) for name in program.functions}
        deputy_instrument.instrument_program(program)
        rewritten = 0
        for name, func in program.functions.items():
            fresh = index_function(func)
            record = program.syntax(name)
            assert _same_nodes(record.calls, fresh.calls)
            rewritten += record is not before[name]
        assert rewritten > 0


# ---------------------------------------------------------------------------
# Reuse across incremental passes
# ---------------------------------------------------------------------------


def _normalized(report) -> str:
    payload = copy.deepcopy(report.to_dict())
    for key in ("elapsed_seconds", "cache_stats", "jobs", "parallel", "perf"):
        payload.pop(key, None)
    payload["summary_stats"].pop("cache_hit")
    payload["summary_stats"].pop("consts_cache_hit", None)
    return json.dumps(payload, sort_keys=True)


class TestIncrementalReuse:
    def test_body_edit_reindexes_only_the_edited_unit(self):
        files = generate_corpus(2, seed=11)
        analyzer = IncrementalAnalyzer(files=files)
        analyzer.analyze()
        total = len(analyzer.artifacts.program.functions)
        assert analyzer.last_stats.indexed_functions == total

        analyzer.analyze(files)
        assert analyzer.last_stats.indexed_functions == 0
        assert analyzer.last_stats.to_dict()["indexed_functions"] == 0

        previous = analyzer.artifacts.program
        target = "synth/unit_005.c"
        old = "s005_state = s005_state + value;"
        edited = tuple(
            replace(f, source=f.source.replace(old, "s005_state = s005_state + value + 1;"))
            if f.filename == target else f
            for f in files)
        assert edited != files
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats
        assert not stats.full_reparse and stats.parsed_units == 1
        edited_functions = analyzer.artifacts.unit_functions[target]
        assert stats.indexed_functions == len(edited_functions)

        program = analyzer.artifacts.program
        for name in program.functions:
            carried = program.syntax(name) is previous.syntax(name)
            assert carried == (name not in edited_functions)

        cold = AnalysisEngine(files=edited).run()
        assert _normalized(report) == _normalized(cold)

    def test_stats_last_pass_reports_indexed_functions(self):
        files = (CorpusFile("a.c", "int leaf(int x) { return x + 1; }\n"
                                   "int top(void) { return leaf(2); }\n"),)
        service = AnalysisService(files=files)
        service.request_reconcile()
        assert service.stats_payload()["last_pass"]["indexed_functions"] == 2
        service.request_reconcile()
        assert service.stats_payload()["last_pass"]["indexed_functions"] == 0


# ---------------------------------------------------------------------------
# Cache identity: the source digest
# ---------------------------------------------------------------------------


class TestSourceDigest:
    def test_digest_covers_the_package_sources(self):
        assert repro.source_digest() == repro.tree_digest(Path(repro.__file__).parent)

    def test_one_byte_change_changes_the_digest(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = repro.tree_digest(tree)
        assert before == repro.source_digest()
        target = tree / "dataflow" / "consts.py"
        data = bytearray(target.read_bytes())
        data[-1] ^= 1
        target.write_bytes(bytes(data))
        assert repro.tree_digest(tree) != before
