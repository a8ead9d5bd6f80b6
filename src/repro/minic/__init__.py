"""MiniC: the kernel-flavoured C frontend substrate.

This package provides everything the analysis tools need from a C frontend:
a preprocessor, lexer, parser, type representation with i386 layout rules,
symbol tables, AST visitors and a pretty printer whose output round-trips
through the parser.
"""

from . import ast_nodes as ast
from .ctypes import (
    CArray,
    CEnum,
    CField,
    CFloat,
    CFunc,
    CInt,
    CNamed,
    CParam,
    CPointer,
    CStruct,
    CType,
    CVoid,
    types_compatible,
)
from .errors import (
    LexError,
    MiniCError,
    ParseError,
    SemanticError,
    SourceLocation,
    TypeError_,
)
from .lexer import tokenize
from .parser import Parser, evaluate_constant, parse_expression, parse_source
from .pretty import PrettyPrinter, render_expression, render_statement, render_unit
from .source import Preprocessor, SourceFile, preprocess, strip_comments
from .symtab import Scope, Symbol, TypeRegistry
from .visitor import Transformer, Visitor, collect, count_nodes, iter_child_nodes, walk

__all__ = [
    "ast",
    "CArray", "CEnum", "CField", "CFloat", "CFunc", "CInt", "CNamed",
    "CParam", "CPointer", "CStruct", "CType", "CVoid", "types_compatible",
    "LexError", "MiniCError", "ParseError", "SemanticError", "SourceLocation",
    "TypeError_",
    "tokenize",
    "Parser", "evaluate_constant", "parse_expression", "parse_source",
    "PrettyPrinter", "render_expression", "render_statement", "render_unit",
    "Preprocessor", "SourceFile", "preprocess", "strip_comments",
    "Scope", "Symbol", "TypeRegistry",
    "Transformer", "Visitor", "collect", "count_nodes", "iter_child_nodes", "walk",
]
