"""Source file handling for the MiniC frontend.

A :class:`SourceFile` wraps raw MiniC text together with a filename and
provides line-oriented helpers used by the conversion reports (the paper
counts annotated and trusted *lines*, so line bookkeeping matters).

A tiny preprocessor is included.  Kernel C leans heavily on the C
preprocessor; MiniC only needs the small subset the corpus uses:

* ``// ...`` and ``/* ... */`` comments are stripped,
* ``#define NAME value`` object-like macros (no function-like macros),
* ``#include`` is ignored (the corpus is linked by the build system instead),
* ``#ifdef/#ifndef/#else/#endif`` conditional blocks keyed on defined names.

The preprocessor preserves line numbers: removed text is replaced by blank
lines or whitespace so diagnostics still point at the original source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import LexError, SourceLocation

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)(?:\s+(.*))?$")
_UNDEF_RE = re.compile(r"^\s*#\s*undef\s+(\w+)\s*$")
_IFDEF_RE = re.compile(r"^\s*#\s*ifdef\s+(\w+)\s*$")
_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)\s*$")
_ELSE_RE = re.compile(r"^\s*#\s*else\s*$")
_ENDIF_RE = re.compile(r"^\s*#\s*endif\s*$")
_INCLUDE_RE = re.compile(r"^\s*#\s*include\b.*$")
_WORD_RE = re.compile(r"\b\w+\b")


@dataclass
class SourceFile:
    """A named MiniC source file."""

    filename: str
    text: str
    lines: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.lines = self.text.splitlines()

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def line(self, lineno: int) -> str:
        """Return 1-based line ``lineno`` (empty string if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def location(self, line: int, column: int = 1) -> SourceLocation:
        return SourceLocation(self.filename, line, column)


def strip_comments(text: str, filename: str = "<unknown>") -> str:
    """Remove ``//`` and ``/* */`` comments, preserving line structure."""
    out: list[str] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == '"' or ch == "'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                if text[i] == "\n":
                    line += 1
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            closed = False
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    i += 2
                    closed = True
                    break
                if text[i] == "\n":
                    out.append("\n")
                    line += 1
                i += 1
            if not closed:
                raise LexError(
                    "unterminated block comment",
                    SourceLocation(filename, start_line, 1),
                )
            continue
        if ch == "\n":
            line += 1
        out.append(ch)
        i += 1
    return "".join(out)


class Preprocessor:
    """A minimal, line-number-preserving preprocessor for MiniC.

    Only object-like macros and ``#ifdef`` conditionals are supported; that is
    all the mini-kernel corpus needs, and keeping it small keeps the frontend
    auditable (this is, after all, a paper about soundness).
    """

    def __init__(self, defines: dict[str, str] | None = None) -> None:
        self.defines: dict[str, str] = dict(defines or {})

    def define(self, name: str, value: str = "1") -> None:
        self.defines[name] = value

    def undefine(self, name: str) -> None:
        self.defines.pop(name, None)

    def process(self, text: str, filename: str = "<unknown>") -> str:
        """Expand macros and resolve conditionals in ``text``."""
        text = strip_comments(text, filename)
        out_lines: list[str] = []
        # Stack of booleans: is the current conditional region active?
        active_stack: list[bool] = []
        taken_stack: list[bool] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            loc = SourceLocation(filename, lineno, 1)
            active = all(active_stack) if active_stack else True
            m = _IFDEF_RE.match(raw)
            if m:
                cond = m.group(1) in self.defines
                active_stack.append(cond)
                taken_stack.append(cond)
                out_lines.append("")
                continue
            m = _IFNDEF_RE.match(raw)
            if m:
                cond = m.group(1) not in self.defines
                active_stack.append(cond)
                taken_stack.append(cond)
                out_lines.append("")
                continue
            if _ELSE_RE.match(raw):
                if not active_stack:
                    raise LexError("#else without #ifdef", loc)
                active_stack[-1] = not taken_stack[-1]
                out_lines.append("")
                continue
            if _ENDIF_RE.match(raw):
                if not active_stack:
                    raise LexError("#endif without #ifdef", loc)
                active_stack.pop()
                taken_stack.pop()
                out_lines.append("")
                continue
            if not active:
                out_lines.append("")
                continue
            m = _DEFINE_RE.match(raw)
            if m:
                name, value = m.group(1), (m.group(2) or "1").strip()
                self.defines[name] = value
                out_lines.append("")
                continue
            m = _UNDEF_RE.match(raw)
            if m:
                self.defines.pop(m.group(1), None)
                out_lines.append("")
                continue
            if _INCLUDE_RE.match(raw):
                out_lines.append("")
                continue
            if raw.lstrip().startswith("#"):
                raise LexError(f"unsupported preprocessor directive: {raw.strip()}", loc)
            out_lines.append(self._expand(raw))
        if active_stack:
            raise LexError("unterminated #ifdef", SourceLocation(filename, len(out_lines), 1))
        return "\n".join(out_lines) + "\n"

    def _expand(self, line: str) -> str:
        """Expand object-like macros on one line (single pass, then repeat)."""
        if not self.defines:
            return line
        for _ in range(8):
            def repl(m: re.Match[str]) -> str:
                word = m.group(0)
                return self.defines.get(word, word)

            new = _WORD_RE.sub(repl, line)
            if new == line:
                return new
            line = new
        return line


def preprocess(text: str, filename: str = "<unknown>",
               defines: dict[str, str] | None = None) -> str:
    """Convenience wrapper: preprocess ``text`` with optional ``defines``."""
    return Preprocessor(defines).process(text, filename)
