#!/usr/bin/env python
"""Measure the size of the library source the way ROADMAP counts it.

Prints two numbers for every ``.py`` file under ``src/`` (and their
total):

* **code lines** — physical lines that carry at least one code token.
  Blank lines, comment-only lines and the lines of docstrings (module,
  class and function docstrings) do not count;
* **AST nodes** — every node :func:`ast.walk` visits in the parsed
  module, docstrings included.

Neither number moves when comments or docstrings are edited, so a
reduction in code lines measures deleted code, not deleted prose.

Usage::

    python tools/code_size.py [root]          # total only
    python tools/code_size.py --files [root]  # per file, largest first
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Tokens that never make a line count as code.
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
             tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def measure(source: str) -> tuple:
    """``(code_lines, ast_nodes)`` of one module's source text."""
    tree = ast.parse(source)
    skip = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NON_CODE:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in skip:
                code.add(line)
    return len(code), sum(1 for _ in ast.walk(tree))


def main(argv: list) -> int:
    per_file = "--files" in argv
    args = [a for a in argv if a != "--files"]
    root = Path(args[0]) if args else REPO
    rows = []
    for path in sorted((root / "src").rglob("*.py")):
        lines, nodes = measure(path.read_text(encoding="utf-8"))
        rows.append((lines, nodes, path.relative_to(root)))
    if per_file:
        for lines, nodes, path in sorted(rows, reverse=True):
            print(f"{lines:7,d} {nodes:8,d}  {path}")
    total_lines = sum(r[0] for r in rows)
    total_nodes = sum(r[1] for r in rows)
    print(f"src/: {total_lines:,d} code lines, {total_nodes:,d} AST nodes "
          f"in {len(rows)} files")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # The reader went away (``| head``): send the final flush at exit
        # to /dev/null instead of printing a second traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
