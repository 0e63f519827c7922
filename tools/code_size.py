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

``--options`` counts the knobs instead: the keyword-only parameters of
each public batched entry point (:data:`ENTRY_POINTS`) and the fields
of ``ExecConfig``, read from the AST without importing the package.

Usage::

    python tools/code_size.py [root]            # total only
    python tools/code_size.py --files [root]    # per file, largest first
    python tools/code_size.py --options [root]  # options per entry point
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


#: ``(file, dotted name)`` of every public batched entry point whose
#: keyword-only parameters ``--options`` counts.
ENTRY_POINTS = (
    ("src/repro/core/gbtrf.py", "gbtrf_batch"),
    ("src/repro/core/gbtrs.py", "gbtrs_batch"),
    ("src/repro/core/gbsv.py", "gbsv_batch"),
    ("src/repro/core/batched.py", "gbtrf_vbatch"),
    ("src/repro/core/batched.py", "gbsv_vbatch"),
    ("src/repro/core/gbtrf_vbatch_kernel.py", "gbtrf_vbatch_fused"),
    ("src/repro/serve/service.py", "SolverService.__init__"),
)
#: The dataclass every driver packs its knobs into.
EXEC_CONFIG = ("src/repro/core/stack.py", "ExecConfig")


def _definition(tree: ast.Module, dotted: str):
    """The function or class ``dotted`` (``Class.method``) in ``tree``."""
    node = tree
    for name in dotted.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == name)
    return node


def options(root: Path) -> list:
    """``(label, names)`` per entry point, then ``ExecConfig``'s fields."""
    def parse(rel):
        return ast.parse((root / rel).read_text(encoding="utf-8"))

    rows = [(name, [a.arg for a in
                    _definition(parse(rel), name).args.kwonlyargs])
            for rel, name in ENTRY_POINTS]
    cls = _definition(parse(EXEC_CONFIG[0]), EXEC_CONFIG[1])
    rows.append((f"{EXEC_CONFIG[1]} fields",
                 [n.target.id for n in cls.body
                  if isinstance(n, ast.AnnAssign)
                  and isinstance(n.target, ast.Name)]))
    return rows


def main(argv: list) -> int:
    per_file = "--files" in argv
    args = [a for a in argv if a not in ("--files", "--options")]
    root = Path(args[0]) if args else REPO
    if "--options" in argv:
        rows = options(root)
        for label, names in rows:
            print(f"{label:24s} {len(names):3d}  {' '.join(names)}")
        print(f"options: {sum(len(n) for _, n in rows)} in {len(rows)} "
              f"signatures")
        return 0
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
