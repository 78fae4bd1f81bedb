#!/usr/bin/env python3
"""Count the code lines of a package: lines that are not blank, comment or docstring.

A docstring is the string literal that opens a module, class or function
body, as the AST finds it; every line it spans is left out. A line that
holds any other token, a line of a multi-line string among them, is code.

Usage:
    python scripts/code_lines.py [DIR]    # DIR defaults to src/gsesim

Prints one `count  module` line per .py file under DIR, sorted by path,
and a last `count  total` line.
"""

import argparse
import ast
import io
import pathlib
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The numbers of the lines that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/gsesim", help="package directory (default: src/gsesim)")
    root = pathlib.Path(parser.parse_args(argv).dir)
    paths = sorted(root.rglob("*.py"))
    if not paths:
        parser.exit(2, f"{parser.prog}: no .py files under {root}\n")
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
