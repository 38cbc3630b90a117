"""Count code lines under a directory: the size figure ROADMAP aim 2
and CHANGES.md report for ``src/repro``.

A code line is a physical line of a ``*.py`` file that carries at
least one token other than a comment or layout, and is not part of a
module, class or function docstring. Run it with the same arguments in
a checkout of each commit to compare them::

    python3 tools/code_lines.py src/repro
"""

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def docstring_lines(source):
    """Line numbers covered by docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, _DOCUMENTED) and node.body):
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(
                getattr(first.value, "value", None), str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(source):
    """Line numbers carrying a token that is not comment or layout."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines


def code_lines(root):
    total = 0
    for path in pathlib.Path(root).rglob("*.py"):
        source = path.read_text()
        total += len(token_lines(source) - docstring_lines(source))
    return total


if __name__ == "__main__":
    for root in sys.argv[1:] or ["src/repro"]:
        print("{}\t{}".format(code_lines(root), root))
