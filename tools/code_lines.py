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
    """Code lines of ``root``: a ``*.py`` file counts as itself, a
    directory as every ``*.py`` file under it. A path that does not
    exist is a ``FileNotFoundError``, never a count of 0."""
    root = pathlib.Path(root)
    if root.is_file():
        paths = [root]
    elif root.is_dir():
        paths = root.rglob("*.py")
    else:
        raise FileNotFoundError("no such file or directory: {}".format(root))
    total = 0
    for path in paths:
        source = path.read_text()
        total += len(token_lines(source) - docstring_lines(source))
    return total


def main(roots):
    """Print one count per root; returns the exit status (1 when a
    root does not exist)."""
    for root in roots or ["src/repro"]:
        try:
            print("{}\t{}".format(code_lines(root), root))
        except FileNotFoundError as error:
            print(error, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
