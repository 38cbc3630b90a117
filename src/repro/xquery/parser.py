"""Recursive-descent parser for the XQuery Update subset.

XQuery keywords are contextual (``insert`` is a valid element name), so
the parser matches keyword *sequences* at expression starts and treats
names as path steps elsewhere.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError
from repro.xquery import ast
from repro.xquery.lexer import (
    EOF,
    INTEGER,
    NAME,
    STRING,
    SYMBOL,
    XML,
    tokenize,
)

#: predicates nested deeper than this are refused. Every level costs
#: three parser frames, four evaluator frames and about ten in the plan
#: record's ``repr`` — which overflowed the interpreter's stack between
#: 60 and 100 levels (an untyped ``RecursionError`` out of ``query``) —
#: so the bound sits well under that from any calling depth; the
#: deepest path of any workload or test nests two
MAX_PREDICATE_NESTING = 32


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.depth = 0   # predicates open around the current token

    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        if token.kind is not EOF and token.kind != EOF:
            self.index += 1
        return token

    def at_name(self, *values):
        token = self.current
        return token.kind == NAME and token.value in values

    def at_symbol(self, *values):
        token = self.current
        return token.kind == SYMBOL and token.value in values

    def expect_name(self, *values):
        if not self.at_name(*values):
            self.fail("expected {!r}".format("/".join(values)))
        return self.advance()

    def expect_symbol(self, value):
        if not self.at_symbol(value):
            self.fail("expected {!r}".format(value))
        return self.advance()

    def fail(self, message):
        token = self.current
        raise QuerySyntaxError(
            "{} (got {!r})".format(message, token.value),
            position=token.position)


def parse_program(text):
    """Parse a comma-separated sequence of updating expressions."""
    cursor = _Cursor(tokenize(text))
    expressions = [_parse_expression(cursor)]
    while cursor.at_symbol(","):
        cursor.advance()
        expressions.append(_parse_expression(cursor))
    if cursor.current.kind != EOF:
        cursor.fail("trailing input after expression")
    return expressions


def parse_path(text):
    """Parse a bare path expression (the read-only query surface —
    no updating keywords, just the abbreviated-XPath subset)."""
    cursor = _Cursor(tokenize(text))
    path = _parse_path(cursor)
    if cursor.current.kind != EOF:
        cursor.fail("trailing input after path")
    return path


#: a path longer than this is parsed on every use and never kept, so
#: the memo is bounded in bytes and not only in entries; the server
#: also runs no longer path on its event loop, because evaluation costs
#: up to ~0.85 us per character and node (a path made of nothing but
#: descendant predicates; 27 ms at 63 characters on 510 nodes). The
#: longest path of the benchmark's workloads has 40 characters
MAX_CACHED_PATH_CHARS = 64

#: parsed paths a store keeps (``functools.lru_cache`` over
#: :func:`parse_path`, least recently used out first; the benchmark's
#: read workloads cycle through 56 and 69 distinct paths; parsing one
#: costs ~17 us, keeping one under 2 KB)
PATH_MEMO_ENTRIES = 256


def _parse_expression(cursor):
    if cursor.at_name("insert"):
        return _parse_insert(cursor)
    if cursor.at_name("delete"):
        return _parse_delete(cursor)
    if cursor.at_name("replace"):
        return _parse_replace(cursor)
    if cursor.at_name("rename"):
        return _parse_rename(cursor)
    cursor.fail("expected an updating expression "
                "(insert/delete/replace/rename)")


def _parse_insert(cursor):
    cursor.expect_name("insert")
    cursor.expect_name("node", "nodes")
    source = _parse_source(cursor)
    if cursor.at_name("before"):
        cursor.advance()
        position = ast.BEFORE
    elif cursor.at_name("after"):
        cursor.advance()
        position = ast.AFTER
    else:
        position = ast.INTO
        if cursor.at_name("as"):
            cursor.advance()
            which = cursor.expect_name("first", "last").value
            position = ast.INTO_FIRST if which == "first" else ast.INTO_LAST
        cursor.expect_name("into")
    target = _parse_path(cursor)
    return ast.InsertExpr(source, position, target)


def _parse_delete(cursor):
    cursor.expect_name("delete")
    cursor.expect_name("node", "nodes")
    return ast.DeleteExpr(_parse_path(cursor))


def _parse_replace(cursor):
    cursor.expect_name("replace")
    if cursor.at_name("value"):
        cursor.advance()
        cursor.expect_name("of")
        cursor.expect_name("node")
        target = _parse_path(cursor)
        cursor.expect_name("with")
        if cursor.current.kind != STRING:
            cursor.fail("replace value of expects a string literal")
        value = cursor.advance().value
        return ast.ReplaceValueExpr(target, value)
    if cursor.at_name("children"):
        cursor.advance()
        cursor.expect_name("of")
        cursor.expect_name("node")
        target = _parse_path(cursor)
        cursor.expect_name("with")
        if cursor.current.kind != STRING:
            cursor.fail("replace children of expects a string literal")
        value = cursor.advance().value
        return ast.ReplaceChildrenExpr(target, value)
    cursor.expect_name("node")
    target = _parse_path(cursor)
    cursor.expect_name("with")
    source = _parse_source(cursor)
    return ast.ReplaceNodeExpr(target, source)


def _parse_rename(cursor):
    cursor.expect_name("rename")
    cursor.expect_name("node")
    target = _parse_path(cursor)
    cursor.expect_name("as")
    token = cursor.current
    if token.kind == STRING or token.kind == NAME:
        cursor.advance()
        return ast.RenameExpr(target, token.value)
    cursor.fail("rename expects a name or string literal")


def _parse_source(cursor):
    """An XML constructor, attribute constructor, string literal, or a
    parenthesized sequence of those."""
    items = []
    if cursor.at_symbol("("):
        cursor.advance()
        items.append(_parse_source_item(cursor))
        while cursor.at_symbol(","):
            cursor.advance()
            items.append(_parse_source_item(cursor))
        cursor.expect_symbol(")")
    else:
        items.append(_parse_source_item(cursor))
    return ast.XMLSource(items)


def _parse_source_item(cursor):
    token = cursor.current
    if token.kind == XML:
        cursor.advance()
        return token.value  # a detached Node tree
    if token.kind == STRING:
        cursor.advance()
        return token.value  # a text node value
    if cursor.at_name("attribute"):
        cursor.advance()
        name = cursor.current
        if name.kind != NAME:
            cursor.fail("attribute constructor expects a name")
        cursor.advance()
        cursor.expect_symbol("{")
        if cursor.current.kind != STRING:
            cursor.fail("attribute constructor expects a string value")
        value = cursor.advance().value
        cursor.expect_symbol("}")
        return ast.AttributeConstructor(name.value, value)
    cursor.fail("expected an XML constructor, string, or attribute "
                "constructor")


def _parse_path(cursor):
    absolute = False
    steps = []
    if cursor.at_symbol("/", "//"):
        absolute = True
        leading = cursor.advance().value
        if leading == "//":
            steps.append(_parse_step(cursor, descendant=True))
        else:
            steps.append(_parse_step(cursor, descendant=False))
    else:
        steps.append(_parse_step(cursor, descendant=False))
    while cursor.at_symbol("/", "//"):
        separator = cursor.advance().value
        steps.append(_parse_step(cursor, descendant=(separator == "//")))
    return ast.Path(steps, absolute)


def _parse_step(cursor, descendant):
    axis = ast.DESCENDANT if descendant else ast.CHILD
    test = ast.ELEMENT_TEST
    name = None
    if cursor.at_symbol("@"):
        cursor.advance()
        axis = ast.DESCENDANT_ATTRIBUTE if descendant else ast.ATTRIBUTE
        if cursor.at_symbol("*"):
            cursor.advance()
        else:
            token = cursor.current
            if token.kind != NAME:
                cursor.fail("expected an attribute name")
            name = cursor.advance().value
    elif cursor.at_symbol("*"):
        cursor.advance()
    else:
        token = cursor.current
        if token.kind != NAME:
            cursor.fail("expected a step")
        name = cursor.advance().value
        if name == "text" and cursor.at_symbol("("):
            cursor.advance()
            cursor.expect_symbol(")")
            test = ast.TEXT_TEST
            name = None
    predicates = []
    while cursor.at_symbol("["):
        if cursor.depth == MAX_PREDICATE_NESTING:
            cursor.fail("predicates nested deeper than {}".format(
                MAX_PREDICATE_NESTING))
        cursor.advance()
        cursor.depth += 1
        predicates.append(_parse_predicate(cursor))
        cursor.depth -= 1
        cursor.expect_symbol("]")
    step = ast.Step(axis, test, name=name, predicates=predicates)
    return step


def _parse_predicate(cursor):
    token = cursor.current
    if token.kind == INTEGER:
        cursor.advance()
        return ast.PositionPredicate(index=token.value)
    if cursor.at_name("last") and \
            cursor.tokens[cursor.index + 1].kind == SYMBOL and \
            cursor.tokens[cursor.index + 1].value == "(":
        cursor.advance()
        cursor.expect_symbol("(")
        cursor.expect_symbol(")")
        return ast.PositionPredicate(last=True)
    path = _parse_path(cursor)
    if cursor.at_symbol("="):
        cursor.advance()
        literal = cursor.current
        if literal.kind not in (STRING, INTEGER):
            cursor.fail("comparison expects a literal")
        cursor.advance()
        return ast.ComparePredicate(path, str(literal.value))
    return ast.ExistsPredicate(path)
