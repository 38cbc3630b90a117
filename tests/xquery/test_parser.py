"""Parser tests for the XQuery Update subset."""

import pytest

from repro.errors import QuerySyntaxError
from repro.xquery import ast
from repro.xquery.parser import parse_path, parse_program


def single(text):
    (expression,) = parse_program(text)
    return expression


class TestInsert:
    def test_as_last_into(self):
        expr = single("insert node <a/> as last into /r/b")
        assert isinstance(expr, ast.InsertExpr)
        assert expr.position == ast.INTO_LAST
        assert [s.name for s in expr.target.steps] == ["r", "b"]

    def test_as_first_into(self):
        expr = single("insert node <a/> as first into /r")
        assert expr.position == ast.INTO_FIRST

    def test_bare_into_is_nondeterministic(self):
        expr = single("insert node <a/> into /r")
        assert expr.position == ast.INTO

    def test_before_after(self):
        assert single("insert node <a/> before /r/b").position == ast.BEFORE
        assert single("insert node <a/> after /r/b").position == ast.AFTER

    def test_sequence_source(self):
        expr = single('insert nodes (<a/>, "txt", <b/>) into /r')
        assert len(expr.source.items) == 3
        assert expr.source.items[1] == "txt"

    def test_attribute_constructor(self):
        expr = single('insert node attribute version {"2"} into /r')
        (item,) = expr.source.items
        assert isinstance(item, ast.AttributeConstructor)
        assert (item.name, item.value) == ("version", "2")


class TestOtherExpressions:
    def test_delete(self):
        expr = single("delete nodes //paper")
        assert isinstance(expr, ast.DeleteExpr)
        assert expr.target.steps[0].axis == ast.DESCENDANT

    def test_replace_value(self):
        expr = single('replace value of node /r/t with "new"')
        assert isinstance(expr, ast.ReplaceValueExpr)
        assert expr.value == "new"

    def test_replace_node(self):
        expr = single("replace node /r/b with <c/>")
        assert isinstance(expr, ast.ReplaceNodeExpr)

    def test_replace_children(self):
        expr = single('replace children of node /r with "x"')
        assert isinstance(expr, ast.ReplaceChildrenExpr)

    def test_rename_with_name_or_string(self):
        assert single("rename node /r as foo").name == "foo"
        assert single('rename node /r as "bar"').name == "bar"

    def test_program_sequence(self):
        expressions = parse_program(
            "delete node /a, rename node /b as c")
        assert len(expressions) == 2


class TestPaths:
    def path(self, text):
        return single("delete nodes " + text).target

    def test_relative_path(self):
        path = self.path("b/c")
        assert not path.absolute

    def test_wildcard(self):
        path = self.path("/r/*")
        assert path.steps[1].name is None

    def test_attribute_step(self):
        path = self.path("/r/@id")
        assert path.steps[1].axis == ast.ATTRIBUTE
        assert path.steps[1].name == "id"

    def test_attribute_wildcard(self):
        path = self.path("/r/@*")
        assert path.steps[1].axis == ast.ATTRIBUTE
        assert path.steps[1].name is None

    def test_text_test(self):
        path = self.path("/r/text()")
        assert path.steps[1].test == ast.TEXT_TEST

    def test_descendant_abbreviation(self):
        path = self.path("//b//c")
        assert all(step.axis == ast.DESCENDANT for step in path.steps)

    def test_positional_predicate(self):
        path = self.path("/r/b[2]")
        (predicate,) = path.steps[1].predicates
        assert isinstance(predicate, ast.PositionPredicate)
        assert predicate.index == 2

    def test_last_predicate(self):
        path = self.path("/r/b[last()]")
        (predicate,) = path.steps[1].predicates
        assert predicate.last

    def test_exists_predicate(self):
        path = self.path("/r/b[c/d]")
        (predicate,) = path.steps[1].predicates
        assert isinstance(predicate, ast.ExistsPredicate)

    def test_compare_predicate(self):
        path = self.path('/r/b[@id = "x"]')
        (predicate,) = path.steps[1].predicates
        assert isinstance(predicate, ast.ComparePredicate)
        assert predicate.literal == "x"

    def test_stacked_predicates(self):
        path = self.path('/r/b[c][2]')
        assert len(path.steps[1].predicates) == 2


class TestErrors:
    @pytest.mark.parametrize("text", [
        "insert <a/> into /r",
        "insert node <a/> within /r",
        "delete /a",
        "replace value of node /a with <b/>",
        "rename node /a",
        "delete node /a extra",
        "frobnicate /a",
        "insert node into /r",
    ])
    def test_rejects(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_program(text)


class TestPredicateNesting:
    """Predicate nesting is bounded: a path nested past the bound is a
    syntax error at the offending ``[``, however deep it goes on —
    never the interpreter's ``RecursionError`` out of the parser, the
    planner's plan record or the evaluator."""

    @staticmethod
    def nested(levels):
        return "/a" + "[b" * levels + "]" * levels

    def test_the_bound_itself_parses_and_evaluates(self):
        from repro.store import DocumentStore
        from repro.xquery.parser import MAX_PREDICATE_NESTING

        text = self.nested(MAX_PREDICATE_NESTING)
        path = parse_path(text)
        depth = 0
        while path.steps[0].predicates:
            path = path.steps[0].predicates[0].path
            depth += 1
        assert depth == MAX_PREDICATE_NESTING
        with DocumentStore() as store:
            store.open("d", "<a><b/></a>")
            assert store.query("d", text)["count"] == 0
            assert store.explain("d", text)["plan"]["steps"]

    @pytest.mark.parametrize("beyond", [1, 2000])
    def test_past_the_bound_is_a_syntax_error_at_the_bracket(
            self, beyond):
        from repro.xquery.parser import MAX_PREDICATE_NESTING

        text = self.nested(MAX_PREDICATE_NESTING + beyond)
        # "/a" then "[b" per level: the first bracket past the bound
        offending = 2 + 2 * MAX_PREDICATE_NESTING
        assert text[offending] == "["
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_path(text)
        assert excinfo.value.position == offending
        prefix = "delete nodes "
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_program(prefix + text)
        assert excinfo.value.position == len(prefix) + offending

    def test_siblings_do_not_count_as_nesting(self):
        from repro.xquery.parser import MAX_PREDICATE_NESTING

        path = parse_path("/a" + "[b]" * (4 * MAX_PREDICATE_NESTING))
        assert len(path.steps[0].predicates) == 4 * MAX_PREDICATE_NESTING
