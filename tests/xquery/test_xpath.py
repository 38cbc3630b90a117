"""XPath-subset evaluation tests."""

import pytest

from repro.errors import QueryEvaluationError
from repro.xdm import parse_document
from repro.xquery.parser import parse_program
from repro.xquery.xpath import evaluate_path

DOC = parse_document(
    "<doc>"
    "<paper id='p1' status='ok'><title>Alpha</title>"
    "<authors><author>A</author><author>B</author></authors></paper>"
    "<paper id='p2' status='retracted'><title>Beta</title></paper>"
    "<note>n</note>"
    "</doc>")


def select(path_text, document=DOC):
    (expr,) = parse_program("delete nodes " + path_text)
    return evaluate_path(expr.target, document=document)


def names(path_text):
    return [node.name if node.is_element or node.is_attribute
            else node.value for node in select(path_text)]


class TestSteps:
    def test_root_step(self):
        assert names("/doc") == ["doc"]

    def test_wrong_root_name(self):
        assert names("/nope") == []

    def test_child_chain(self):
        assert len(select("/doc/paper/title")) == 2

    def test_wildcard(self):
        assert names("/doc/*") == ["paper", "paper", "note"]

    def test_descendant(self):
        assert len(select("//author")) == 2

    def test_descendant_finds_attributes(self):
        assert len(select("//@id")) == 2

    def test_attribute_step(self):
        assert [a.value for a in select("/doc/paper/@id")] == ["p1", "p2"]

    def test_attribute_wildcard(self):
        assert len(select("/doc/paper[1]/@*")) == 2

    def test_text_test(self):
        values = [n.value for n in select("//title/text()")]
        assert values == ["Alpha", "Beta"]

    def test_document_order_and_dedup(self):
        nodes = select("//paper/title")
        positions = [DOC.parent(n).attributes[0].value for n in nodes]
        assert positions == ["p1", "p2"]


class TestPredicates:
    def test_position(self):
        assert [a.value for a in select("/doc/paper[2]/@id")] == ["p2"]

    def test_position_out_of_range(self):
        assert select("/doc/paper[5]") == []

    def test_last(self):
        assert [a.value for a in select("/doc/paper[last()]/@id")] == ["p2"]

    def test_exists(self):
        assert len(select("/doc/paper[authors]")) == 1

    def test_compare_attribute(self):
        assert len(select('/doc/paper[@status = "retracted"]')) == 1

    def test_compare_element_string_value(self):
        assert len(select('/doc/paper[title = "Alpha"]')) == 1

    def test_stacked(self):
        assert len(select('/doc/paper[@status = "ok"][1]')) == 1


class TestErrors:
    def test_relative_without_context(self):
        from repro.xquery.ast import Path, Step, CHILD, ELEMENT_TEST
        path = Path([Step(CHILD, ELEMENT_TEST, name="x")], absolute=False)
        with pytest.raises(QueryEvaluationError):
            evaluate_path(path)
