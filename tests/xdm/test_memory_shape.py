"""The memory shape of a resident tree.

A node holds only what it has: a node with no children or attributes
holds the shared ``()`` rather than a list of its own, wherever the
tree came from — a parse, a durability restore, a flush's path copy or
a deep copy. A parse and a restore give each element and attribute
name of a document as one string object, and size each child list
exactly (no spare capacity left over from growing it).
"""

import sys

from repro.store import DocumentStore
from repro.store.durability import restore_document
from repro.workloads.xmark import generate_xmark
from repro.xdm import parse_document
from repro.xdm.serializer import serialize

DOC = ("<doc>"
       "<paper id='p1' status='ok'><title>Alpha</title>"
       "<authors><author>A</author><author>B</author></authors></paper>"
       "<paper id='p2'><title>Beta</title><empty/></paper>"
       "<note>n</note>"
       "</doc>")


def _text():
    return serialize(generate_xmark(scale=0.01, seed=5))


def _restored(text):
    with DocumentStore() as store:
        store.open("d", text)
        payload = store.export_state(doc_ids=["d"])["docs"][0]
    return restore_document(payload).document


def assert_empties_hold_no_list(root):
    for node in root.iter_subtree():
        for sequence in (node.children, node.attributes):
            if not sequence:
                assert sequence is (), node
            else:
                assert type(sequence) is list, node


def assert_one_string_per_name(root):
    names = {}
    for node in root.iter_subtree():
        if node.name is not None:
            assert names.setdefault(node.name, node.name) is node.name, node


def assert_exact_size(root):
    for node in root.iter_subtree():
        for sequence in (node.children, node.attributes):
            assert sys.getsizeof(sequence) == \
                sys.getsizeof(sequence[:]), node


class TestParse:
    def test_empties_hold_no_list(self):
        assert_empties_hold_no_list(parse_document(DOC).root)
        assert_empties_hold_no_list(parse_document(_text()).root)

    def test_one_string_per_name(self):
        assert_one_string_per_name(parse_document(_text()).root)

    def test_child_lists_are_exact_size(self):
        assert_exact_size(parse_document(_text()).root)


class TestRestore:
    def test_empties_hold_no_list(self):
        assert_empties_hold_no_list(_restored(_text()).root)

    def test_one_string_per_name(self):
        assert_one_string_per_name(_restored(_text()).root)

    def test_child_lists_are_exact_size(self):
        assert_exact_size(_restored(_text()).root)


class TestCopies:
    def test_a_flush_path_copy_leaves_no_empty_list(self):
        """The flush empties the note's children and the first paper's
        attributes, replaces the second paper's children with nothing
        and inserts a leaf: every one of them ends up holding ``()``."""
        with DocumentStore() as store:
            store.open("d", DOC)
            for expression in (
                    "delete node /doc/note/text()",
                    "delete nodes /doc/paper[1]/@*",
                    "replace node /doc/paper[2]/title with <leaf/>",
                    "delete node /doc/paper[2]/empty",
                    "insert node <fresh/> as last into /doc"):
                store.submit_xquery("d", expression)
            store.flush("d")
            document = store.document("d")
            assert serialize(document) == (
                "<doc><paper><title>Alpha</title><authors>"
                "<author>A</author><author>B</author></authors></paper>"
                '<paper id="p2"><leaf/></paper><note/><fresh/></doc>')
            assert_empties_hold_no_list(document.root)

    def test_a_path_copy_keeps_the_shared_empty(self):
        document = parse_document(DOC)
        leaves = [node.node_id for node in document.nodes()
                  if not node.children]
        copy = document.path_copy(leaves)
        assert_empties_hold_no_list(copy.root)
        assert_exact_size(copy.root)

    def test_deep_copy(self):
        root = parse_document(_text()).root
        for keep_ids in (False, True):
            assert_empties_hold_no_list(root.deep_copy(keep_ids=keep_ids))
