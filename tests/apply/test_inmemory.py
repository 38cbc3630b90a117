"""Tests for the in-memory evaluator."""

from repro.apply.inmemory import apply_in_memory
from repro.labeling import ContainmentLabeling
from repro.pul.ops import Delete, InsertIntoAsLast, Rename
from repro.pul.pul import PUL
from repro.xdm import parse_document
from repro.xdm.parser import parse_forest


class TestInMemory:
    def test_from_text(self):
        out = apply_in_memory("<a><b/></a>", PUL([Rename(1, "nb")]))
        assert out == "<a><nb/></a>"

    def test_from_document_updates_in_place(self, small_doc):
        apply_in_memory(small_doc, PUL([Delete(2)]))
        assert 2 not in small_doc

    def test_labeling_synced(self):
        """A Document updated in place keeps a labeling that ``sync``
        extends to the inserted nodes."""
        document = parse_document("<a><b/></a>")
        labeling = ContainmentLabeling().build(document)
        apply_in_memory(document, PUL([
            InsertIntoAsLast(0, parse_forest("<n/>"))]))
        labeling.sync(document)
        new_id = document.root.children[-1].node_id
        assert labeling.find(new_id) is not None

    def test_root_delete_yields_empty(self):
        assert apply_in_memory("<a/>", PUL([Delete(0)])) == ""
