"""Unit coverage of the secondary index subsystem.

Three layers, bottom-up: :class:`DocumentIndex` construction and
copy-on-write incremental maintenance (``derive`` against the reduced
PUL of a flush), the interval primitives of :mod:`repro.index.engine`,
and the planner/store integration — every engine returns the walker's
bytes, published versions carry an index equal to a from-scratch
rebuild, and ``explain`` travels through the dispatcher without nodes.
"""

import pytest

from repro.api.dispatch import StoreDispatcher
from repro.apply.inplace import apply_batch_in_place
from repro.index import DocumentIndex, build_index
from repro.index.engine import descendant_sweep, value_filter_ids
from repro.index.planner import run_query
from repro.labeling import ContainmentLabeling
from repro.pul.ops import (
    Delete,
    InsertAttributes,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.reasoning import DocumentOracle
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore
from repro.xdm import parse_document
from repro.xdm.document import Document
from repro.xdm.node import Node
from repro.xquery import parse_path

DOC = ("<doc>"
       "<paper id='p1' status='ok'><title>Alpha One</title>"
       "<authors><author>A</author><author>B</author></authors></paper>"
       "<paper id='p2' status='retracted'><title>Beta</title></paper>"
       "<note>n</note>"
       "</doc>")


def fresh():
    document = parse_document(DOC)
    labeling = ContainmentLabeling().build(document)
    return document, labeling


def by_name(document, name):
    return [n for n in document.nodes()
            if n.is_element and n.name == name]


class TestBuild:
    def test_buckets_cover_every_node_sorted_by_start(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        assert index.entry_count() == len(document)
        for bucket in index.elements.values():
            assert bucket == sorted(bucket)
        assert sorted(index.elements) == \
            ["author", "authors", "doc", "note", "paper", "title"]
        assert len(index.elements["paper"]) == 2
        assert len(index.attributes["id"]) == 2
        assert [e for e in index.values[("status", "ok")]] == \
            index.values[("status", "ok")]
        assert len(index.values[("status", "retracted")]) == 1
        assert len(index.texts) == 5

    def test_entries_carry_label_codes_and_parent_ids(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        (entry,) = index.elements["note"]
        label = labeling.label_of(entry[2])
        assert (entry[0], entry[1]) == (label.start, label.end)
        assert entry[3] == document.root.node_id

    def test_rootless_document_indexes_empty(self):
        index = build_index(Document(), ContainmentLabeling())
        assert index.entry_count() == 0
        assert index.stats()["entries"] == 0

    def test_equality_is_structural(self):
        document, labeling = fresh()
        assert build_index(document, labeling) == \
            build_index(document, labeling)
        other = parse_document("<doc/>")
        assert build_index(document, labeling) != \
            build_index(other, ContainmentLabeling().build(other))


def derive_after(ops):
    """Apply ``ops`` in place (the store's flush path) and return
    ``(derived_index, rebuilt_index, old_index, new_document)``."""
    old_document, old_labeling = fresh()
    index = build_index(old_document, old_labeling)
    working = old_document.copy()
    labeling = old_labeling.copy()
    reduced = reduce_deterministic(
        PUL(ops), structure=DocumentOracle(old_document))
    mode = apply_batch_in_place(working, labeling, reduced)
    assert mode == "incremental"
    derived = index.derive(old_document, working, labeling, reduced)
    return derived, build_index(working, labeling), index, working


class TestDerive:
    def test_delete_matches_rebuild_and_drops_empty_buckets(self):
        document, __ = fresh()
        (note,) = by_name(document, "note")
        derived, rebuilt, __, __ = derive_after([Delete(note.node_id)])
        assert derived == rebuilt
        assert "note" not in derived.elements

    def test_insert_subtree_matches_rebuild(self):
        document, __ = fresh()
        (authors,) = by_name(document, "authors")
        tree = Node.element("author")
        tree.append_child(Node.text("C"))
        derived, rebuilt, __, __ = derive_after(
            [InsertIntoAsLast(authors.node_id, [tree])])
        assert derived == rebuilt
        assert len(derived.elements["author"]) == 3

    def test_insert_attributes_updates_value_buckets(self):
        document, __ = fresh()
        (note,) = by_name(document, "note")
        derived, rebuilt, __, __ = derive_after(
            [InsertAttributes(note.node_id,
                              [Node.attribute("status", "ok")])])
        assert derived == rebuilt
        assert len(derived.values[("status", "ok")]) == 2

    def test_rename_moves_the_element_bucket(self):
        document, __ = fresh()
        (note,) = by_name(document, "note")
        derived, rebuilt, __, __ = derive_after(
            [Rename(note.node_id, "remark")])
        assert derived == rebuilt
        assert "note" not in derived.elements
        assert len(derived.elements["remark"]) == 1

    def test_replace_value_moves_the_value_bucket(self):
        document, __ = fresh()
        status = next(n for n in document.nodes() if n.is_attribute
                      and n.name == "status" and n.value == "ok")
        derived, rebuilt, __, __ = derive_after(
            [ReplaceValue(status.node_id, "rev")])
        assert derived == rebuilt
        assert ("status", "ok") not in derived.values
        assert len(derived.values[("status", "rev")]) == 1

    def test_replace_node_swaps_subtrees(self):
        document, __ = fresh()
        papers = by_name(document, "paper")
        derived, rebuilt, __, __ = derive_after(
            [ReplaceNode(papers[1].node_id, [Node.element("errata")])])
        assert derived == rebuilt
        assert len(derived.elements["paper"]) == 1
        assert "errata" in derived.elements

    def test_replace_children_clears_the_old_subtree(self):
        document, __ = fresh()
        papers = by_name(document, "paper")
        derived, rebuilt, __, __ = derive_after(
            [ReplaceChildren(papers[0].node_id, [Node.text("gone")])])
        assert derived == rebuilt
        assert len(derived.elements["title"]) == 1  # paper 2's survives

    def test_untouched_buckets_are_shared_not_copied(self):
        document, __ = fresh()
        (note,) = by_name(document, "note")
        derived, __, old, __ = derive_after(
            [Rename(note.node_id, "remark")])
        assert derived.elements["paper"] is old.elements["paper"]
        assert derived.attributes["id"] is old.attributes["id"]
        assert derived.texts is not None


class TestSweep:
    def test_strict_containment(self):
        intervals = [("1", "4"), ("6", "9")]
        entries = [("0", "05", 1, None),   # before both
                   ("2", "3", 2, None),    # inside the first
                   ("1", "4", 3, None),    # equal, not strict
                   ("5", "55", 4, None),   # in the gap
                   ("7", "8", 5, None)]    # inside the second
        kept = descendant_sweep(intervals, entries)
        assert [e[2] for e in kept] == [2, 5]

    def test_virtual_root_contains_everything(self):
        entries = [("1", "2", 1, None), ("3", "9", 2, None)]
        assert descendant_sweep([("", None)], entries) == entries

    def test_key_projection(self):
        entries = [("2", "2a", 7, "owner")]
        kept = descendant_sweep([("1", "4")], entries,
                                key=lambda e: ("2", "3"))
        assert kept == entries


class TestValueFilter:
    def test_attribute_literal_shape_hits_the_value_bucket(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        path = parse_path('/doc/paper[@status = "ok"]')
        (predicate,) = path.steps[1].predicates
        ids = value_filter_ids(predicate, index)
        papers = by_name(document, "paper")
        assert ids == {papers[0].node_id}

    def test_other_shapes_fall_back_to_the_walker(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        for text in ('/doc/paper[title = "Alpha"]',   # element compare
                     '/doc/paper[authors]'):          # exists
            (predicate,) = parse_path(text).steps[1].predicates
            assert value_filter_ids(predicate, index) is None


QUERIES = (
    "/doc", "/doc/paper", "//author", "//@id", "//paper//author",
    "//title/text()", "/doc/*", "//paper/@status",
    '/doc/paper[@status = "ok"]/title', "//paper[authors]",
    "/doc/paper[2]", "//author[last()]",
)


class TestPlanner:
    @pytest.mark.parametrize("text", QUERIES)
    def test_every_engine_returns_walker_nodes(self, text):
        document, labeling = fresh()
        index = build_index(document, labeling)
        path = parse_path(text)
        walked, __ = run_query(path, document, labeling=labeling,
                               index=index, engine="walk")
        for engine in ("auto", "index"):
            nodes, __ = run_query(path, document, labeling=labeling,
                                  index=index, engine=engine)
            assert nodes == walked

    def test_positional_predicates_route_to_the_walker(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        __, plan = run_query(parse_path("/doc/paper[2]"), document,
                             labeling=labeling, index=index)
        assert plan["mode"] == "walker"
        assert "positional" in plan["reason"]

    def test_wildcard_step_yields_a_mixed_plan(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        __, plan = run_query(parse_path("/doc/*"), document,
                             labeling=labeling, index=index,
                             engine="index")
        choices = [s["choice"] for s in plan["steps"]]
        assert choices == ["index-scan", "walk"]
        assert plan["mode"] == "mixed"

    def test_forced_index_mode_scans_buckets(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        __, plan = run_query(parse_path("//paper//author"), document,
                             labeling=labeling, index=index,
                             engine="index")
        assert plan["mode"] == "indexed"
        assert all(s["choice"] == "index-scan" for s in plan["steps"])

    def test_missing_index_walks_with_a_reason(self):
        document, labeling = fresh()
        __, plan = run_query(parse_path("//author"), document,
                             labeling=labeling, index=None)
        assert plan["mode"] == "walker"
        assert plan["reason"] == "no index for this version"

    def test_unknown_engine_is_refused(self):
        document, labeling = fresh()
        with pytest.raises(ValueError):
            run_query(parse_path("/doc"), document, labeling=labeling,
                      index=build_index(document, labeling),
                      engine="turbo")

    def test_attr_value_predicate_uses_the_value_bucket(self):
        document, labeling = fresh()
        index = build_index(document, labeling)
        __, plan = run_query(
            parse_path('/doc/paper[@status = "ok"]'), document,
            labeling=labeling, index=index, engine="index")
        assert plan["steps"][1]["predicates"] == ["attr-value-index"]


class TestStoreIntegration:
    def test_flush_maintains_the_index_incrementally(self):
        with DocumentStore(workers=1, backend="serial") as store:
            store.open("d", DOC)
            store.submit_xquery(
                "d", 'insert node <note>fresh</note> as last into /doc')
            result = store.flush("d")
            assert result.index_maintenance == "incremental"
            version = store._entries["d"].published
            assert version.index == build_index(version.document,
                                                version.labeling)

    def test_tight_headroom_falls_back_to_rebuild(self):
        with DocumentStore(workers=1, backend="serial",
                           max_code_length=6) as store:
            store.open("d", DOC)
            modes = set()
            for __ in range(6):
                store.submit_xquery(
                    "d",
                    'insert node <x/> as first into /doc/paper[1]')
                modes.add(store.flush("d").index_maintenance)
                version = store._entries["d"].published
                assert version.index == build_index(version.document,
                                                    version.labeling)
            assert "rebuild" in modes

    def test_pinned_versions_keep_their_index(self):
        with DocumentStore(workers=1, backend="serial") as store:
            store.open("d", DOC)
            before = store._entries["d"].published
            snapshot = before.index.as_dict()
            store.submit_xquery("d", 'delete nodes /doc/note')
            store.flush("d")
            after = store._entries["d"].published
            assert before.index.as_dict() == snapshot
            assert "note" in before.index.elements
            assert "note" not in after.index.elements
            # untouched buckets are shared across the version boundary
            assert after.index.elements["author"] is \
                before.index.elements["author"]

    def test_query_engines_are_byte_identical(self):
        with DocumentStore(workers=1, backend="serial") as store:
            store.open("d", DOC)
            for text in QUERIES:
                walk = store.query("d", text, engine="walk")
                auto = store.query("d", text)
                forced = store.query("d", text, engine="index")
                assert walk["nodes"] == auto["nodes"] == forced["nodes"]

    def test_query_explain_attaches_the_plan(self):
        with DocumentStore(workers=1, backend="serial") as store:
            store.open("d", DOC)
            plain = store.query("d", "//author")
            assert "plan" not in plain
            explained = store.query("d", "//author", explain=True)
            assert explained["plan"]["mode"] == "indexed"
            assert explained["nodes"] == plain["nodes"]

    def test_explain_surface_omits_the_nodes(self):
        with DocumentStore(workers=1, backend="serial") as store:
            dispatcher = StoreDispatcher(store)
            store.open("d", DOC)
            result = dispatcher.explain("d", "//paper//author")
            assert result["count"] == 2
            assert "nodes" not in result
            assert [s["choice"] for s in result["plan"]["steps"]] == \
                ["index-scan", "index-scan"]

    def test_explain_requires_text(self):
        from repro.errors import ProtocolError
        with DocumentStore(workers=1, backend="serial") as store:
            dispatcher = StoreDispatcher(store)
            store.open("d", DOC)
            with pytest.raises(ProtocolError):
                dispatcher.explain("d", 42)
