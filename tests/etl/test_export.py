"""Resumable corpus export: pinned-version pages, cursor resume, and
the export-token / change-feed pairing."""

import os

import pytest

from repro.api.dispatch import StoreDispatcher
from repro.cluster.tokens import decode_token, encode_token
from repro.errors import ReproError
from repro.etl import export_corpus, safe_filename
from repro.store import DocumentStore

DOC = "<doc><items/></doc>"


def loaded_store(tmp_path=None, count=5, replicate=False):
    kwargs = {}
    if tmp_path is not None:
        kwargs.update(durability="log", wal_dir=str(tmp_path / "wal"))
    store = DocumentStore(**kwargs)
    if replicate:
        store.enable_replication()
    store.bulk_load([{"doc_id": "d{}".format(index),
                      "xml": "<r><v>{}</v></r>".format(index)}
                     for index in range(count)])
    return store


class TestExportState:
    def test_pages_resume_on_the_cursor(self):
        with loaded_store() as store:
            first = store.export_state(limit=2, form="xml")
            assert [d["doc_id"] for d in first["docs"]] == ["d0", "d1"]
            assert first["cursor"] == "d1" and not first["done"]
            second = store.export_state(cursor=first["cursor"],
                                        limit=2, form="xml")
            assert [d["doc_id"] for d in second["docs"]] == ["d2", "d3"]
            last = store.export_state(cursor=second["cursor"],
                                      form="xml")
            assert [d["doc_id"] for d in last["docs"]] == ["d4"]
            assert last["done"]

    def test_doc_filter_restricts_the_walk(self):
        with loaded_store() as store:
            page = store.export_state(doc_ids=["d3", "d1", "nope"],
                                      form="xml")
            assert [d["doc_id"] for d in page["docs"]] == ["d1", "d3"]
            assert page["done"]

    def test_xml_form_carries_text_and_version(self):
        with loaded_store() as store:
            doc = store.export_state(doc_ids=["d2"],
                                     form="xml")["docs"][0]
            assert doc == {"doc_id": "d2", "text": "<r><v>2</v></r>",
                           "version": 0}

    def test_state_form_round_trips_through_a_replica(self):
        from repro.cluster import ReplicaStore

        with loaded_store() as store, \
                ReplicaStore() as replica:
            store.submit_xquery(
                "d0", 'insert node <x/> as last into /r')
            store.flush("d0")
            page = store.export_state(form="state")
            replica.bootstrap(page["docs"], page["seq"],
                              stream=page["stream"])
            for doc_id in store.doc_ids():
                assert replica.text(doc_id) == store.text(doc_id)
            assert replica.version("d0") == 1

    def test_unknown_form_is_typed(self):
        with loaded_store() as store:
            with pytest.raises(ReproError):
                store.export_state(form="csv")

    def test_stream_pairing_reads_position_before_payloads(
            self, tmp_path):
        with loaded_store(tmp_path, replicate=True) as store:
            page = store.export_state(form="state")
            assert page["stream"] == store.replication.stream_id
            assert page["seq"] == store.replication.next_seq
            # replaying from the paired position redelivers nothing
            token = encode_token(page["stream"], page["seq"])
            assert store.replication.read(
                from_token=token)["events"] == []

    def test_without_replication_there_is_no_pairing(self):
        with loaded_store() as store:
            page = store.export_state(form="xml")
            assert page["seq"] is None and page["stream"] is None


class TestDispatcherExport:
    def test_token_is_minted_from_the_pairing(self, tmp_path):
        with loaded_store(tmp_path, replicate=True) as store:
            result = StoreDispatcher(store).export(max_docs=2)
            stream, seq = decode_token(result["token"])
            assert stream == store.replication.stream_id
            assert seq == store.replication.next_seq

    def test_token_is_null_without_a_feed(self):
        with loaded_store() as store:
            assert StoreDispatcher(store).export()["token"] is None


class TestExportCorpus:
    def test_drains_pages_and_writes_files(self, tmp_path):
        out_dir = tmp_path / "dump"
        with loaded_store() as store:
            result = export_corpus(StoreDispatcher(store).export,
                                   out_dir=str(out_dir), page_size=2)
            assert result["docs"] == 5 and result["pages"] == 3
            assert result["done"]
        assert sorted(os.listdir(out_dir)) == \
            ["d{}.xml".format(i) for i in range(5)]
        with open(out_dir / "d4.xml", encoding="utf-8") as handle:
            assert handle.read() == "<r><v>4</v></r>"

    def test_token_is_the_first_pages_cdc_anchor(self, tmp_path):
        with loaded_store(tmp_path, replicate=True) as store:
            export = StoreDispatcher(store).export

            def racing_export(**kwargs):
                page = export(**kwargs)
                # a write lands between pages; the run token must stay
                # the FIRST page's (the state the dump began from)
                store.submit_xquery(
                    "d0", 'insert node <x/> as last into /r')
                store.flush("d0")
                return page

            before = store.replication.next_seq
            result = export_corpus(racing_export, page_size=2)
            assert decode_token(result["token"])[1] == before

    def test_filters_pass_through(self, tmp_path):
        with loaded_store() as store:
            result = export_corpus(StoreDispatcher(store).export,
                                   doc_ids=["d1", "d3"])
            assert result["doc_ids"] == ["d1", "d3"]


class TestSafeFilename:
    @pytest.mark.parametrize("doc_id,expected", [
        ("plain", "plain.xml"),
        ("a/b:c", "a_b_c.xml"),
        ("dots.ok-1_2", "dots.ok-1_2.xml"),
        ("", "doc.xml"),
    ])
    def test_everything_becomes_a_file_name(self, doc_id, expected):
        assert safe_filename(doc_id) == expected
