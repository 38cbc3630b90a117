"""Streaming bulk import: chunked group-committed loads with a
validation quality gate."""

import pytest

from repro.errors import ImportAbortedError, NotLeaderError, ReproError
from repro.etl import BulkImporter, iter_sources
from repro.store import DocumentStore

DOC = "<doc><items><i/></items></doc>"


def corpus(tmp_path, count=5, subdir="corpus"):
    root = tmp_path / subdir
    root.mkdir()
    for index in range(count):
        (root / "doc{}.xml".format(index)).write_text(
            "<r><v>{}</v></r>".format(index), encoding="utf-8")
    return root


class TestSources:
    def test_directories_walk_recursively_and_sorted(self, tmp_path):
        root = corpus(tmp_path, count=2)
        nested = root / "sub"
        nested.mkdir()
        (nested / "deep.xml").write_text("<r/>", encoding="utf-8")
        (root / "notes.txt").write_text("ignored", encoding="utf-8")
        pairs = list(iter_sources([str(root)]))
        assert [doc_id for doc_id, __ in pairs] == \
            ["doc0", "doc1", "deep"]

    def test_files_are_taken_verbatim(self, tmp_path):
        path = tmp_path / "one.xml"
        path.write_text("<r/>", encoding="utf-8")
        assert list(iter_sources([str(path)])) == \
            [("one", str(path))]

    def test_missing_operand_is_a_typed_error_not_a_reject(
            self, tmp_path):
        with pytest.raises(ReproError) as info:
            list(iter_sources([str(tmp_path / "nope")]))
        assert "no such import source" in str(info.value)


class TestImporter:
    def test_loads_a_corpus_durably(self, tmp_path):
        root = corpus(tmp_path)
        wal = tmp_path / "wal"
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=str(wal)) as store:
            report = BulkImporter(store.bulk_load).run([str(root)])
            assert report.scanned == report.loaded == 5
            assert report.rejected == []
            assert report.chunks == 1
            assert store.text("doc3") == "<r><v>3</v></r>"
        # the chunk survives a restart: bulk loads are WAL-first
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=str(wal)) as store:
            assert sorted(store.doc_ids()) == \
                ["doc0", "doc1", "doc2", "doc3", "doc4"]

    def test_chunking_bounds_each_group_commit(self, tmp_path):
        root = corpus(tmp_path, count=5)
        chunks = []
        importer = BulkImporter(
            lambda chunk: chunks.append(len(chunk)) or
            {"loaded": len(chunk), "nodes": 0}, chunk_docs=2)
        report = importer.run([str(root)])
        assert chunks == [2, 2, 1]
        assert report.chunks == 3 and report.loaded == 5

    def test_chunk_bytes_flushes_large_documents_early(self, tmp_path):
        root = tmp_path / "big"
        root.mkdir()
        for index in range(3):
            (root / "b{}.xml".format(index)).write_text(
                "<r>{}</r>".format("x" * 2048), encoding="utf-8")
        chunks = []
        BulkImporter(
            lambda chunk: chunks.append(len(chunk)) or {},
            chunk_docs=100, chunk_bytes=2048).run([str(root)])
        assert chunks == [1, 1, 1]

    def test_doc_prefix_namespaces_the_corpus(self, tmp_path):
        root = corpus(tmp_path, count=2)
        with DocumentStore(workers=1, backend="serial") as store:
            BulkImporter(store.bulk_load,
                         doc_prefix="feed/").run([str(root)])
            assert sorted(store.doc_ids()) == \
                ["feed/doc0", "feed/doc1"]

    def test_invalid_documents_are_rejected_not_fatal(self, tmp_path):
        root = corpus(tmp_path, count=2)
        (root / "broken.xml").write_text("<r><open>",
                                         encoding="utf-8")
        with DocumentStore(workers=1, backend="serial") as store:
            report = BulkImporter(store.bulk_load).run([str(root)])
            assert report.loaded == 2
            assert len(report.rejected) == 1
            assert "invalid xml" in report.rejected[0]["reason"]
            assert report.to_dict()["rejected"] == 1

    def test_duplicate_ids_within_a_run_are_rejected(self, tmp_path):
        left = corpus(tmp_path, count=1, subdir="left")
        right = corpus(tmp_path, count=1, subdir="right")
        with DocumentStore(workers=1, backend="serial") as store:
            report = BulkImporter(store.bulk_load).run(
                [str(left), str(right)])
            assert report.loaded == 1
            assert "duplicate" in report.rejected[0]["reason"]

    def test_max_errors_aborts_typed_and_keeps_loaded_chunks(
            self, tmp_path):
        root = tmp_path / "dirty"
        root.mkdir()
        (root / "a.xml").write_text("<r/>", encoding="utf-8")
        (root / "x.xml").write_text("<bad", encoding="utf-8")
        (root / "y.xml").write_text("<bad", encoding="utf-8")
        wal = tmp_path / "wal"
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=str(wal)) as store:
            with pytest.raises(ImportAbortedError) as info:
                BulkImporter(store.bulk_load, chunk_docs=1,
                             max_errors=1).run([str(root)])
            assert info.value.loaded == 1      # "a" was group-committed
            assert info.value.rejected == 2
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=str(wal)) as store:
            assert store.doc_ids() == ["a"]  # durable despite abort

    def test_chunk_docs_must_be_positive(self):
        with pytest.raises(ReproError):
            BulkImporter(lambda chunk: {}, chunk_docs=0)


class TestBulkLoad:
    def test_duplicate_against_the_store_fails_the_whole_chunk(
            self, tmp_path):
        with DocumentStore(workers=1, backend="serial") as store:
            store.open("dup", DOC)
            with pytest.raises(ReproError):
                store.bulk_load([{"doc_id": "fresh", "xml": DOC},
                                 {"doc_id": "dup", "xml": DOC}])
            # atomic: the non-duplicate half was not installed either
            assert store.doc_ids() == ["dup"]

    def test_chunk_internal_duplicates_fail_before_any_install(self):
        with DocumentStore(workers=1, backend="serial") as store:
            with pytest.raises(ReproError):
                store.bulk_load([{"doc_id": "d", "xml": DOC},
                                 {"doc_id": "d", "xml": DOC}])
            assert store.doc_ids() == []

    def test_pairs_and_missing_fields(self):
        with DocumentStore(workers=1, backend="serial") as store:
            result = store.bulk_load([("t1", DOC)])
            assert result == {"loaded": 1, "nodes": result["nodes"],
                              "doc_ids": ["t1"]}
            with pytest.raises(ReproError):
                store.bulk_load([{"doc_id": "t2"}])

    def test_loaded_chunk_reaches_the_change_feed(self, tmp_path):
        with DocumentStore(workers=1, backend="serial",
                           durability="log",
                           wal_dir=str(tmp_path / "wal")) as store:
            anchor = store.enable_replication().tail_token()
            store.bulk_load([{"doc_id": "a", "xml": DOC},
                             {"doc_id": "b", "xml": DOC}])
            events = store.replication.read(from_token=anchor)["events"]
            assert [(e["kind"], e["doc_id"]) for e in events] == \
                [("open", "a"), ("open", "b")]

    def test_replicas_refuse_bulk_loads(self):
        from repro.cluster import ReplicaStore

        with ReplicaStore(leader_address="127.0.0.1:7000", workers=1,
                          backend="serial") as replica:
            with pytest.raises(NotLeaderError):
                replica.bulk_load([{"doc_id": "d", "xml": DOC}])
