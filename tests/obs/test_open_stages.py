"""``repro_store_open_stage_seconds``: every document ``open`` or
``bulk_load`` makes resident is timed once per stage — ``parse``,
``label``, ``index``, and ``log`` when the store keeps a log — and a
restart, which restores documents instead of opening them, times
none."""

from repro.store import DocumentStore
from repro.xdm.parser import parse_document

STAGES = ("parse", "label", "index", "log")
DOC = "<bib><paper year='1999'><title>T1</title></paper></bib>"


def _counts(store):
    histograms = store.metrics_snapshot()["histograms"]
    return {stage: histograms.get(
        'repro_store_open_stage_seconds{{stage="{}"}}'.format(stage),
        {}).get("count", 0) for stage in STAGES}


def test_each_stage_once_per_opened_document(tmp_path):
    with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
        assert _counts(store) == dict.fromkeys(STAGES, 0)
        store.open("a", DOC)
        assert _counts(store) == dict.fromkeys(STAGES, 1)
        store.bulk_load([{"doc_id": d, "xml": DOC} for d in "bcd"])
        assert _counts(store) == dict.fromkeys(STAGES, 4)
        # a parsed document is not parsed again
        store.open("e", parse_document(DOC))
        assert _counts(store) == {"parse": 4, "label": 5, "index": 5,
                                  "log": 5}
        # flushes and queries open nothing
        store.submit_xquery("a", 'rename node /bib/paper as "p"')
        store.flush("a")
        store.query("a", "//title")
        assert _counts(store) == {"parse": 4, "label": 5, "index": 5,
                                  "log": 5}
    with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
        assert len(store.doc_ids()) == 5
        assert _counts(store) == dict.fromkeys(STAGES, 0)


def test_a_store_without_a_log_times_no_log_stage():
    with DocumentStore() as store:
        store.bulk_load([{"doc_id": d, "xml": DOC} for d in "ab"])
        assert _counts(store) == {"parse": 2, "label": 2, "index": 2,
                                  "log": 0}
