"""Paged, resumable corpus export over the ``export`` operation.

:func:`export_corpus` is target-agnostic like the importer: ``export``
is any callable with the operation's contract (the dispatcher method or
:meth:`StoreClient.export`), so local and remote dumps share one
driver. Pages resume on the ``cursor`` (last document key of the
previous page); the **first** page's resume token is the CDC anchor —
it was read before any payload was captured, so a subscriber resuming
from it re-receives at most changes the exported state already
contains.
"""

from __future__ import annotations

import os


def safe_filename(doc_id, suffix=".xml"):
    """A filesystem-safe file name for a document id."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "._-" else "_"
        for ch in str(doc_id))
    return (cleaned or "doc") + suffix


def export_corpus(export, out_dir=None, doc_ids=None, cursor=None,
                  page_size=64, form="xml", progress=None):
    """Drain the export pages; returns the run summary.

    When ``out_dir`` is given each ``xml``-form document is written to
    ``<out_dir>/<doc_id>.xml``. Returns ``{"docs", "doc_ids",
    "cursor", "done", "token", "pages"}`` — ``token`` anchors a CDC
    subscription at the exported state (``None`` when the source has
    no replication feed).
    """
    progress = progress or (lambda line: None)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    token = None
    exported = []
    pages = 0
    while True:
        page = export(doc_ids=doc_ids, cursor=cursor,
                      max_docs=page_size, format=form)
        pages += 1
        if token is None:
            token = page.get("token")
        for doc in page["docs"]:
            exported.append(doc["doc_id"])
            if out_dir is not None and "text" in doc:
                path = os.path.join(out_dir,
                                    safe_filename(doc["doc_id"]))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(doc["text"])
        cursor = page["cursor"]
        progress("page {}: {} doc(s), cursor={!r}".format(
            pages, len(page["docs"]), cursor))
        if page["done"]:
            return {"docs": len(exported), "doc_ids": exported,
                    "cursor": cursor, "done": True,
                    "token": token, "pages": pages}
