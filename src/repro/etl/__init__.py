"""Streaming bulk ETL: corpus-scale import and export.

The import side (:mod:`repro.etl.importer`) is the classic
extract → validate → transform → load pipeline over an XML corpus:
sources are scanned incrementally, parse failures are *rejected with a
reason* instead of aborting the run (until the ``max_errors`` quality
gate trips), and accepted documents are loaded in chunks so the store's
:meth:`~repro.store.store.DocumentStore.bulk_load` can amortize one
group fsync over each chunk.

The export side (:mod:`repro.etl.exporter`) drives the paged,
resumable ``export`` operation: filtered corpus dumps read from
published MVCC versions, with the first page's resume token returned as the CDC
anchor for a subscriber that wants to follow the exported state.
"""

from repro.etl.exporter import export_corpus, safe_filename
from repro.etl.importer import BulkImporter, ImportReport, iter_sources

__all__ = [
    "BulkImporter",
    "ImportReport",
    "export_corpus",
    "iter_sources",
    "safe_filename",
]
