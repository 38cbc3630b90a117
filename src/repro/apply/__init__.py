"""PUL evaluators (Section 4 / Figure 6a).

* :mod:`repro.apply.inmemory` — the "modified Qizx" evaluator: load the
  whole document, apply the PUL, serialize back.
* :mod:`repro.apply.streaming` — the SAX-style evaluator: the document
  flows through as an event stream, transformed on the fly; memory is
  independent of document size.

Both evaluators assign identifiers to new nodes in final-document order
with identical tie-breaking, so their outputs are directly comparable,
and refuse the same PULs with the same message. Only the in-memory one
maintains a labeling (``InMemoryEvaluator(labeling=...)``, through
:meth:`~repro.labeling.scheme.ContainmentLabeling.sync`); the store's
in-place applier (:mod:`repro.apply.inplace`) repairs labels per site.
"""

from repro.apply.events import (
    EndElement,
    StartElement,
    TextEvent,
    document_events,
    events_to_document,
    events_to_xml,
    parse_events,
)
from repro.apply.inmemory import InMemoryEvaluator, apply_in_memory
from repro.apply.streaming import StreamingEvaluator, apply_streaming

__all__ = [
    "StartElement", "EndElement", "TextEvent",
    "document_events", "parse_events", "events_to_xml",
    "events_to_document",
    "InMemoryEvaluator", "apply_in_memory",
    "StreamingEvaluator", "apply_streaming",
]
