"""In-memory PUL evaluation — the "modified Qizx" path (Section 4.3).

The entire document is parsed into a tree, the PUL is applied through the
five-stage semantics, labels are incrementally extended to the new nodes,
and the document is serialized back. Memory is proportional to the
document size — the baseline the streaming evaluator is compared against
in Figure 6a.
"""

from __future__ import annotations

from repro.pul.semantics import apply_pul
from repro.xdm.document import Document
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize


class InMemoryEvaluator:
    """Evaluate PULs by materializing the document.

    Parameters
    ----------
    labeling:
        Optional :class:`~repro.labeling.scheme.ContainmentLabeling` of the
        document; after application it is synchronized so that new nodes
        get labels (existing codes never change).
    """

    def __init__(self, labeling=None):
        self.labeling = labeling

    def evaluate(self, source, pul, with_ids=False):
        """Apply ``pul`` to ``source`` (XML text or a Document).

        Returns the serialized result. Text input is parsed first (ids in
        document order); Document input is updated in place.
        """
        if isinstance(source, Document):
            document = source
        else:
            document = parse_document(source)
        apply_pul(document, pul)
        if self.labeling is not None:
            self.labeling.sync(document)
        if document.root is None:
            return ""
        return serialize(document, with_ids=with_ids)


def apply_in_memory(source, pul, labeling=None, with_ids=False):
    """One-shot convenience wrapper around :class:`InMemoryEvaluator`."""
    return InMemoryEvaluator(labeling=labeling).evaluate(
        source, pul, with_ids=with_ids)
