"""Snapshot serialization of resident document state.

A snapshot must reconstruct a :class:`~repro.store.versions.DocumentVersion`
*exactly* — not just the same bytes of XML, but the same node
identifiers, the same allocator position (burnt ids stay burnt), the
same containment labels digit for digit, and the same code-length
watermark — because the replayed WAL tail runs through the incremental
relabel machinery, whose output depends on all of them.

A payload carries the document as *node rows*: one per node, in
document order, with an element's attributes right after it (the
labeling's own slot order), each with the node's two containment
codes::

    element    [id, name, attribute count, child count, start, end]
    attribute  [id, name, value, start, end]
    text       [id, value, start, end]

The rest of an extended label — node type, level, parent and sibling
ids — is what the tree says it is, so it is not written: the restore
reads it off the tree while one iterative walk over the rows builds
both. The rows travel as one compact JSON text in the ``nodes`` field
(a single string costs a wire codec one copy instead of a walk over
every term), beside ``doc_id``, ``next_id``, ``max_code_len``, the
headroom ``budget`` the document was opened under and the version
counters. A payload of any other shape — the retired ``tree``/``labels``
form among them — is a :class:`RecoveryError`; one written before
payloads carried a budget restores under the restoring host's.

This module is the only code that knows the form: the snapshot file,
the WAL ``open`` record, the ``export`` state page, a replica's
bootstrap and the replay oracle all go through :func:`document_payload`
and :func:`restore_document`.
"""

from __future__ import annotations

import json

from repro.errors import LabelingError, RecoveryError
from repro.labeling.containment import ExtendedLabel
from repro.labeling.scheme import ContainmentLabeling
from repro.store.versions import DEFAULT_MAX_CODE_LENGTH, DocumentVersion
from repro.xdm.document import Document, IdAllocator
from repro.xdm.node import Node, NodeType

#: counters carried verbatim between a DocumentVersion and its payload
_COUNTERS = ("version", "batches", "incremental_relabels", "full_relabels")

_ELEMENT, _ATTRIBUTE, _TEXT = NodeType.ELEMENT, NodeType.ATTRIBUTE, \
    NodeType.TEXT

#: the type of every field of a node row, by the row's length
_ROW_TYPES = {
    6: [int, str, int, int, str, str],  # element
    5: [int, str, str, str, str],       # attribute
    4: [int, str, str, str],            # text
}


def document_payload(version):
    """Serialize one :class:`DocumentVersion` to a payload dict
    (JSON-compatible)."""
    labels = version.labeling.as_mapping()
    rows = []
    append = rows.append
    for node in version.document.root.iter_subtree():
        label = labels[node.node_id]
        kind = node.node_type
        if kind is _ELEMENT:
            append([node.node_id, node.name, len(node.attributes),
                    len(node.children), label.start, label.end])
        elif kind is _ATTRIBUTE:
            append([node.node_id, node.name, node.value, label.start,
                    label.end])
        else:
            append([node.node_id, node.value, label.start, label.end])
    payload = {
        "doc_id": version.doc_id,
        "next_id": version.document.allocator.next_value,
        "nodes": json.dumps(rows, ensure_ascii=False,
                            separators=(",", ":")),
        "max_code_len": version.labeling.max_code_length,
        "budget": version.budget,
    }
    for counter in _COUNTERS:
        payload[counter] = getattr(version, counter)
    return payload


def restore_document(payload, budget=DEFAULT_MAX_CODE_LENGTH):
    """Rebuild the :class:`DocumentVersion` a payload dict describes —
    unpublished, and with no index (a store entry builds one when it
    publishes the version; the replay oracle needs none) — under the
    headroom budget the payload carries, or ``budget`` (the restoring
    host's) when it carries none. Anything malformed, a missing or
    unhashable ``doc_id`` among it, is a :class:`RecoveryError`."""
    if not isinstance(payload, dict):
        raise RecoveryError("a document payload is an object, not a "
                            "{}".format(type(payload).__name__))
    if "doc_id" not in payload:
        raise RecoveryError("malformed document payload: no doc_id")
    doc_id = payload["doc_id"]
    try:
        hash(doc_id)
    except TypeError as exc:
        raise RecoveryError("malformed document payload: doc_id {!r} "
                            "names no document".format(doc_id)) from exc
    try:
        root, nodes, labels = _rebuild(json.loads(payload["nodes"]))
        allocator = IdAllocator()
        allocator.reserve_at_least(max(nodes) + 1)
        allocator.reserve_at_least(_integer(payload["next_id"]))
        document = Document.indexed(root, nodes, allocator)
        labeling = ContainmentLabeling.restored(
            labels, _integer(payload["max_code_len"]))
        budget = _integer(payload.get("budget", budget))
        if budget < 1:
            raise ValueError("budget {} is below 1".format(budget))
        counters = [_integer(payload[name]) for name in _COUNTERS]
    except KeyError as exc:
        raise RecoveryError(
            "malformed document payload for {!r}: no {} field{}".format(
                doc_id, exc, " (a payload in the retired tree/labels "
                "form)" if "tree" in payload else "")) from exc
    except (TypeError, ValueError, RecursionError, LabelingError) as exc:
        raise RecoveryError(
            "malformed document payload for {!r}: {}".format(
                doc_id, exc)) from exc
    version, batches, incremental_relabels, full_relabels = counters
    return DocumentVersion(doc_id, version, document, labeling, budget,
                           batches, incremental_relabels, full_relabels)


def _integer(value):
    if type(value) is not int:
        raise TypeError("expected an integer, got {!r}".format(value))
    return value


def _rebuild(rows):
    """Build the tree and its labels from node rows in one walk.

    Returns ``(root, {id: node}, {id: label})``. Each label's level,
    parent and sibling ids come from the place its row takes in the
    tree; a row that does not fit the tree the rows before it describe
    is a ``ValueError``.
    """
    if type(rows) is not list or not rows:
        raise ValueError("no node rows")
    nodes = {}
    labels = {}
    # the open elements: [node, attributes left, children left, label
    # of the last child placed]
    open_elements = []
    for row in rows:
        if type(row) is not list or \
                list(map(type, row)) != _ROW_TYPES.get(len(row)):
            raise ValueError("malformed node row {!r}".format(row))
        node_id, arity = row[0], len(row)
        if node_id in nodes:
            raise ValueError("duplicate node id {}".format(node_id))
        top = parent = left = None
        if open_elements:
            top = open_elements[-1]
            parent = top[0]
        elif nodes:
            raise ValueError("{} row(s) left over after the root's "
                             "subtree".format(len(rows) - len(nodes)))
        if top is not None and top[1]:
            if arity != 5:
                raise ValueError("row {!r} is out of place".format(row))
            node = Node(_ATTRIBUTE, name=row[1], value=row[2],
                        node_id=node_id)
            parent.attributes.append(node)
            top[1] -= 1
        elif arity == 5 or (top is None and arity == 4):
            raise ValueError("row {!r} is out of place".format(row))
        else:
            node = (Node(_ELEMENT, name=row[1], node_id=node_id)
                    if arity == 6 else
                    Node(_TEXT, value=row[1], node_id=node_id))
            if top is not None:
                parent.children.append(node)
                top[2] -= 1
                left = top[3]
        node.parent = parent
        label = ExtendedLabel(
            node_id, node.node_type, row[-2], row[-1], len(open_elements),
            None if parent is None else parent.node_id,
            None if left is None else left.node_id)
        nodes[node_id] = node
        labels[node_id] = label
        if left is not None:
            left.right_sibling_id = node_id
        if top is not None and arity != 5:
            top[3] = label
        if arity == 6 and (row[2] or row[3]):
            if row[2] < 0 or row[3] < 0:
                raise ValueError("negative count in row {!r}".format(row))
            open_elements.append([node, row[2], row[3], None])
            continue
        while open_elements and not (open_elements[-1][1]
                                     or open_elements[-1][2]):
            open_elements.pop()
    if open_elements:
        raise ValueError(
            "node rows cut short: the counts of <{}> point past the "
            "last row".format(open_elements[-1][0].name))
    return nodes[rows[0][0]], nodes, labels
