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

The codes are CDBS digit strings, as they travel everywhere (a
labeling under another encoder is refused at write, for a restore
reads every code as CDBS); a resident labeling keeps them as integers
in its code columns, and converts from and to digits
(:meth:`~repro.labeling.scheme.ContainmentLabeling.digits`,
:meth:`~repro.labeling.scheme.ContainmentLabeling.restored`). The rest
of the label a PUL carries — node type, level, parent and sibling ids —
is what the tree says it is, so it is neither written nor restored: one
iterative walk over the rows builds the tree, its id table and the
codes. The rows travel as one compact JSON text in the ``nodes`` field
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
from sys import intern

from repro.errors import LabelingError, RecoveryError
from repro.labeling.codes import CDBSEncoder
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
    (JSON-compatible). A version whose labeling is not CDBS is a
    :class:`LabelingError`: :func:`restore_document` reads every code
    as CDBS, and a CDQS code of ``0``/``1`` digits would read back as
    another code."""
    labeling = version.labeling
    if type(labeling.encoder) is not CDBSEncoder:
        raise LabelingError(
            "a payload carries CDBS codes; document {!r} is labeled "
            "with {}".format(version.doc_id,
                             type(labeling.encoder).__name__))
    nodes = list(version.document.root.iter_subtree())
    rows = []
    append = rows.append
    for node, (start, end) in zip(nodes, labeling.digits_of(
            [node.node_id for node in nodes])):
        kind = node.node_type
        if kind is _ELEMENT:
            append([node.node_id, node.name, len(node.attributes),
                    len(node.children), start, end])
        elif kind is _ATTRIBUTE:
            append([node.node_id, node.name, node.value, start, end])
        else:
            append([node.node_id, node.value, start, end])
    payload = {
        "doc_id": version.doc_id,
        "next_id": version.document.allocator.next_value,
        "nodes": json.dumps(rows, ensure_ascii=False,
                            separators=(",", ":")),
        "max_code_len": labeling.max_code_length,
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
        root, ids, nodes, parents, labels = _rebuild(
            json.loads(payload["nodes"]))
        allocator = IdAllocator()
        allocator.reserve_at_least(max(ids) + 1)
        allocator.reserve_at_least(_integer(payload["next_id"]))
        document = Document.numbered(root, ids, nodes, parents, allocator)
        labeling = ContainmentLabeling.restored(
            document, labels, _integer(payload["max_code_len"]))
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
    """Build the tree and its codes from node rows in one walk.

    Returns ``(root, ids, nodes, parent ids, {id: (start, end)})``,
    the middle three lists in row order and the codes digit strings.
    Each node's parent id comes from the place its row takes in the
    tree; a row that does not fit
    the tree the rows before it describe, or whose codes make an empty
    interval, is a ``ValueError``. An element's child and attribute
    lists are made at its row, exactly as long as its counts say (a
    leaf keeps the shared ``()``), and names are interned as in the
    parser.
    """
    if type(rows) is not list or not rows:
        raise ValueError("no node rows")
    nodes = []
    parents = []
    labels = {}
    # the open elements: [node, attributes left, children left]
    open_elements = []
    for position, row in enumerate(rows):
        if type(row) is not list or \
                list(map(type, row)) != _ROW_TYPES.get(len(row)):
            raise ValueError("malformed node row {!r}".format(row))
        node_id, arity = row[0], len(row)
        if node_id in labels:
            raise ValueError("duplicate node id {}".format(node_id))
        top = parent = None
        if open_elements:
            top = open_elements[-1]
            parent = top[0]
        elif nodes:
            raise ValueError("{} row(s) left over after the root's "
                             "subtree".format(len(rows) - len(nodes)))
        if top is not None and top[1]:
            if arity != 5:
                raise ValueError("row {!r} is out of place".format(row))
            node = Node(_ATTRIBUTE, name=intern(row[1]), value=row[2],
                        node_id=node_id)
            attributes = parent.attributes
            attributes[len(attributes) - top[1]] = node
            top[1] -= 1
        elif arity == 5 or (top is None and arity == 4):
            raise ValueError("row {!r} is out of place".format(row))
        else:
            node = (Node(_ELEMENT, name=intern(row[1]), node_id=node_id)
                    if arity == 6 else
                    Node(_TEXT, value=row[1], node_id=node_id))
            if top is not None:
                children = parent.children
                children[len(children) - top[2]] = node
                top[2] -= 1
        start, end = row[-2], row[-1]
        if not start < end:
            raise ValueError("label interval is empty: [{!r}, {!r}]"
                             .format(start, end))
        nodes.append(node)
        parents.append(None if parent is None else parent.node_id)
        labels[node_id] = (start, end)
        if arity == 6 and (row[2] or row[3]):
            if row[2] < 0 or row[3] < 0:
                raise ValueError("negative count in row {!r}".format(row))
            if row[2] + row[3] >= len(rows) - position:
                raise _cut_short(node)
            if row[2]:
                node.attributes = [None] * row[2]
            if row[3]:
                node.children = [None] * row[3]
            open_elements.append([node, row[2], row[3]])
            continue
        while open_elements and not (open_elements[-1][1]
                                     or open_elements[-1][2]):
            open_elements.pop()
    if open_elements:
        raise _cut_short(open_elements[-1][0])
    return nodes[0], list(labels), nodes, parents, labels


def _cut_short(element):
    return ValueError("node rows cut short: the counts of <{}> point "
                      "past the last row".format(element.name))
