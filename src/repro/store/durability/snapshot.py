"""Snapshot serialization of resident document state.

A snapshot must reconstruct a :class:`~repro.store.versions.DocumentVersion`
*exactly* — not just the same bytes of XML, but the same node
identifiers, the same allocator position (burnt ids stay burnt), the
same containment labels digit for digit, and the same code-length
watermark — because the replayed WAL tail runs through the incremental
relabel machinery, whose output depends on all of them.

A payload carries the document as its *id table*: the paper's
containment labels give each node an interval that holds exactly its
descendants' intervals, and start codes run in document order, so a
node's kind, its name or value and its two codes say all there is to
say about where it hangs. The table is five columns indexed by node id
— the document's node column and the labeling's two code columns as
they are resident — and one small section for the ids the columns do
not cover::

    kinds   one character per slot: "e", "a", "t", or "-" for a slot
            no node holds
    names   the element or attribute name, else null
    values  the attribute or text value, else null (an element's
            value slot is not carried)
    starts  the start code, an int: the code's digits padded on the
    ends    right to the labeling's width, 0 on a blank slot
    far     [id, kind, name, value, start, end] of each id past the
            columns (the overflow dicts' ids)

The codes are CDBS (a labeling under another encoder is refused at
write, for a restore reads every code as CDBS), and the width is the
one the watermark ``max_code_len`` gives
(:meth:`~repro.labeling.scheme.ContainmentLabeling.restored`). The rest
of the label a PUL carries — node type, level, parent and sibling ids —
is what the tree says it is, so it is neither written nor restored. A
capture is one pass over the node column and two C-level slices of
the code columns; a restore sorts the held ids by start code and
builds the tree in one pass, a stack of open intervals checking that
they nest and giving each node its parent. The table travels as one
compact JSON text in the ``table`` field (a single string costs a wire
codec one copy instead of a walk over every term), beside ``doc_id``,
``next_id``, ``max_code_len``, the headroom ``budget`` the document was
opened under and the version counters. A payload of any other shape —
the retired node-row (``nodes``) and ``tree``/``labels`` forms among
them — is a :class:`RecoveryError`; one written before payloads carried
a budget restores under the restoring host's.

This module is the only code that knows the form: the snapshot file,
the WAL ``open`` record, the ``export`` state page, a replica's
bootstrap and the replay oracle all go through :func:`document_payload`
and :func:`restore_document`.
"""

from __future__ import annotations

import json
from itertools import compress
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

#: the kind of a slot no node holds
_BLANK = "-"

#: the columns of a table, in the order a payload writes them
_COLUMNS = ("kinds", "names", "values", "starts", "ends", "far")

#: above every code: the end of the interval that holds the root
_PAST = float("inf")


def document_payload(version):
    """Serialize one :class:`DocumentVersion` to a payload dict
    (JSON-compatible). A version whose labeling is not CDBS is a
    :class:`LabelingError`: :func:`restore_document` reads every code
    as CDBS, and a CDQS code would read back as another code."""
    labeling = version.labeling
    if type(labeling.encoder) is not CDBSEncoder:
        raise LabelingError(
            "a payload carries CDBS codes; document {!r} is labeled "
            "with {}".format(version.doc_id,
                             type(labeling.encoder).__name__))
    document = version.document
    column, far_nodes = document.table()
    kinds = []
    names = []
    values = []
    for node in column:
        if node is None:
            kinds.append(_BLANK)
            names.append(None)
            values.append(None)
            continue
        kind = node.node_type
        kinds.append(kind._value_)
        names.append(node.name)
        values.append(None if kind is _ELEMENT else node.value)
    starts, ends, far_codes = labeling.code_columns(len(column))
    far = []
    for node_id, (node, __) in far_nodes.items():
        if node_id not in far_codes:
            raise LabelingError("node {!r} holds no label".format(node_id))
        kind = node.node_type
        far.append([node_id, kind._value_, node.name,
                    None if kind is _ELEMENT else node.value,
                    *far_codes[node_id]])
    payload = {
        "doc_id": version.doc_id,
        "next_id": document.allocator.next_value,
        "table": json.dumps(
            dict(zip(_COLUMNS, ("".join(kinds), names, values, starts,
                                ends, far))),
            ensure_ascii=False, separators=(",", ":")),
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
        table = payload["table"]
        if type(table) is not str:
            raise TypeError("the table is no JSON text")
        kinds, names, values, starts, ends, far = _columns(
            json.loads(table))
        far_ids, far_codes = _far_section(far, len(kinds))
        labeling = ContainmentLabeling.restored(
            starts, ends, far_codes, _integer(payload["max_code_len"]))
        root, nodes, parents, far_nodes, count, highest = _build(
            kinds, names, values, starts, ends, far, far_ids)
        allocator = IdAllocator()
        allocator.reserve_at_least(highest + 1)
        allocator.reserve_at_least(_integer(payload["next_id"]))
        document = Document.indexed(root, nodes, parents, far_nodes,
                                    count, allocator)
        labeling.document = document
        budget = _integer(payload.get("budget", budget))
        if budget < 1:
            raise ValueError("budget {} is below 1".format(budget))
        counters = [_integer(payload[name]) for name in _COUNTERS]
    except KeyError as exc:
        raise RecoveryError(
            "malformed document payload for {!r}: no {} field{}".format(
                doc_id, exc, _retired(payload))) from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise RecoveryError(
            "malformed document payload for {!r}: {}".format(
                doc_id, exc)) from exc
    version, batches, incremental_relabels, full_relabels = counters
    return DocumentVersion(doc_id, version, document, labeling, budget,
                           batches, incremental_relabels, full_relabels)


def _retired(payload):
    if "nodes" in payload:
        return " (a payload in the retired node-row form)"
    if "tree" in payload:
        return " (a payload in the retired tree/labels form)"
    return ""


def _integer(value):
    if type(value) is not int:
        raise TypeError("expected an integer, got {!r}".format(value))
    return value


def _columns(table):
    """The six columns of a decoded table, each of the type it takes
    and the first five of one length; a ``ValueError`` otherwise."""
    if type(table) is not dict or set(table) != set(_COLUMNS):
        raise ValueError("a table is an object of the columns {}".format(
            ", ".join(_COLUMNS)))
    columns = [table[name] for name in _COLUMNS]
    if type(columns[0]) is not str or \
            any(type(column) is not list for column in columns[1:]):
        raise ValueError("the kinds are a string and the other columns "
                         "lists")
    if len(set(map(len, columns[:5]))) != 1:
        raise ValueError("columns of unequal length: {}".format(
            ", ".join("{} {}".format(name, len(column)) for name, column
                      in zip(_COLUMNS, columns[:5]))))
    return columns


def _far_section(far, span):
    """The ids of the far rows, in row order, and their codes (the
    ``far`` argument of
    :meth:`~repro.labeling.scheme.ContainmentLabeling.restored`). A
    row is six fields; its id is an int the columns do not cover, and
    no two rows share one."""
    ids = []
    codes = {}
    for row in far:
        if type(row) is not list or len(row) != 6:
            raise ValueError("malformed far row {!r}".format(row))
        node_id = row[0]
        if type(node_id) is not int or 0 <= node_id < span:
            raise ValueError("far row {!r} names no id past the "
                             "columns".format(row))
        if node_id in codes:
            raise ValueError("duplicate node id {}".format(node_id))
        ids.append(node_id)
        codes[node_id] = (row[4], row[5])
    return ids, codes


def _build(kinds, names, values, starts, ends, far, far_ids):
    """Build the tree from the table's intervals in one pass.

    The held ids — the slots of nonzero start code, which must be the
    slots of a kind, and the far rows' — are sorted by start code,
    which by the containment property is document order. Each node
    then hangs from the innermost interval still open: a stack of open
    intervals, closed once a later start passes their end. A start
    code that does not increase, an empty interval, one that overlaps
    the open interval without nesting in it, a node inside a text's or
    attribute's interval, an attribute after its element's first
    child, a root that is no element and a second root are each a
    ``ValueError``; so is a node whose name or value does not fit its
    kind.

    Returns ``(root, node column, parent column, far dict, count,
    highest id)``: the id table of
    :meth:`~repro.xdm.document.Document.indexed`. Nodes are made slot
    by slot, without :class:`~repro.xdm.node.Node`'s checks (this pass
    makes its own); names are interned as in the parser, a leaf keeps
    the shared ``()``, and every child and attribute list is exactly
    as long as it is.
    """
    span = len(kinds)
    held = list(compress(range(span), starts))
    if len(held) != span - kinds.count(_BLANK) or \
            _BLANK in "".join(map(kinds.__getitem__, held)):
        raise ValueError("a code on a blank slot, or a held slot "
                         "without one")
    if len(held) != span - ends.count(0) or not all(
            map(ends.__getitem__, held)):
        raise ValueError("an end code on a blank slot, or a held slot "
                         "without one")
    # the nulls a blank slot holds, once every held slot's name and
    # value fit its kind
    blanks = span - len(held)
    nameless = names.count(None) - kinds.count("t") - blanks
    valueless = values.count(None) - kinds.count("e") - blanks
    highest = max([held[-1] if held else -1, *far_ids])
    if far:
        # far rows as slots past the columns: slot span + i is row i
        kinds = kinds + "".join(_kind_of(row) for row in far)
        names = names + [row[2] for row in far]
        values = values + [row[3] for row in far]
        starts = starts + [row[4] for row in far]
        ends = ends + [row[5] for row in far]
        held += range(span, span + len(far))
    if not held:
        raise ValueError("no node holds a slot")
    held.sort(key=starts.__getitem__)
    node_column = [None] * span
    parent_column = [None] * span
    far_nodes = {}
    new = Node.__new__
    # the open elements below ``parent``, each with its end code; at
    # the bottom, no element and an end past every code
    stack = []
    pop, push = stack.pop, stack.append
    parent, top = None, _PAST
    # a leaf holds no node: the end of the last one fences the next
    fence, leaf = 0, None
    # the elements whose child or attribute list grew by appends
    crowded_children = []
    crowded_attributes = []
    root = None
    previous = 0
    for slot in held:
        start = starts[slot]
        end = ends[slot]
        if not previous < start < end:
            raise ValueError(
                "interval [{}, {}] of slot {} after start {}: start codes "
                "increase and an interval is not empty".format(
                    start, end, slot, previous))
        previous = start
        near = slot < span
        node_id = slot if near else far_ids[slot - span]
        if start <= fence:
            raise ValueError("node {} lies inside the interval of {} "
                             "node {}".format(node_id,
                                              leaf.node_type.name.lower(),
                                              leaf.node_id))
        while top < start:
            parent, top = pop()
        if end >= top:
            raise ValueError(
                "interval [{}, {}] of node {} overlaps its parent's "
                "without nesting".format(start, end, node_id))
        kind = kinds[slot]
        name = names[slot]
        value = values[slot]
        node = new(Node)
        node.node_id = node_id
        node.children = node.attributes = ()
        if kind == "e":
            if type(name) is not str or value is not None:
                raise _misfit("element", node_id, name, value)
            node.node_type = _ELEMENT
            node.name = intern(name)
            node.value = None
        elif kind == "t":
            if name is not None or type(value) is not str:
                raise _misfit("text", node_id, name, value)
            node.node_type = _TEXT
            node.name = None
            node.value = value
            fence, leaf = end, node
        elif kind == "a":
            if type(name) is not str or type(value) is not str:
                raise _misfit("attribute", node_id, name, value)
            node.node_type = _ATTRIBUTE
            node.name = intern(name)
            node.value = value
            fence, leaf = end, node
        else:
            raise ValueError("unknown kind {!r}".format(kind))
        if parent is None:
            if root is not None:
                raise ValueError("node {} is a second root".format(
                    node_id))
            if kind != "e":
                raise ValueError("the root is a {} node".format(
                    node.node_type.name.lower()))
            root = node
            parent_id = None
        else:
            if kind == "a":
                if parent.children:
                    raise ValueError(
                        "attribute {} comes after the first child of "
                        "<{}>".format(node_id, parent.name))
                siblings = parent.attributes
                if siblings:
                    if len(siblings) == 1:
                        crowded_attributes.append(parent)
                    siblings.append(node)
                else:
                    parent.attributes = [node]
            else:
                siblings = parent.children
                if siblings:
                    if len(siblings) == 1:
                        crowded_children.append(parent)
                    siblings.append(node)
                else:
                    parent.children = [node]
            parent_id = parent.node_id
        if near:
            node_column[slot] = node
            parent_column[slot] = parent_id
        else:
            far_nodes[node_id] = (node, parent_id)
        if kind == "e":
            push((parent, top))
            parent, top = node, end
    if nameless or valueless:
        raise ValueError("a name or value on a blank slot")
    # a list grown by appends keeps spare capacity; a slice has none
    for node in crowded_children:
        node.children = node.children[:]
    for node in crowded_attributes:
        node.attributes = node.attributes[:]
    return root, node_column, parent_column, far_nodes, len(held), highest


def _misfit(kind, node_id, name, value):
    return ValueError("{} node {} with name {!r} and value {!r}".format(
        kind, node_id, name, value))


def _kind_of(row):
    """The kind character of a far row (validated with the others)."""
    kind = row[1]
    return kind if type(kind) is str and len(kind) == 1 else "?"
