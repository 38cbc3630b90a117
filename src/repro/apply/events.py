"""SAX-like event model: sources and sinks.

Events carry node identifiers. Both sources assign/propagate identifiers in
document order, so an event stream parsed from text and one walked from the
corresponding :class:`Document` are identical.

* :func:`document_events` — walk a live document;
* :func:`parse_events` — an adapter over the tokens of the shared scanner
  (:mod:`repro.xdm.parser`; O(depth) memory), assigning identifiers by
  position exactly like :func:`repro.xdm.parser.parse_document` does;
* :func:`events_to_xml` / :func:`events_to_file` — serialize an event
  stream back to text (one loop serves both);
* :func:`events_to_document` — materialize an event stream as a document
  (mainly for tests).

Events are shared, not copied: the streaming evaluator forwards an event
the PUL does not touch as the very object its source yielded, and a
:class:`StartElement` keeps the attribute list it is given.
"""

from __future__ import annotations

from itertools import islice

from repro.errors import SerializationError, XMLSyntaxError
from repro.xdm.document import Document
from repro.xdm.node import Node
from repro.xdm.parser import _END, _TEXT, _document_tokens
from repro.xdm.serializer import escape_attribute, escape_text


class AttributeEvent:
    """An attribute within a start-element event."""

    __slots__ = ("name", "value", "node_id")

    def __init__(self, name, value, node_id=None):
        self.name = name
        self.value = value
        self.node_id = node_id

    def __repr__(self):
        return "@{}={!r}#{}".format(self.name, self.value, self.node_id)


class StartElement:
    __slots__ = ("name", "attributes", "node_id")

    def __init__(self, name, attributes=(), node_id=None):
        self.name = name
        self.attributes = attributes
        self.node_id = node_id

    def __repr__(self):
        return "<{}#{}>".format(self.name, self.node_id)


class EndElement:
    __slots__ = ("name", "node_id")

    def __init__(self, name, node_id=None):
        self.name = name
        self.node_id = node_id

    def __repr__(self):
        return "</{}#{}>".format(self.name, self.node_id)


class TextEvent:
    __slots__ = ("value", "node_id")

    def __init__(self, value, node_id=None):
        self.value = value
        self.node_id = node_id

    def __repr__(self):
        return "text({!r}#{})".format(self.value, self.node_id)


def document_events(document):
    """Yield the event stream of a document (ids taken from the nodes)."""
    if document.root is None:
        return
    yield from _node_events(document.root)


def _node_events(node):
    if node.is_text:
        yield TextEvent(node.value, node_id=node.node_id)
        return
    yield StartElement(
        node.name,
        [AttributeEvent(attr.name, attr.value, node_id=attr.node_id)
         for attr in node.attributes],
        node_id=node.node_id)
    for child in node.children:
        yield from _node_events(child)
    yield EndElement(node.name, node_id=node.node_id)


def parse_events(text, keep_whitespace=False):
    """Turn the scanner's tokens into events, assigning node identifiers
    in document order as they arrive (O(depth) memory — with the shared
    scanner underneath, this is the "specialized SAX parser" of
    Section 4.3)."""
    next_id = 0
    open_ids = []
    for kind, value, extra in _document_tokens(text, keep_whitespace):
        if kind == _END:
            yield EndElement(value, open_ids.pop())
            continue
        node_id = next_id
        next_id += 1
        if kind == _TEXT:
            yield TextEvent(value, node_id)
            continue
        attributes = []
        for name, attr_value in extra.items():
            attributes.append(AttributeEvent(name, attr_value, next_id))
            next_id += 1
        open_ids.append(node_id)
        yield StartElement(value, attributes, node_id)


def _write_events(events, write, with_ids, batch):
    """The one serializer loop: ``write`` the XML text of ``events``, one
    call per ``batch`` events (``None``: one call for all). A start tag is
    written open and closed by what follows it (``/>`` when that is its
    end tag), so every chunk can go out at once. Returns the number of
    characters written."""
    events = iter(events)
    open_tag = False
    written = 0
    while True:
        parts = []
        append = parts.append
        for event in islice(events, batch):
            kind = type(event)
            if kind is EndElement:
                if open_tag:
                    append("/>")
                    open_tag = False
                else:
                    append("</" + event.name + ">")
                continue
            if open_tag:
                append(">")
            if kind is TextEvent:
                append(escape_text(event.value))
                open_tag = False
            elif kind is StartElement:
                append("<" + event.name)
                if with_ids and event.node_id is not None:
                    append(' repro:id="{}"'.format(event.node_id))
                for attr in event.attributes:
                    append(" " + attr.name + '="'
                           + escape_attribute(attr.value) + '"')
                open_tag = True
            else:
                raise SerializationError(
                    "unknown event: {!r}".format(event))
        if not parts:
            break
        chunk = "".join(parts)
        write(chunk)
        written += len(chunk)
    if open_tag:
        raise SerializationError("unterminated element in event stream")
    return written


def events_to_xml(events, with_ids=False):
    """Serialize an event stream to XML text."""
    chunks = []
    _write_events(events, chunks.append, with_ids, None)
    return "".join(chunks)


def events_to_file(events, handle, with_ids=False, flush_every=256):
    """Serialize an event stream incrementally to an open text file.

    Text is written every ``flush_every`` events, so memory stays
    proportional to document depth — the disk-serialization mode of the
    paper's streamed evaluation (Section 4.3). Returns the number of
    characters written.
    """
    return _write_events(events, handle.write, with_ids, flush_every)


def events_to_document(events, allocator=None):
    """Materialize an event stream as a :class:`Document` (ids kept)."""
    root = None
    stack = []
    for event in events:
        if isinstance(event, StartElement):
            element = Node.element(event.name, node_id=event.node_id)
            for attr in event.attributes:
                element.append_attribute(Node.attribute(
                    attr.name, attr.value, node_id=attr.node_id))
            if stack:
                stack[-1].append_child(element)
            elif root is None:
                root = element
            else:
                raise XMLSyntaxError("multiple root elements")
            stack.append(element)
        elif isinstance(event, TextEvent):
            if not stack:
                raise XMLSyntaxError("text outside the root element")
            stack[-1].append_child(Node.text(event.value,
                                             node_id=event.node_id))
        elif isinstance(event, EndElement):
            stack.pop()
    document = Document(allocator=allocator)
    if root is not None:
        document.root = root
        document.rebuild_index()
    return document
