"""SAX-like event model: sources and sinks.

Events carry node identifiers. Both sources assign/propagate identifiers in
document order, so an event stream parsed from text and one walked from the
corresponding :class:`Document` are identical.

* :func:`document_events` — walk a live document;
* :func:`parse_events` — an adapter over the tokens of the shared scanner
  (:mod:`repro.xdm.parser`; O(depth) memory), assigning identifiers by
  position exactly like :func:`repro.xdm.parser.parse_document` does;
* :func:`events_to_xml` — serialize an event stream back to text;
* :func:`events_to_document` — materialize an event stream as a document
  (mainly for tests).
"""

from __future__ import annotations

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
        self.attributes = list(attributes)
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


class XMLEventWriter:
    """Serialize an event stream to XML text incrementally.

    ``write(event)`` then ``result()``; or use :func:`events_to_xml`.
    """

    def __init__(self, with_ids=False, labels=None):
        self._parts = []
        self._open_start = None  # pending "<name attr..." of the last start
        self.with_ids = with_ids
        self.labels = labels

    def write(self, event):
        if isinstance(event, StartElement):
            self._close_pending(full=False)
            chunk = ["<", event.name]
            if self.with_ids and event.node_id is not None:
                chunk.append(' repro:id="{}"'.format(event.node_id))
            if self.labels is not None and event.node_id in self.labels:
                chunk.append(' repro:label="{}"'.format(
                    escape_attribute(str(self.labels[event.node_id]))))
            for attr in event.attributes:
                chunk.append(' {}="{}"'.format(
                    attr.name, escape_attribute(attr.value)))
            self._open_start = "".join(chunk)
        elif isinstance(event, EndElement):
            if self._open_start is not None:
                self._parts.append(self._open_start + "/>")
                self._open_start = None
            else:
                self._parts.append("</{}>".format(event.name))
        elif isinstance(event, TextEvent):
            self._close_pending(full=False)
            self._parts.append(escape_text(event.value))
        else:
            raise SerializationError(
                "unknown event: {!r}".format(event))

    def _close_pending(self, full):
        if self._open_start is not None:
            self._parts.append(self._open_start + ">")
            self._open_start = None

    def drain(self):
        """Return and clear the completed output so far, or ``""`` while
        a start tag is still pending (nothing can be flushed safely)."""
        if self._open_start is not None:
            return ""
        chunk = "".join(self._parts)
        self._parts.clear()
        return chunk

    def result(self):
        if self._open_start is not None:
            raise SerializationError("unterminated element in event stream")
        return "".join(self._parts)


def events_to_xml(events, with_ids=False, labels=None):
    """Serialize an event stream to XML text."""
    writer = XMLEventWriter(with_ids=with_ids, labels=labels)
    for event in events:
        writer.write(event)
    return writer.result()


def events_to_file(events, handle, with_ids=False, labels=None,
                   flush_every=256):
    """Serialize an event stream incrementally to an open text file.

    The writer's buffer is drained every ``flush_every`` events, so memory
    stays proportional to document depth — the disk-serialization mode of
    the paper's streamed evaluation (Section 4.3). Returns the number of
    bytes written.
    """
    writer = XMLEventWriter(with_ids=with_ids, labels=labels)
    written = 0
    pending = 0
    for event in events:
        writer.write(event)
        pending += 1
        if pending >= flush_every:
            chunk = writer.drain()
            if chunk:
                handle.write(chunk)
                written += len(chunk)
                pending = 0
    chunk = writer.result()
    handle.write(chunk)
    written += len(chunk)
    return written


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
