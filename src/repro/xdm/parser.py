"""The XML scanner, and the tree parser built on it.

:func:`_tokens` is the only code in the library that knows XML syntax. It
cuts a text into start-tag, end-tag and character-data tokens with
compiled patterns and ``str.find`` — attribute values and text are sliced
whole, references are expanded only where a ``&`` occurs — and consumes
what is not a token itself: comments, processing instructions, CDATA
sections (their content joins the surrounding text), the XML declaration
and a DOCTYPE. The tree parser below, the event parser of
:mod:`repro.apply.events`, the PUL decoder of :mod:`repro.pul.serialize`
and the XML-constructor arm of :mod:`repro.xquery.lexer` all read its
tokens.

The subset supported is what the paper's documents and PUL exchange format
need: elements, attributes, text, the five predefined entities and
numeric character references (of XML ``Char`` code points only). Every
:class:`XMLSyntaxError` carries the offset of the offending ``<`` or
``&`` — for input that ends early, of the start tag left open.

Identifiers are assigned in document order (elements first, then their
attributes in appearance order, then content), matching the uniform
identifier-assignment requirement of Section 4.1: every producer parsing
the same serialized document derives the same ids.
"""

from __future__ import annotations

import re

from repro.errors import XMLSyntaxError
from repro.xdm.document import Document, IdAllocator
from repro.xdm.node import Node

#: token kinds; a token is ``(kind, value, extra)``:
#: ``(_START, name, {attribute name: value})`` (in document order),
#: ``(_END, name, offset just past the tag)``, ``(_TEXT, characters, None)``.
#: An empty-element tag yields a start token and an end token.
_START, _END, _TEXT = range(3)

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# ``\w`` is ``str.isalnum`` plus ``_``; that a name does not *start* with a
# digit or another numeric, which no pattern class tells from a letter, is
# checked on the matched name (_check_name_start)
_NAME = r"[\w:][\w:.\-]*"
# one attribute; {0} and {1} open and close what its two users capture
_ATTR = r"""\s+{0}{name}{1}\s*=\s*(?:"{0}[^<"]*{1}"|'{0}[^<']*{1}')"""
_ATTRIBUTE = re.compile(_ATTR.format("(", ")", name=_NAME))
_START_TAG = re.compile(r"<({})((?:{})*)\s*(/?)>".format(
    _NAME, _ATTR.format("(?:", ")", name=_NAME))).match
# a reference, or any other ``&`` (no group set); leading zeros aside, no
# Char needs more than 7 decimal or 6 hexadecimal digits
_REFERENCE = re.compile(
    r"&(?:#0*([0-9]{1,7})|#x0*([0-9a-fA-F]{1,6})|(\w+));|&")
_DOCTYPE = re.compile(r"<!DOCTYPE(?:[^<>]|<[^<>]*>)*>").match
_SPACE = re.compile(r"\s*").match

#: what the scanner consumes without a token of its own: opener, closer,
#: name for error messages, whether the content is character data
_SECTIONS = (
    ("<!--", "-->", "comment", False),
    ("<?", "?>", "processing instruction", False),
    ("<![CDATA[", "]]>", "CDATA section", True),
)


def _expand(chunk, base):
    """``chunk`` (found at offset ``base``) with its references replaced."""

    def replace(match):
        decimal, hexadecimal, name = match.groups()
        if name is not None:
            if name in _ENTITIES:
                return _ENTITIES[name]
        elif decimal or hexadecimal:
            code = int(decimal) if decimal else int(hexadecimal, 16)
            # the XML ``Char`` production: all a document may contain
            if (0x20 <= code <= 0xD7FF or code in (0x9, 0xA, 0xD)
                    or 0xE000 <= code <= 0xFFFD
                    or 0x10000 <= code <= 0x10FFFF):
                return chr(code)
        raise XMLSyntaxError(
            "unknown entity or bad character reference",
            position=base + match.start())

    return _REFERENCE.sub(replace, chunk)


def _check_name_start(name, lt):
    if not (name[0].isalpha() or name[0] in "_:"):
        raise XMLSyntaxError("expected a name", position=lt)


def _section(text, lt):
    """The comment, processing instruction or CDATA section opening at
    ``lt``, as ``(character data or None, offset past it)``; ``None``
    when none of the three opens there."""
    for opener, closer, what, is_text in _SECTIONS:
        if text.startswith(opener, lt):
            close = text.find(closer, lt + len(opener))
            if close < 0:
                raise XMLSyntaxError("unterminated " + what, position=lt)
            return (text[lt + len(opener):close] if is_text else None,
                    close + len(closer))
    return None


def _skip_misc(text, pos):
    """Skip whitespace, comments, processing instructions (the XML
    declaration among them) and a DOCTYPE; return where that ends."""
    while True:
        pos = _SPACE(text, pos).end()
        doctype = _DOCTYPE(text, pos)
        if doctype is not None:
            pos = doctype.end()
            continue
        section = _section(text, pos)
        if section is None or section[0] is not None:
            return pos
        pos = section[1]


def _tokens(text, pos, keep_whitespace, forest=False):
    """Yield the tokens of the element whose start tag opens at ``pos``
    and return the offset it ends at; with ``forest``, yield those of all
    the content from ``pos`` to the end of ``text`` (any number of
    elements, text between them).

    Whitespace-only text is dropped unless ``keep_whitespace``. Tags are
    checked to nest, so a consumer may trust the stream's structure.
    """
    find = text.find
    open_tags = []  # (name, offset) of the start tags not yet closed
    pending = ""    # character data since the last tag
    while True:
        lt = find("<", pos)
        if lt != pos:
            chunk = text[pos:lt] if lt >= 0 else text[pos:]
            pending += _expand(chunk, pos) if "&" in chunk else chunk
            if lt < 0:
                break
        marker = text[lt + 1:lt + 2]
        if marker == "!" or marker == "?":
            section = _section(text, lt)
            if section is None or not (open_tags or forest):
                raise XMLSyntaxError("expected an element", position=lt)
            pos = section[1]
            pending += section[0] or ""
            continue
        if pending:
            if keep_whitespace or not pending.isspace():
                yield _TEXT, pending, None
            pending = ""
        if marker == "/":
            gt = find(">", lt)
            if (gt < 0 or not open_tags
                    or text[lt + 2:gt].rstrip() != open_tags[-1][0]):
                raise XMLSyntaxError(
                    "not the end tag of the open element", position=lt)
            pos = gt + 1
            yield _END, open_tags.pop()[0], pos
        else:
            tag = _START_TAG(text, lt)
            if tag is None:
                raise XMLSyntaxError("malformed start tag", position=lt)
            name = tag[1]
            _check_name_start(name, lt)
            attributes = {}
            if tag[2]:
                for found in _ATTRIBUTE.finditer(text, tag.end(1),
                                                 tag.start(3)):
                    attr_name, double, single = found.groups()
                    _check_name_start(attr_name, lt)
                    if attr_name in attributes:
                        raise XMLSyntaxError(
                            "duplicate attribute: " + attr_name, position=lt)
                    value = double or single or ""
                    if "&" in value:
                        value = _expand(value, found.start(found.lastindex))
                    attributes[attr_name] = value
            pos = tag.end()
            yield _START, name, attributes
            if not tag[3]:
                open_tags.append((name, lt))
                continue
            yield _END, name, pos
        if not open_tags and not forest:
            return pos
    if open_tags:
        raise XMLSyntaxError(
            "unexpected end of input: <{}> is not closed".format(
                open_tags[-1][0]), position=open_tags[-1][1])
    if pending and (keep_whitespace or not pending.isspace()):
        yield _TEXT, pending, None


def _document_tokens(text, keep_whitespace):
    """Yield the tokens of a whole document: one element, with nothing
    but whitespace, comments, processing instructions and a DOCTYPE
    before and after it."""
    start = _skip_misc(text, 0)
    if not text.startswith("<", start):
        raise XMLSyntaxError("expected an element", position=start)
    end = yield from _tokens(text, start, keep_whitespace)
    end = _skip_misc(text, end)
    if end != len(text):
        raise XMLSyntaxError("trailing content after document element",
                             position=end)


def _build(tokens):
    """Build the trees a token stream describes: the list of top-level
    nodes (detached, no ids assigned) and the offset the last element
    ended at."""
    top = []
    path = []  # the open elements, innermost last
    end = None
    for kind, value, extra in tokens:
        if kind == _END:
            path.pop()
            end = extra
            continue
        node = Node.text(value) if kind == _TEXT else Node.element(value)
        if path:
            path[-1].append_child(node)
        else:
            top.append(node)
        if kind == _START:
            for name, attr_value in extra.items():
                node.append_attribute(Node.attribute(name, attr_value))
            path.append(node)
    return top, end


def parse_fragment(text, keep_whitespace=False):
    """Parse ``text`` into a detached :class:`Node` tree (no ids assigned).

    The input must consist of exactly one element (after optional
    prolog/comments).
    """
    return _build(_document_tokens(text, keep_whitespace))[0][0]


def parse_forest(text, keep_whitespace=False):
    """Parse ``text`` into a list of detached top-level nodes.

    Unlike :func:`parse_fragment`, allows a sequence of elements and text
    at top level — the shape of update-operation parameters ``P``.
    """
    return _build(_tokens(text, 0, keep_whitespace, forest=True))[0]


def parse_document(text, keep_whitespace=False, allocator=None):
    """Parse ``text`` into a :class:`Document`, assigning node identifiers
    in document order."""
    root = parse_fragment(text, keep_whitespace=keep_whitespace)
    return Document(root=root, allocator=allocator or IdAllocator())
