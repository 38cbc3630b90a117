"""Tokenizer for the XQuery Update subset.

XML constructors embedded in expressions (``insert node <a>x</a> ...``)
are tokenized as single ``XML`` tokens by delegating to the XML scanner
and tree builder of :mod:`repro.xdm.parser`, so neither this lexer nor the
updating-expression grammar needs to understand markup.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError, XMLSyntaxError
from repro.xdm.parser import _build, _tokens

#: token kinds
NAME = "name"
STRING = "string"
INTEGER = "integer"
SYMBOL = "symbol"
XML = "xml"
EOF = "eof"

#: multi-character symbols first (longest match wins)
_SYMBOLS = ("//", "/", "@", "[", "]", "(", ")", ",", "=", "*", "{", "}")

_NAME_EXTRA = "_-."


class Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind, value, position):
        self.kind = kind
        self.value = value
        self.position = position

    def __repr__(self):
        return "Token({}, {!r})".format(self.kind, self.value)


def _is_name_start(ch):
    return ch.isalpha() or ch == "_"


def _is_name_char(ch):
    return ch.isalnum() or ch in _NAME_EXTRA


def tokenize(text):
    """Tokenize ``text`` into a list of :class:`Token` (ending with EOF)."""
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "<":
            # an XML constructor: the XML tree builder reads one element
            # from here and tells us where it ended
            try:
                (node,), end = _build(_tokens(text, pos, False))
            except XMLSyntaxError as exc:
                raise QuerySyntaxError(
                    "bad XML constructor: {}".format(exc),
                    position=pos) from exc
            tokens.append(Token(XML, node, pos))
            pos = end
            continue
        if ch in "'\"":
            end = text.find(ch, pos + 1)
            if end < 0:
                raise QuerySyntaxError("unterminated string literal",
                                       position=pos)
            tokens.append(Token(STRING, text[pos + 1:end], pos))
            pos = end + 1
            continue
        if ch.isdigit():
            start = pos
            while pos < length and text[pos].isdigit():
                pos += 1
            tokens.append(Token(INTEGER, int(text[start:pos]), start))
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, pos):
                tokens.append(Token(SYMBOL, symbol, pos))
                pos += len(symbol)
                break
        else:
            if _is_name_start(ch):
                start = pos
                while pos < length and _is_name_char(text[pos]):
                    pos += 1
                name = text[start:pos]
                # function-like tests keep their parentheses as symbols;
                # names are reported verbatim (keywords resolved by the
                # parser, since XQuery keywords are contextual)
                tokens.append(Token(NAME, name, start))
            else:
                raise QuerySyntaxError(
                    "unexpected character {!r}".format(ch), position=pos)
    tokens.append(Token(EOF, None, length))
    return tokens
