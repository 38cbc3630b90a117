"""Opaque resume tokens for the replication stream.

A token binds a **stream epoch** (the :attr:`ReplicationSource.stream_id`
fence minted at feed creation) to a **log sequence** (the position the
subscriber will resume *from*, i.e. one past the last event it applied).
Tokens travel as strings so clients can persist them without knowing the
structure, and carry a CRC so a truncated or hand-edited token fails
loudly as a :class:`~repro.errors.ProtocolError` instead of silently
resuming from the wrong position.

The format is ``{stream}:{seq}:{crc32-hex}`` — stable, but callers must
treat tokens as opaque: the epoch check in
:meth:`repro.cluster.feed.ReplicationSource.read` is what makes
resumption safe, and it only works when tokens round-trip unmodified.
"""

from __future__ import annotations

import zlib

from repro.errors import ProtocolError


def _checksum(stream, seq):
    body = "{}:{}".format(stream, seq).encode("utf-8")
    return format(zlib.crc32(body) & 0xFFFFFFFF, "08x")


def encode_token(stream, seq):
    """An opaque resume token for position ``seq`` of epoch ``stream``."""
    if not isinstance(stream, str) or not stream or ":" in stream:
        raise ProtocolError(
            "invalid stream id for resume token: {!r}".format(stream))
    seq = int(seq)
    if seq < 0:
        raise ProtocolError(
            "invalid sequence for resume token: {!r}".format(seq))
    return "{}:{}:{}".format(stream, seq, _checksum(stream, seq))


def decode_token(text):
    """``(stream, seq)`` from a token, or :class:`ProtocolError`.

    Rejects anything that is not a well-formed, checksum-valid token —
    malformed input must never be interpreted as a feed position.
    """
    if not isinstance(text, str):
        raise ProtocolError(
            "resume token must be a string, got {}".format(
                type(text).__name__))
    parts = text.rsplit(":", 2)
    if len(parts) != 3 or not all(parts):
        raise ProtocolError("malformed resume token: {!r}".format(text))
    stream, seq_text, crc = parts
    if not seq_text.isdigit():
        raise ProtocolError("malformed resume token: {!r}".format(text))
    seq = int(seq_text)
    if crc != _checksum(stream, seq):
        raise ProtocolError(
            "resume token failed its checksum: {!r}".format(text))
    return stream, seq
