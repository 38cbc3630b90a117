"""The versioned, length-prefixed wire protocol.

One frame is a 4-byte big-endian payload length followed by that many
payload bytes::

    +--------------+------------------------+
    | length (u32) | payload                |
    +--------------+------------------------+

The length covers the payload only, must be at least 2 (the smallest
JSON object, ``{}``) and at most :data:`MAX_FRAME` — a peer announcing
more is malformed and the decoder fails *before* buffering, so a
garbage header can never balloon memory. Framing carries no checksum on
purpose: the protocol runs over stream transports (TCP, Unix sockets)
that already guarantee integrity; torn frames only appear at connection
teardown and are surfaced as a clean "incomplete trailing frame".

Requests and responses are message dicts (JSON objects in the hello
exchange, binary terms of the same shape everywhere else):

``{"id": n, "op": name, "args": {...}}``
    a request; ``id`` is an arbitrary JSON value echoed verbatim in the
    response (clients use a monotonically increasing integer so
    pipelined responses can be correlated), ``op`` names a command of
    the dispatch table, ``args`` is optional;
``{"id": n, "ok": true, "result": {...}}``
    success — ``result`` is the command's structured result;
``{"id": n, "ok": false, "error": {"code", "message", "details"}}``
    failure — the error object is :meth:`ReproError.to_dict` output and
    reconstructs client-side via :meth:`ReproError.from_dict`.

Version negotiation is the first exchange on every connection: the
client's first frame must be a ``hello`` request announcing the
protocol versions it speaks; the server picks the highest version both
sides share and echoes it (plus its software version) in the response.
A connection with no shared version — a peer offering only the retired
v1, whose whole session was JSON — is answered with a ``protocol``
error and closed. Everything after the hello is ordinary requests under
the negotiated version.

**Protocol v2 — the binary frame codec.** The hello exchange is one
JSON frame each way (``version=1`` of :func:`encode_frame` /
:class:`FrameDecoder`: it is what an unknown peer is guaranteed to
read); every frame *after* the hello response carries a struct-packed
binary payload::

    +--------------+----------+-------------------------------------+
    | length (u32) | kind(u8) | kind-specific struct-packed fields  |
    +--------------+----------+-------------------------------------+

    kind 0x01 request:   id(value) op-code(u8) args(value)
                         op-code 0xFF is followed by the op name as a
                         string value (ops outside the table)
    kind 0x02 ok:        id(value) result(value)
    kind 0x03 error:     id(value) error-object(value)
    kind 0x04 traced:    id(value) trace-id(value) op-code(u8)
                         args(value) — a request carrying a trace id.
                         Feature-negotiated: clients emit it only to
                         servers whose hello result advertises
                         ``"trace"`` in ``features``, so a pre-trace
                         peer never sees the kind.

``value`` is a type-tagged binary term (see ``_encode_value``): the
JSON-representable scalars plus lists and string-keyed maps, with
strings as raw length-prefixed UTF-8. That raw-string rule is the
codec's point: JSON must escape-and-scan every document and PUL
payload it carries, v2 copies the bytes — the hot ops (``submit``,
``text``, ``subscribe``) move XML by the kilobyte. Lists and maps nest
at most :data:`MAX_NESTING` deep; decoded v2 frames reconstruct exactly
the message dicts the JSON codec yields, so dispatch, clients and the
error surface never see the codec.
"""

from __future__ import annotations

import json
import struct

from repro.api.ops import OP_CODES
from repro.errors import ProtocolError, ReproError

#: session protocol versions this implementation can speak, ascending.
#: A wire change that an old peer could misread gets a new number
#: appended here; dropping support for an old number removes it. The
#: hello exchange is JSON whatever this says.
SUPPORTED_VERSIONS = (2,)

#: the version this implementation prefers (the newest supported)
PROTOCOL_VERSION = SUPPORTED_VERSIONS[-1]

#: upper bound on one frame's payload — a request carries at most one
#: document or one coalesced batch, far below this
MAX_FRAME = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: byte length of the frame header
HEADER_SIZE = _LENGTH.size

#: bound on list/map nesting inside one decoded term — several times
#: what the deepest real message (a span tree under ``metrics``)
#: reaches. Without it a few hundred KB of list headers recurse the
#: decoder past the interpreter's stack. XML text inside a term has
#: its own bound, :data:`repro.xdm.parser.MAX_ELEMENT_NESTING`.
MAX_NESTING = 64


def encode_frame(obj, version=1):
    """Serialize ``obj`` (a message dict) into one frame under
    ``version``'s codec (1 = JSON, 2 = binary)."""
    if version >= 2:
        payload = bytes(_encode_message_v2(obj))
    else:
        payload = json.dumps(obj, separators=(",", ":"),
                             sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            "frame payload of {} bytes exceeds the {} byte bound".format(
                len(payload), MAX_FRAME))
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload, version=1):
    """Decode one frame payload into its message dict under
    ``version``'s codec."""
    if version >= 2:
        return _decode_message_v2(payload)
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(
            "frame payload is not valid JSON: {}".format(exc)) from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            "frame payload must be a JSON object, got {}".format(
                type(obj).__name__))
    return obj


# -- the v2 binary codec ------------------------------------------------------

_V2_REQUEST = 0x01
_V2_OK = 0x02
_V2_ERROR = 0x03
_V2_TRACED = 0x04

#: request op names packed to one byte; part of the wire spec (see
#: api/README.md) — codes are append-only, never reused. Declared in
#: the operation registry (:mod:`repro.api.ops`), the single source of
#: truth the dispatch table and the generated docs share; re-exported
#: here because this module *is* the wire spec.
OP_NAMES = {code: name for name, code in OP_CODES.items()}

#: op-code escape: the op travels as a string value (future ops an
#: older table does not know keep working)
_OP_NAMED = 0xFF

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_DICT = 0x07
_T_BIGINT = 0x08

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _encode_value(value, out):
    """Append one type-tagged binary term to ``out`` (a bytearray)."""
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_T_INT)
            out += _I64.pack(value)
        else:
            # JSON integers are unbounded; the escape keeps parity
            text = str(value).encode("ascii")
            out.append(_T_BIGINT)
            out += _U32.pack(len(text))
            out += text
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    "map keys must be strings, got {!r}".format(key))
            data = key.encode("utf-8")
            out += _U32.pack(len(data))
            out += data
            _encode_value(item, out)
    else:
        raise ProtocolError(
            "value of type {} is not wire-encodable".format(
                type(value).__name__))
    return out


def _decode_value(data, offset, depth=0):
    """Decode one term at ``offset``; returns ``(value, next offset)``.
    ``depth`` counts the lists and maps the term sits inside."""
    try:
        tag = data[offset]
        offset += 1
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT:
            return _I64.unpack_from(data, offset)[0], offset + 8
        if tag == _T_FLOAT:
            return _F64.unpack_from(data, offset)[0], offset + 8
        if tag == _T_STR or tag == _T_BIGINT:
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            end = offset + length
            if end > len(data):
                raise ProtocolError("truncated string term")
            text = bytes(data[offset:end]).decode("utf-8")
            return (int(text) if tag == _T_BIGINT else text), end
        if tag in (_T_LIST, _T_DICT) and depth >= MAX_NESTING:
            raise ProtocolError(
                "term nests deeper than {} levels".format(MAX_NESTING))
        if tag == _T_LIST:
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            if count > len(data) - offset:
                raise ProtocolError("list count exceeds the payload")
            items = []
            for __ in range(count):
                item, offset = _decode_value(data, offset, depth + 1)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            if count > len(data) - offset:
                raise ProtocolError("map count exceeds the payload")
            mapping = {}
            for __ in range(count):
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                end = offset + length
                if end > len(data):
                    raise ProtocolError("truncated map key")
                key = bytes(data[offset:end]).decode("utf-8")
                mapping[key], offset = _decode_value(data, end,
                                                     depth + 1)
            return mapping, offset
    except (IndexError, struct.error, UnicodeDecodeError,
            ValueError) as exc:
        raise ProtocolError(
            "malformed binary term: {}".format(exc)) from exc
    raise ProtocolError("unknown binary type tag 0x{:02x}".format(tag))


def _encode_message_v2(message):
    """A message dict (the JSON shape) as a v2 binary payload."""
    out = bytearray()
    if "op" in message:
        trace = message.get("trace")
        if trace is not None:
            out.append(_V2_TRACED)
            _encode_value(message.get("id"), out)
            _encode_value(trace, out)
        else:
            out.append(_V2_REQUEST)
            _encode_value(message.get("id"), out)
        code = OP_CODES.get(message["op"])
        if code is None:
            out.append(_OP_NAMED)
            _encode_value(message["op"], out)
        else:
            out.append(code)
        _encode_value(message.get("args", {}), out)
    elif "ok" in message:
        if message["ok"]:
            out.append(_V2_OK)
            _encode_value(message.get("id"), out)
            _encode_value(message.get("result"), out)
        else:
            out.append(_V2_ERROR)
            _encode_value(message.get("id"), out)
            _encode_value(message.get("error") or {}, out)
    else:
        raise ProtocolError(
            "message is neither a request nor a response: {!r}".format(
                message))
    return out


def _decode_message_v2(payload):
    """A v2 binary payload back into the JSON-shaped message dict, so
    everything above the codec stays version-blind."""
    if not payload:
        raise ProtocolError("empty binary frame")
    kind = payload[0]
    if kind == _V2_REQUEST or kind == _V2_TRACED:
        request_id, offset = _decode_value(payload, 1)
        trace = None
        if kind == _V2_TRACED:
            trace, offset = _decode_value(payload, offset)
            if not isinstance(trace, str):
                raise ProtocolError(
                    "trace id must be a string, got {!r}".format(trace))
        try:
            op_code = payload[offset]
        except IndexError:
            raise ProtocolError("request frame ends before its op") \
                from None
        offset += 1
        if op_code == _OP_NAMED:
            op, offset = _decode_value(payload, offset)
            if not isinstance(op, str):
                raise ProtocolError(
                    "escaped op must be a string, got {!r}".format(op))
        else:
            op = OP_NAMES.get(op_code)
            if op is None:
                # a code this build does not serve (retired, or minted
                # by a newer peer) leaves the framing intact: the
                # request is answered "unknown op" under its own id,
                # the connection lives on
                op = "0x{:02x}".format(op_code)
        args, offset = _decode_value(payload, offset)
        if not isinstance(args, dict):
            raise ProtocolError("request args must be a map")
        _expect_end(payload, offset)
        message = {"id": request_id, "op": op}
        if trace is not None:
            message["trace"] = trace
        if args:
            message["args"] = args
        return message
    if kind == _V2_OK:
        request_id, offset = _decode_value(payload, 1)
        result, offset = _decode_value(payload, offset)
        _expect_end(payload, offset)
        return {"id": request_id, "ok": True, "result": result}
    if kind == _V2_ERROR:
        request_id, offset = _decode_value(payload, 1)
        error, offset = _decode_value(payload, offset)
        _expect_end(payload, offset)
        if not isinstance(error, dict):
            error = {"message": str(error)}
        return {"id": request_id, "ok": False, "error": error}
    raise ProtocolError(
        "unknown binary frame kind 0x{:02x}".format(kind))


def _expect_end(payload, offset):
    if offset != len(payload):
        raise ProtocolError(
            "{} trailing byte(s) after the message".format(
                len(payload) - offset))


#: buffered-prefix size that triggers compaction in the decoder; below
#: it the consumed prefix is just cursor-skipped
_COMPACT_THRESHOLD = 64 * 1024


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete frames come back
    decoded, partial ones wait for more bytes. A malformed header
    (length 0..1 or beyond :data:`MAX_FRAME`) or payload ends the
    stream with a :class:`ProtocolError` — framing is lost and cannot
    be resynchronized, so the connection must be dropped. The frames
    decoded ahead of it in the same chunk are returned first (requests
    pipelined before the damage are still owed their answers): the
    error is kept in :attr:`error` and raised by that very ``feed`` when
    nothing precedes it, and by every later one.

    The decoder starts on the JSON codec (``version=1``, the hello
    exchange); after the negotiation the connection switches it with
    :meth:`use_version` and every later frame decodes under the agreed
    codec. A peer may send its first request in the same write as the
    hello, so the hello is fed with ``limit=1``: the bytes after it stay
    buffered until ``feed(b"")`` under the agreed codec.

    Consumed frames advance a cursor instead of deleting the buffer
    prefix per frame — ``del buffer[:end]`` is O(buffer) *each*, which
    goes quadratic when one chunk carries many small frames (the
    pipelining hot path). The prefix is dropped once per feed, and only
    compacted mid-stream once it exceeds a threshold.
    """

    __slots__ = ("_buffer", "_offset", "version", "error")

    def __init__(self, version=1):
        self._buffer = bytearray()
        self._offset = 0
        self.version = version
        #: the :class:`ProtocolError` that ended the stream, if any
        self.error = None

    def use_version(self, version):
        """Switch the payload codec (after a completed negotiation)."""
        self.version = version

    def feed(self, data, limit=None):
        """Consume ``data``; returns the list of decoded objects, at
        most ``limit`` of them (the rest stays buffered)."""
        if self.error is not None:
            raise self.error
        buffer = self._buffer
        buffer.extend(data)
        frames = []
        total = len(buffer)
        offset = self._offset
        try:
            while limit is None or len(frames) < limit:
                if total - offset < HEADER_SIZE:
                    break
                (length,) = _LENGTH.unpack_from(buffer, offset)
                if length < 2 or length > MAX_FRAME:
                    raise ProtocolError(
                        "invalid frame length {} (bounds 2..{})".format(
                            length, MAX_FRAME))
                end = offset + HEADER_SIZE + length
                if total < end:
                    break
                payload = bytes(buffer[offset + HEADER_SIZE:end])
                offset = self._offset = end
                frames.append(decode_payload(payload, self.version))
        except ProtocolError as error:
            self.error = error
            if not frames:
                raise
            return frames
        if offset == total:
            del buffer[:]
            self._offset = 0
        elif offset >= _COMPACT_THRESHOLD:
            del buffer[:offset]
            self._offset = 0
        return frames

    @property
    def pending_bytes(self):
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer) - self._offset

    def at_boundary(self):
        """True when the stream ended exactly between frames (EOF here
        is a clean close; mid-frame EOF is a torn trailing frame)."""
        return not self.pending_bytes


# -- request / response shapes -----------------------------------------------


def request(request_id, op, args=None, trace=None):
    """Build a request object. ``trace`` attaches a trace id to the
    envelope (the 0x04 traced frame kind on the wire)."""
    message = {"id": request_id, "op": op}
    if trace is not None:
        message["trace"] = trace
    if args:
        message["args"] = args
    return message


def hello_request(request_id, client=None):
    """The negotiation request that must open every connection."""
    args = {"versions": list(SUPPORTED_VERSIONS)}
    if client is not None:
        args["client"] = client
    return request(request_id, "hello", args)


def ok_response(request_id, result):
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, error):
    """Wrap ``error`` (a :class:`ReproError` or a plain message) into a
    failure response."""
    if isinstance(error, ReproError):
        payload = error.to_dict()
    elif isinstance(error, OSError):
        payload = {"code": "os", "message": str(error)}
    else:
        payload = {"code": "repro", "message": str(error)}
    return {"id": request_id, "ok": False, "error": payload}


def parse_request(message):
    """Validate a decoded request; returns ``(id, op, args)``."""
    if "op" not in message:
        raise ProtocolError("request carries no \"op\" field")
    op = message["op"]
    if not isinstance(op, str):
        raise ProtocolError(
            "request \"op\" must be a string, got {!r}".format(op))
    args = message.get("args", {})
    if not isinstance(args, dict):
        raise ProtocolError(
            "request \"args\" must be an object, got {}".format(
                type(args).__name__))
    return message.get("id"), op, args


def parse_response(message):
    """Validate a decoded response; returns ``(id, result)`` or raises
    the reconstructed :class:`ReproError` subclass on ``ok: false``."""
    if "ok" not in message:
        raise ProtocolError("response carries no \"ok\" field")
    if message["ok"]:
        return message.get("id"), message.get("result")
    error = message.get("error") or {}
    if not isinstance(error, dict):
        error = {"message": str(error)}
    raise ReproError.from_dict(error)


def negotiate_version(offered):
    """Pick the newest mutually supported version from the client's
    ``offered`` list; raises :class:`ProtocolError` when there is none
    (or the offer is malformed)."""
    if not isinstance(offered, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool)
            for v in offered):
        raise ProtocolError(
            "hello must offer a list of integer protocol versions, "
            "got {!r}".format(offered))
    shared = set(offered) & set(SUPPORTED_VERSIONS)
    if not shared:
        raise ProtocolError(
            "no shared protocol version: peer offers {}, server "
            "supports {}".format(sorted(offered),
                                 list(SUPPORTED_VERSIONS)))
    return max(shared)
