"""The frame codec and message helpers of :mod:`repro.api.protocol`.

The property suite pins the decoder's safety contract: any byte
sequence — complete frames, frames cut at an arbitrary byte, garbage,
adversarial length headers — either decodes to exactly the frames that
are fully present or raises :class:`ProtocolError`; nothing else, and
never unbounded buffering.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import protocol
from repro.api.protocol import (
    HEADER_SIZE,
    MAX_FRAME,
    FrameDecoder,
    decode_payload,
    encode_frame,
)
from repro.errors import (
    ProtocolError,
    QueryEvaluationError,
    ReproError,
    UnknownNodeError,
)
from repro.pul.serialize import pul_from_xml, pul_to_xml

from tests.strategies import wire_puls

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10)

#: frame payloads are always JSON objects
messages = st.dictionaries(st.text(max_size=8), json_values, max_size=5)


def chunked(data, cuts):
    """Split ``data`` at the (sorted, deduplicated) ``cuts`` offsets."""
    bounds = sorted({min(c, len(data)) for c in cuts})
    pieces = []
    start = 0
    for bound in bounds + [len(data)]:
        pieces.append(data[start:bound])
        start = bound
    return pieces


class TestRoundTrip:
    @given(st.lists(messages, max_size=6),
           st.lists(st.integers(0, 4096), max_size=8))
    def test_any_chunking_decodes_the_same_frames(self, objs, cuts):
        data = b"".join(encode_frame(obj) for obj in objs)
        decoder = FrameDecoder()
        decoded = []
        for piece in chunked(data, cuts):
            decoded.extend(decoder.feed(piece))
        assert decoded == objs
        assert decoder.at_boundary()

    @given(messages)
    def test_floats_and_unicode_survive(self, obj):
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(encode_frame(obj))
        assert decoded == obj

    @given(wire_puls())
    @settings(max_examples=25)
    def test_pul_exchange_documents_travel_intact(self, pul):
        """The realistic payload: a submit request carrying a PUL
        exchange document (wire escaping and all) frames and decodes
        back to the same PUL."""
        xml = pul_to_xml(pul)
        frame = encode_frame(protocol.request(7, "submit",
                                              {"doc_id": "d", "pul": xml}))
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(frame)
        __, op, args = protocol.parse_request(decoded)
        assert op == "submit"
        assert pul_to_xml(pul_from_xml(args["pul"])) == xml


class TestTornAndGarbage:
    @given(st.lists(messages, min_size=1, max_size=4),
           st.integers(0, 10_000))
    def test_torn_tail_yields_exactly_the_complete_prefix(self, objs,
                                                          cut):
        frames = [encode_frame(obj) for obj in objs]
        data = b"".join(frames)
        cut = min(cut, len(data))
        decoder = FrameDecoder()
        decoded = decoder.feed(data[:cut])
        # the frames fully contained in the prefix, nothing more
        complete = 0
        consumed = 0
        for frame in frames:
            if consumed + len(frame) <= cut:
                complete += 1
                consumed += len(frame)
            else:
                break
        assert decoded == objs[:complete]
        assert decoder.at_boundary() == (cut == consumed)

    @given(st.binary(max_size=200))
    def test_garbage_never_raises_anything_but_protocol_error(self,
                                                              data):
        decoder = FrameDecoder()
        try:
            decoder.feed(data)
        except ProtocolError:
            pass

    def test_oversized_length_header_fails_before_buffering(self):
        header = struct.pack(">I", MAX_FRAME + 1)
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(header)

    @pytest.mark.parametrize("length", [0, 1])
    def test_impossible_tiny_lengths_are_rejected(self, length):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", length) + b"{}")

    @pytest.mark.parametrize("damage", [
        struct.pack(">I", 0),
        struct.pack(">I", MAX_FRAME + 1),
        struct.pack(">I", 3) + b"\xff\xfe\xfd",
    ], ids=["tiny-header", "huge-header", "payload"])
    def test_frames_ahead_of_the_damage_in_one_chunk_are_returned(
            self, damage):
        """Decoded frames are not raised away with a malformed one that
        arrives in the same read; the error follows them."""
        objs = [{"id": n, "op": "docs"} for n in (1, 2, 3)]
        decoder = FrameDecoder()
        data = b"".join(encode_frame(obj) for obj in objs) + damage
        assert decoder.feed(data) == objs
        assert isinstance(decoder.error, ProtocolError)
        with pytest.raises(ProtocolError) as raised:
            decoder.feed(b"")
        assert raised.value is decoder.error
        # nothing resynchronizes a stream that lost framing
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(objs[0]))

    def test_non_json_payload_is_a_protocol_error(self):
        data = struct.pack(">I", 3) + b"\xff\xfe\xfd"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(data)

    def test_non_object_payload_is_a_protocol_error(self):
        payload = json.dumps([1, 2]).encode()
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_oversized_outgoing_frame_is_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame({"xml": "x" * (MAX_FRAME + 10)})

    def test_header_size_matches_the_spec(self):
        assert HEADER_SIZE == 4
        frame = encode_frame({})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == {}


class TestMessages:
    def test_parse_request_rejects_missing_and_typed_fields(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request({"id": 1})
        with pytest.raises(ProtocolError):
            protocol.parse_request({"op": 7})
        with pytest.raises(ProtocolError):
            protocol.parse_request({"op": "flush", "args": [1]})
        assert protocol.parse_request({"op": "docs"}) == (None, "docs", {})

    def test_response_roundtrip_ok(self):
        response = protocol.ok_response(3, {"x": 1})
        assert protocol.parse_response(response) == (3, {"x": 1})

    def test_error_response_reconstructs_the_subclass(self):
        response = protocol.error_response(9, UnknownNodeError(42))
        with pytest.raises(UnknownNodeError) as excinfo:
            protocol.parse_response(response)
        assert excinfo.value.code == "unknown-node"
        assert excinfo.value.node_id == 42

    def test_error_response_wraps_plain_exceptions(self):
        response = protocol.error_response(1, ValueError("boom"))
        with pytest.raises(ReproError) as excinfo:
            protocol.parse_response(response)
        assert excinfo.value.code == "repro"
        assert "boom" in str(excinfo.value)

    def test_negotiation_picks_newest_shared_version(self):
        assert protocol.negotiate_version([2]) == 2
        assert protocol.negotiate_version([1, 2, 99]) == 2
        with pytest.raises(ProtocolError, match="no shared"):
            protocol.negotiate_version([1])      # v1 sessions: retired
        with pytest.raises(ProtocolError):
            protocol.negotiate_version([99])
        with pytest.raises(ProtocolError):
            protocol.negotiate_version("1")
        with pytest.raises(ProtocolError):
            protocol.negotiate_version([True])

    def test_hello_request_shape(self):
        hello = protocol.hello_request(1, client="alice")
        request_id, op, args = protocol.parse_request(hello)
        assert (request_id, op) == (1, "hello")
        assert args["client"] == "alice"
        assert args["versions"] == list(protocol.SUPPORTED_VERSIONS)


class TestErrorCodeTable:
    """Wire-level guarantees of the error-code satellite."""

    def test_every_code_reconstructs_its_class(self):
        from repro import errors as errors_module
        classes = [value for value in vars(errors_module).values()
                   if isinstance(value, type)
                   and issubclass(value, ReproError)]
        assert len(classes) >= 15
        codes = [klass.code for klass in classes]
        assert len(set(codes)) == len(codes), "codes must be unique"
        for klass in classes:
            rebuilt = ReproError.from_dict(
                {"code": klass.code, "message": "m"})
            assert type(rebuilt) is klass

    def test_unknown_code_degrades_to_the_base_class(self):
        rebuilt = ReproError.from_dict({"code": "from-the-future",
                                        "message": "m"})
        assert type(rebuilt) is ReproError

    def test_details_roundtrip(self):
        error = QueryEvaluationError("bad path")
        assert error.to_dict() == {"code": "query-evaluation",
                                   "message": "bad path"}
        from repro.errors import XMLSyntaxError
        error = XMLSyntaxError("unexpected <", position=12)
        payload = error.to_dict()
        assert payload["details"] == {"position": 12}
        rebuilt = ReproError.from_dict(payload)
        assert isinstance(rebuilt, XMLSyntaxError)
        assert rebuilt.position == 12
