"""Resume tokens: opaque, checksummed, round-trip exact."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.tokens import decode_token, encode_token
from repro.errors import ProtocolError

# stream epochs are uuid4().hex in production, but the token format
# only requires "non-empty, no colon" — property-test that contract
streams = st.text(
    alphabet=st.characters(blacklist_characters=":",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=64)
seqs = st.integers(min_value=0, max_value=2**63 - 1)


class TestRoundTrip:
    @given(stream=streams, seq=seqs)
    def test_encode_decode_is_identity(self, stream, seq):
        assert decode_token(encode_token(stream, seq)) == (stream, seq)

    @given(stream=streams, seq=seqs)
    def test_tokens_are_strings_and_deterministic(self, stream, seq):
        token = encode_token(stream, seq)
        assert isinstance(token, str)
        assert token == encode_token(stream, seq)

    def test_known_vector_is_stable(self):
        # pin the wire format: clients persist tokens across releases
        assert encode_token("abc", 7) == "abc:7:24da9867"
        assert decode_token("abc:7:24da9867") == ("abc", 7)


class TestRejection:
    @given(stream=streams, seq=seqs)
    def test_any_single_character_corruption_is_detected(self, stream,
                                                         seq):
        token = encode_token(stream, seq)
        # flip the last checksum character; decode must refuse rather
        # than resume from a position the producer never issued
        tail = "0" if token[-1] != "0" else "1"
        with pytest.raises(ProtocolError):
            decode_token(token[:-1] + tail)

    @given(garbage=st.text(max_size=32))
    def test_garbage_never_decodes_silently(self, garbage):
        try:
            stream, seq = decode_token(garbage)
        except ProtocolError:
            return
        # the only strings that decode are genuine tokens
        assert encode_token(stream, seq) == garbage

    @pytest.mark.parametrize("bad", [
        None, 7, b"abc:7:24da9867", "", "abc", "abc:7", "abc:-1:x",
        "abc:seven:24da9867", "abc:7:ffffffff", ":7:24da9867",
        "abc:7:", "abc::24da9867",
    ])
    def test_malformed_inputs_raise_protocol_error(self, bad):
        with pytest.raises(ProtocolError):
            decode_token(bad)

    def test_encode_rejects_unusable_streams_and_seqs(self):
        for stream in ("", None, "a:b", 5):
            with pytest.raises(ProtocolError):
                encode_token(stream, 0)
        with pytest.raises(ProtocolError):
            encode_token("abc", -1)
