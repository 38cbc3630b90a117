"""Hypothesis properties of the WAL record framing.

The framing layer's whole job is to make three statements true for any
payload sequence, so they are checked as properties rather than
examples: records round-trip exactly, truncating a log at *any* byte
recovers a valid record prefix (the torn-write tolerance recovery leans
on), and a single flipped bit never yields a corrupted payload — the
scan stops at the damaged record. Payloads mix arbitrary bytes with
real coalesced-batch XML (the ``wire_puls`` strategy), since PUL
exchange documents are what the store actually logs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pul.serialize import pul_to_xml
from repro.store.durability import encode_record, scan_records
from tests.strategies import wire_puls


def _payloads():
    binary = st.binary(max_size=120)
    batch = wire_puls(max_ops=3).map(
        lambda pul: pul_to_xml(pul).encode("utf-8"))
    return st.lists(binary | batch, max_size=4)


def _frame(payloads):
    return b"".join(encode_record(p) for p in payloads)


@given(payloads=_payloads())
def test_records_round_trip(payloads):
    decoded, valid_bytes, clean = scan_records(_frame(payloads))
    assert decoded == payloads
    assert clean
    assert valid_bytes == len(_frame(payloads))


@given(payloads=_payloads(), data=st.data())
@settings(max_examples=60)
def test_torn_write_recovers_a_valid_prefix(payloads, data):
    frame = _frame(payloads)
    cut = data.draw(st.integers(0, len(frame)), label="cut")
    decoded, valid_bytes, clean = scan_records(frame[:cut])
    assert decoded == payloads[:len(decoded)]
    assert valid_bytes <= cut
    # the recovered prefix is itself a clean log
    redecoded, __, reclean = scan_records(frame[:valid_bytes])
    assert redecoded == decoded
    assert reclean
    if cut == len(frame):
        assert clean and decoded == payloads


@given(payloads=_payloads().filter(bool), data=st.data())
@settings(max_examples=60)
def test_single_bit_corruption_never_surfaces(payloads, data):
    frame = bytearray(_frame(payloads))
    position = data.draw(st.integers(0, len(frame) - 1), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    frame[position] ^= 1 << bit
    decoded, valid_bytes, clean = scan_records(bytes(frame))
    # find which record the damaged byte belongs to
    offset = 0
    damaged_index = len(payloads)
    for index, payload in enumerate(payloads):
        end = offset + len(encode_record(payload))
        if position < end:
            damaged_index = index
            break
        offset = end
    assert not clean
    assert decoded == payloads[:damaged_index]
    assert valid_bytes == offset


def test_writer_appends_scan_back(tmp_path):
    from repro.store.durability import WalWriter, scan_wal

    path = str(tmp_path / "wal.log")
    payloads = [b"alpha", b"", b"\x00" * 64, "poinée".encode("utf-8")]
    with WalWriter(path, fsync=False) as writer:
        for payload in payloads:
            writer.append(payload, sync=False)
        writer.sync()
    decoded, __, clean = scan_wal(path)
    assert decoded == payloads
    assert clean


def test_scan_of_missing_file_is_empty(tmp_path):
    from repro.store.durability import scan_wal

    decoded, valid_bytes, clean = scan_wal(str(tmp_path / "absent.log"))
    assert decoded == [] and valid_bytes == 0 and clean
