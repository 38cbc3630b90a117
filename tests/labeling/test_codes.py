"""Unit and property tests for the CDBS/CDQS dynamic code encoders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LabelingError
from repro.labeling.codes import CDBSEncoder, CDQSEncoder, code_between


@pytest.fixture(params=[CDBSEncoder, CDQSEncoder], ids=["CDBS", "CDQS"])
def encoder(request):
    return request.param()


class TestInitialCodes:
    def test_sorted_and_unique(self, encoder):
        codes = encoder.initial_codes(100)
        assert codes == sorted(codes)
        assert len(set(codes)) == 100

    def test_singleton(self, encoder):
        assert encoder.initial_codes(1) == ["1"]

    def test_empty(self, encoder):
        assert encoder.initial_codes(0) == []

    def test_balanced_lengths(self, encoder):
        codes = encoder.initial_codes(1024)
        longest = max(len(code) for code in codes)
        # balanced assignment keeps codes logarithmic in the count
        assert longest <= 4 * 10 + 4

    def test_no_trailing_zero(self, encoder):
        assert all(code[-1] != "0" for code in encoder.initial_codes(200))


class TestBetween:
    def test_open_ends(self, encoder):
        middle = encoder.between(None, None)
        before = encoder.between(None, middle)
        after = encoder.between(middle, None)
        assert before < middle < after

    def test_inverted_bounds_rejected(self, encoder):
        with pytest.raises(LabelingError):
            encoder.between("11", "1")

    def test_equal_bounds_rejected(self, encoder):
        with pytest.raises(LabelingError):
            encoder.between("1", "1")

    def test_prefix_pair(self, encoder):
        # the pattern that broke the midpoint scan: left is a prefix of
        # right up to virtual zero padding
        new = encoder.between("1", "101")
        assert "1" < new < "101"

    def test_cdbs_published_rules(self):
        encoder = CDBSEncoder()
        assert encoder.between("1", "11") == "101"   # len(L) < len(R)
        assert encoder.between("101", "11") == "1011"  # len(L) >= len(R)
        assert encoder.between(None, "1") == "01"
        assert encoder.between("1", None) == "11"

    def test_codes_between_run(self, encoder):
        run = encoder.codes_between("1", "11", 10)
        assert run == sorted(run)
        assert all("1" < code < "11" for code in run)
        assert len(set(run)) == 10

    def test_code_between_generic_base(self):
        assert code_between(None, None, 4) == "1"
        new = code_between("1", "3", 4)
        assert "1" < new < "3"


#: CDQS midpoints as the generator has always produced them (digit
#: characters compared, only the differing pair converted): label digits
#: travel in PULs, WAL records and snapshots, so they must never change
CDQS_GOLDEN = [
    ("1", "3", "2"),            # digits two apart: their midpoint
    ("1", "2", "11"),           # adjacent digits: left, then after ""
    ("1", "1001", "10001"),     # left shorter: virtual zero padding
    ("12", "121", "1201"),
    ("0131", "02", "0132"),     # left's remainder bumped
    ("133", "2", "1331"),       # remainder at the top digit: extended
    (None, "1", "01"),
    (None, "23", "22"),
    ("3", None, "31"),
    ("123", None, "1231"),
]


@pytest.mark.parametrize("left,right,expected", CDQS_GOLDEN)
def test_cdqs_golden(left, right, expected):
    assert CDQSEncoder().between(left, right) == expected


def test_cdqs_golden_runs():
    encoder = CDQSEncoder()
    assert encoder.codes_between("1", "2", 5) == \
        ["101", "102", "11", "12", "13"]
    assert encoder.initial_codes(7) == \
        ["001", "01", "02", "1", "11", "2", "3"]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([CDBSEncoder, CDQSEncoder]))
def test_arbitrary_insertion_sequences_stay_ordered(data, encoder_cls):
    """Insert runs of codes at random positions for a while: every fresh
    code lies strictly between its bounds, never ends in ``0`` and has
    every digit inside the base; order is always strict and no existing
    code ever changes (update tolerance)."""
    encoder = encoder_cls()
    digits = "0123456789"[:encoder.base]
    codes = encoder.initial_codes(
        data.draw(st.integers(0, 8), label="initial"))
    for __ in range(data.draw(st.integers(1, 40), label="rounds")):
        index = data.draw(st.integers(0, len(codes)), label="slot")
        left = codes[index - 1] if index > 0 else None
        right = codes[index] if index < len(codes) else None
        fresh = encoder.codes_between(
            left, right, data.draw(st.integers(1, 3), label="run"))
        for code in fresh:
            if left is not None:
                assert left < code
            if right is not None:
                assert code < right
            assert code[-1] != "0"
            assert all(digit in digits for digit in code)
        codes[index:index] = fresh
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
