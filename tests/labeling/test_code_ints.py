"""A code as an integer: the resident form of CDBS and CDQS codes.

A resident label reads each code as the integer of its digits padded on
the right to the labeling's width (``to_int``) and gives the digits
back when a label travels (``to_digits``). For codes the encoders
actually make — ``codes_between`` runs, repeated single inserts at one
spot, and codes longer than the starting width of 64 digits — digits ->
int -> digits must be the identity, and integer order must be string
order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling import CDBSEncoder, CDQSEncoder
from repro.labeling.scheme import WIDTH

ENCODERS = [CDBSEncoder, CDQSEncoder]


def width_for(codes):
    """The labeling's width for ``codes``: 64 digits, doubled until the
    longest fits."""
    width = WIDTH
    while width < max(map(len, codes)):
        width *= 2
    return width


def assert_round_trip_and_order(encoder, codes):
    width = width_for(codes)
    values = {code: encoder.to_int(code, width) for code in codes}
    for code, value in values.items():
        assert type(value) is int
        padded = encoder.to_digits(value, width)
        assert padded == code.ljust(width, "0")
        assert padded.rstrip("0") == code
    ranked = sorted(values)
    assert sorted(values, key=values.get) == ranked
    assert len(set(values.values())) == len(values)


@st.composite
def gaps(draw, encoder):
    """Two neighbors of a balanced run, either end possibly open."""
    codes = [None] + encoder.initial_codes(draw(st.integers(1, 40))) \
        + [None]
    index = draw(st.integers(0, len(codes) - 2))
    return codes[index], codes[index + 1]


def hot_spot(encoder, left, right, count, toward_right):
    """``count`` single inserts at one spot, each next to the previous
    new code; returns every code made, bounds included."""
    made = [code for code in (left, right) if code is not None]
    for __ in range(count):
        code = encoder.between(left, right)
        made.append(code)
        if toward_right:
            left = code
        else:
            right = code
    return made


@pytest.mark.parametrize("encoder_cls", ENCODERS, ids=["CDBS", "CDQS"])
class TestCodeInts:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_codes_between_runs(self, encoder_cls, data):
        encoder = encoder_cls()
        left, right = data.draw(gaps(encoder))
        run = encoder.codes_between(left, right,
                                    data.draw(st.integers(1, 60)))
        assert_round_trip_and_order(
            encoder, run + [code for code in (left, right)
                            if code is not None])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_repeated_inserts_at_one_spot(self, encoder_cls, data):
        encoder = encoder_cls()
        left, right = data.draw(gaps(encoder))
        made = hot_spot(encoder, left, right,
                        data.draw(st.integers(1, 120)),
                        data.draw(st.booleans()))
        assert_round_trip_and_order(encoder, made)

    @pytest.mark.parametrize("toward_right", [True, False])
    def test_codes_longer_than_64_digits(self, encoder_cls, toward_right):
        encoder = encoder_cls()
        left, right = encoder.initial_codes(2)
        made = hot_spot(encoder, left, right, 400, toward_right)
        assert max(map(len, made)) > 2 * WIDTH
        assert width_for(made) >= 4 * WIDTH
        assert_round_trip_and_order(encoder, made)

    def test_an_odd_width(self, encoder_cls):
        """The pair holds at any width, not only the labeling's."""
        encoder = encoder_cls()
        for code in encoder.initial_codes(50):
            for width in range(len(code), len(code) + 3):
                value = encoder.to_int(code, width)
                assert encoder.to_digits(value, width) == \
                    code.ljust(width, "0")
