"""Dynamic code encoders: CDBS and CDQS.

Both encoders produce strings over a digit alphabet, compared
lexicographically, with the *completely dynamic* property of [14]/[15]:
between any two existing codes (and before the first / after the last) a new
code can always be generated, without ever touching existing codes. This is
what makes the containment labeling update-tolerant.

* :class:`CDBSEncoder` — Compact Dynamic Binary String ([14]): binary
  digits, every code ends with ``1``, insertion via the published
  length-comparison rules.
* :class:`CDQSEncoder` — Compact Dynamic Quaternary String ([15]): base-4
  digits (two bits per digit on the wire), insertion via a midpoint search;
  codes are shorter at equal fan-out, trading slightly more work per digit.

Codes have one representation, the digit string (``"1011"``): it is what
labels store, what travels on the wire and in snapshots, and what the
generators compute on. Single-character digits without trailing zeros
compare as their fractional values, so ordering is a plain ``str``
comparison; the CDQS midpoint search likewise compares digit characters
and converts only the first pair that differs to numbers.
"""

from __future__ import annotations

from repro.errors import LabelingError

#: digit characters, indexed by digit value (bases beyond 10 would need a
#: wider alphabet; both paper encoders use base <= 4)
_DIGITS = "0123456789"


def code_between(left, right, base):
    """Return the shortest-ish code strictly between ``left`` and ``right``.

    Generic midpoint construction valid for any ``base >= 2``. ``left`` and
    ``right`` are digit strings (or ``None`` for an open end) compared
    lexicographically; results never end with the digit ``0`` so that
    further insertions after them stay possible.
    """
    top = base - 1
    if left is None and right is None:
        return "1"
    if left is None:
        return _before(right)
    if right is None:
        return _after(left, top)
    if not left < right:
        raise LabelingError(
            "cannot insert between {!r} and {!r}".format(left, right))
    # scan with zero-padding on the left code, since e.g. "1" and "1001"
    # agree on the first three (virtual) digits; digit characters order
    # like their values, so only the differing pair is converted
    index = 0
    len_left = len(left)
    while True:
        if index >= len(right):
            raise LabelingError(
                "right code {!r} does not exceed left code {!r}".format(
                    right, left))
        a = left[index] if index < len_left else "0"
        b = right[index]
        if a != b:
            break
        index += 1
    a = int(a)
    b = int(b)
    prefix = right[:index]
    if b - a >= 2:
        return prefix + _DIGITS[(a + b) // 2]
    # Adjacent digits: keep left's digit and make something bigger than
    # left's remainder.
    rest = left[index + 1:] if index < len_left else ""
    return prefix + _DIGITS[a] + _after(rest, top)


def _after(code, top):
    """A code strictly greater than ``code`` (open right end), not growing
    in length when the last digit can simply be bumped."""
    if not code:
        return "1"
    last = int(code[-1])
    if last < top:
        return code[:-1] + _DIGITS[last + 1]
    return code + "1"


def _before(code):
    """A code strictly smaller than ``code`` (open left end)."""
    # Replace the final nonzero digit d with (d-1) and append "1" when the
    # result would end in 0 (codes must not end with 0).
    last = int(code[-1])
    if last >= 2:
        return code[:-1] + _DIGITS[last - 1]
    # last == 1 -> prepend a 0 level: x...x1 -> x...x01
    return code[:-1] + "01"


class _EncoderBase:
    """Shared behaviour of the two encoders."""

    #: digit base; subclasses override.
    base = 2

    def initial_codes(self, count):
        """Assign ``count`` codes in increasing order, balanced so code
        length grows logarithmically with ``count`` (bulk loading)."""
        return self.codes_between(None, None, count)

    def between(self, left, right):
        """A fresh code strictly between ``left`` and ``right``."""
        raise NotImplementedError

    def codes_between(self, left, right, count):
        """``count`` fresh increasing codes strictly between the bounds."""
        codes = [None] * count
        between = self.between

        def assign(lo, hi, lo_code, hi_code):
            if lo > hi:
                return
            mid = (lo + hi) // 2
            code = between(lo_code, hi_code)
            codes[mid] = code
            assign(lo, mid - 1, lo_code, code)
            assign(mid + 1, hi, code, hi_code)

        assign(0, count - 1, left, right)
        return codes


class CDBSEncoder(_EncoderBase):
    """Compact Dynamic Binary String encoder ([14]).

    Codes are binary strings ending in ``1``. Insertion between adjacent
    codes follows the published CDBS rules:

    * ``between(L, R)`` with ``len(L) >= len(R)`` -> ``L + "1"``;
    * ``between(L, R)`` with ``len(L) <  len(R)`` -> ``R[:-1] + "01"``;
    * open left end -> ``R[:-1] + "01"``; open right end -> ``L + "1"``.
    """

    base = 2

    def between(self, left, right):
        if left is None and right is None:
            return "1"
        if left is None:
            return right[:-1] + "01"
        if right is None:
            return left + "1"
        if not left < right:
            raise LabelingError(
                "cannot insert between {!r} and {!r}".format(left, right))
        if len(left) >= len(right):
            return left + "1"
        return right[:-1] + "01"


class CDQSEncoder(_EncoderBase):
    """Compact Dynamic Quaternary String encoder ([15]).

    Base-4 digit strings; the VLDB-J paper encodes each digit on two bits,
    yielding codes roughly half the length of CDBS for the same positions.
    Insertion uses the generic midpoint construction.
    """

    base = 4

    def between(self, left, right):
        return code_between(left, right, self.base)
