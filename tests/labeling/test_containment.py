"""Unit tests for the extended label value object."""

import pytest

from repro.errors import DocumentError, LabelingError
from repro.labeling.containment import ExtendedLabel
from repro.xdm.node import NodeType


def make_label(**overrides):
    fields = dict(node_id=5, node_type=NodeType.ELEMENT, start="01",
                  end="011", level=2, parent_id=3, left_sibling_id=4,
                  right_sibling_id=6)
    fields.update(overrides)
    return ExtendedLabel(**fields)


class TestLabel:
    def test_fields(self):
        label = make_label()
        assert label.node_id == 5
        assert label.level == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(LabelingError):
            make_label(start="1", end="1")
        with pytest.raises(LabelingError):
            make_label(start="11", end="1")

    def test_roundtrip(self):
        label = make_label()
        assert ExtendedLabel.from_string(label.to_string()) == label

    def test_roundtrip_with_missing_siblings(self):
        label = make_label(parent_id=None, left_sibling_id=None,
                           right_sibling_id=None)
        restored = ExtendedLabel.from_string(label.to_string())
        assert restored.parent_id is None
        assert restored.left_sibling_id is None

    def test_roundtrip_all_types(self):
        for node_type in NodeType:
            label = make_label(node_type=node_type)
            assert ExtendedLabel.from_string(
                label.to_string()).node_type is node_type

    def test_malformed_string(self):
        with pytest.raises(LabelingError):
            ExtendedLabel.from_string("1;e;01")

    def test_unknown_type_letter(self):
        text = make_label().to_string().replace(";e;", ";x;")
        with pytest.raises(DocumentError) as raised:
            ExtendedLabel.from_string(text)
        assert str(raised.value) == "unknown node type code: 'x'"

    def test_equality_and_hash(self):
        assert make_label() == make_label()
        assert hash(make_label()) == hash(make_label())
        assert make_label() != make_label(level=9)
