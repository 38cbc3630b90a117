"""Streaming PUL evaluation (Section 4.3).

The original document flows through as an event stream; the operations of
the PUL are indexed by target identifier and applied on the fly; the
transformed stream is serialized immediately. No in-memory representation
of the document is ever built: memory is proportional to document depth
plus PUL size, decoupling memory requirements from document size.

Pass-through: with no labeling to maintain, an event whose node and
attributes have no plan, outside a deleted, replaced or ``repC``-suppressed
subtree, leaves as the very object that came in — no new event, no frame,
no lookahead. Frames exist only for the elements a plan targets.

Identifier assignment to new nodes matches the in-memory evaluator: fresh
identifiers in final-document order starting from ``fresh_start`` (the
executor's allocator position — the original node count for a freshly
parsed document). When a :class:`ContainmentLabeling` is supplied, every
element gets a frame and new nodes also receive containment codes
generated between surviving neighbor codes (no existing label is ever
touched — update tolerance), and sibling pointers are restitched as
elements close. One event of lookahead keeps new-attribute and
children-prefix codes below the first original child's start code.

Refusals match the in-memory evaluator. With ``check`` (the default) each
planned node is checked against the conditions of Table 2 as it streams
past, inside removed subtrees too; the first violation ends the output,
the rest of the input is only looked at, and the end of the stream raises
:class:`NotApplicableError` with the message
:meth:`repro.pul.pul.PUL.require_applicable` gives (targets never seen
included). The XQUF duplicate-attribute error is raised at the end of the
stream as well, for the element the in-memory evaluator names. A consumer
such as :func:`repro.apply.events.events_to_xml` then returns nothing; a
supplied labeling keeps what the stream changed before the refusal.
"""

from __future__ import annotations

from itertools import chain

from repro.apply.events import (
    AttributeEvent,
    EndElement,
    StartElement,
    TextEvent,
    _node_events,
)
from repro.errors import NotApplicableError
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)


class _Plan:
    """The per-target update plan (operations grouped by effect)."""

    __slots__ = ("rename", "replace_value", "delete", "replace_node",
                 "replace_children", "ins_before", "ins_after", "ins_first",
                 "ins_last", "ins_into", "ins_attributes", "ops")

    def __init__(self):
        self.rename = None
        self.replace_value = None
        self.delete = False
        self.replace_node = None       # list of trees (may be empty)
        self.replace_children = None   # list of trees (may be empty)
        self.ins_before = []
        self.ins_after = []
        self.ins_first = []
        self.ins_last = []
        self.ins_into = []
        self.ins_attributes = []
        self.ops = []                  # the operations, for the checks


def _build_plans(pul):
    plans = {}
    for op in pul:
        plan = plans.get(op.target)
        if plan is None:
            plan = plans[op.target] = _Plan()
        plan.ops.append(op)
        name = op.op_name
        if name == Rename.op_name:
            plan.rename = op.name
        elif name == ReplaceValue.op_name:
            plan.replace_value = op.value
        elif name == Delete.op_name:
            plan.delete = True
        elif name == ReplaceNode.op_name:
            plan.replace_node = list(op.trees)
        elif name == ReplaceChildren.op_name:
            plan.replace_children = list(op.trees)
        elif name == InsertBefore.op_name:
            plan.ins_before.append(list(op.trees))
        elif name == InsertAfter.op_name:
            plan.ins_after.append(list(op.trees))
        elif name == InsertIntoAsFirst.op_name:
            plan.ins_first.append(list(op.trees))
        elif name == InsertIntoAsLast.op_name:
            plan.ins_last.append(list(op.trees))
        elif name == InsertInto.op_name:
            plan.ins_into.append(list(op.trees))
        elif name == InsertAttributes.op_name:
            plan.ins_attributes.append(list(op.trees))
        else:
            raise NotApplicableError("unknown operation {!r}".format(op))
    return plans


class _Seen:
    """A planned node as the stream shows it: all that the conditions of
    Table 2 (``UpdateOperation._conditions``) read of a node."""

    __slots__ = ("is_element", "is_attribute", "is_text", "parent")

    def __init__(self, kind, has_parent):
        self.is_element = kind is StartElement
        self.is_attribute = kind is AttributeEvent
        self.is_text = kind is TextEvent
        self.parent = True if has_parent else None  # only tested for None


class _Sightings(dict):
    """The planned nodes the stream has shown, by identifier: the document
    :meth:`repro.pul.pul.PUL.applicability_errors` checks against."""

    find = dict.get


class _Frame:
    """State of one open *emitted* element."""

    __slots__ = ("node_id", "level", "end_code", "child_ids",
                 "pending_last")

    def __init__(self, node_id, level, end_code):
        self.node_id = node_id
        self.level = level
        self.end_code = end_code
        self.child_ids = []
        self.pending_last = None  # ins↘ tree lists to emit before closing


class _Peekable:
    """One-event lookahead over the input stream (labeled runs only)."""

    __slots__ = ("_iter", "_buffer")
    _EMPTY = object()

    def __init__(self, events):
        self._iter = iter(events)
        self._buffer = self._EMPTY

    def __iter__(self):
        return self

    def __next__(self):
        if self._buffer is not self._EMPTY:
            value = self._buffer
            self._buffer = self._EMPTY
            return value
        return next(self._iter)

    def peek(self):
        if self._buffer is self._EMPTY:
            try:
                self._buffer = next(self._iter)
            except StopIteration:
                return None
        return self._buffer


class StreamingEvaluator:
    """Single-pass PUL evaluator over an event stream."""

    def __init__(self, pul, fresh_start=None, labeling=None, check=True):
        self.pul = pul
        self.plans = _build_plans(pul)
        self.next_id = fresh_start
        self.labeling = labeling
        self._last_code = None
        self._frames = []
        # with ``check``: the planned nodes seen so far, and whether the
        # PUL is refused (an incompatible pair is: the output then ends at
        # the first planned node)
        self._sightings = _Sightings() if check else None
        self._refused = check and next(pul.incompatible_pairs(),
                                       None) is not None
        # duplicate-attribute errors by element id, and the original
        # attribute ids of those elements (to name the in-memory one)
        self._duplicates = {}
        self._owners = {}

    # -- id / label helpers ---------------------------------------------------

    def _assign_ids(self, trees):
        if self.next_id is None:
            return
        for tree in trees:
            for node in tree.iter_subtree():
                if node.node_id is None:
                    node.node_id = self.next_id
                    self.next_id += 1

    def _label_trees(self, trees, right_code):
        """Containment codes for new trees, strictly between the last
        emitted boundary and ``right_code``."""
        if self.labeling is None or not trees:
            return
        frame = self._frames[-1] if self._frames else None
        parent_id = frame.node_id if frame else None
        parent_level = frame.level if frame else -1
        self.labeling.assign_tree(trees, parent_id, parent_level,
                                  self._last_code, right_code)
        self._last_code = self.labeling.label_of(trees[-1].node_id).end

    def _note_code(self, node_id, which):
        if self.labeling is None:
            return
        label = self.labeling.find(node_id)
        if label is not None:
            self._last_code = label.start if which == 0 else label.end

    def _original_label(self, node_id):
        if self.labeling is None:
            return None
        return self.labeling.find(node_id)

    def _forget(self, node_id):
        if self.labeling is not None:
            self.labeling.forget(node_id)

    def _adopt(self, node_id):
        """Record a child of the innermost open element (restitching)."""
        if self.labeling is not None and self._frames:
            self._frames[-1].child_ids.append(node_id)

    # -- applicability ---------------------------------------------------

    def _sight(self, event, has_parent):
        """Record the planned nodes ``event`` shows (itself and its
        attributes); False once the PUL is refused — here, or before."""
        self._check(event.node_id, type(event), has_parent)
        if type(event) is StartElement:
            for attr in event.attributes:
                self._check(attr.node_id, AttributeEvent, True)
        return not self._refused

    def _check(self, node_id, kind, has_parent):
        """Record one node, if planned, against its operations' Table 2
        conditions."""
        plan = self.plans.get(node_id)
        if plan is not None:
            seen = self._sightings[node_id] = _Seen(kind, has_parent)
            for op in plan.ops:
                if op._conditions(seen):
                    self._refused = True

    def _finish(self, stream, root):
        """End of the stream: raise what the in-memory evaluator raises."""
        sightings = self._sightings
        if sightings is not None:
            if self._refused:
                for event in stream:  # the output has ended: only look
                    if type(event) is not EndElement:
                        self._sight(event, event is not root)
            if self._refused or len(sightings) < len(self.plans):
                raise NotApplicableError("; ".join(
                    self.pul.applicability_errors(sightings)))
        if self._duplicates:
            raise NotApplicableError(self._first_duplicate())

    def _first_duplicate(self):
        """The duplicate-attribute error of the first element, in PUL
        order, whose attribute set an ``insA`` or an attribute's
        ``ren``/``repN`` modifies — the one the in-memory evaluator
        reports."""
        for op in self.pul:
            if op.op_name == InsertAttributes.op_name:
                element = op.target
            elif op.op_name in (Rename.op_name, ReplaceNode.op_name):
                element = self._owners.get(op.target)
            else:
                continue
            if element in self._duplicates:
                return self._duplicates[element]
        return next(iter(self._duplicates.values()))

    # -- transformation ---------------------------------------------------------

    def transform(self, events):
        """Yield the transformed event stream."""
        plans = self.plans
        labeled = self.labeling is not None
        checked = self._sightings is not None
        stream = iter(events)
        root = next(stream, None)  # the one node without a parent
        if root is not None:
            stream = chain((root,), stream)
        if labeled:
            stream = _Peekable(stream)
        skip_depth = 0
        suppress_depth = 0  # inside a repC'd element: children suppressed
        for event in stream:
            kind = type(event)
            if kind is EndElement:
                if skip_depth:
                    skip_depth -= 1
                    if skip_depth == 0:
                        self._forget(event.node_id)
                elif suppress_depth > 1:
                    suppress_depth -= 1
                elif suppress_depth or labeled or event.node_id in plans:
                    # (suppress depth 1: the repC'd element itself closes)
                    suppress_depth = 0
                    yield from self._leave_element(event)
                else:
                    yield event
                continue
            planned = event.node_id in plans
            if not planned and kind is StartElement:
                for attr in event.attributes:
                    if attr.node_id in plans:
                        planned = True
                        break
            if planned and checked and \
                    not self._sight(event, event is not root):
                break
            if skip_depth or suppress_depth:
                if kind is StartElement:
                    if skip_depth:
                        skip_depth += 1
                    else:
                        suppress_depth += 1
                    if labeled:
                        for attr in event.attributes:
                            self._forget(attr.node_id)
                self._forget(event.node_id)
                continue
            if not planned and not labeled:
                yield event
                continue
            if kind is StartElement:
                outcome = yield from self._enter_element(event, stream)
                if outcome == "skip":
                    skip_depth = 1
                elif outcome == "suppress":
                    suppress_depth = 1
            else:
                yield from self._text(event)
        self._finish(stream, root)

    # -- element handling --------------------------------------------------------

    def _emit_trees(self, tree_lists, right_code):
        """Emit new subtrees (id + label assignment + frame bookkeeping);
        the PUL's own trees when there is nothing to assign."""
        bare = self.next_id is None and self.labeling is None
        for trees in tree_lists:
            copies = trees if bare else \
                [tree.deep_copy(keep_ids=True) for tree in trees]
            self._assign_ids(copies)
            self._label_trees(copies, right_code)
            for copy in copies:
                self._adopt(copy.node_id)
                yield from _node_events(copy)

    def _after_code(self, label):
        """The next original boundary after this node's subtree: the right
        sibling's start, or the enclosing (parent) element's end code."""
        if label is None:
            return None
        if label.right_sibling_id is not None:
            sibling = self._original_label(label.right_sibling_id)
            if sibling is not None:
                return sibling.start
        if self._frames:
            return self._frames[-1].end_code
        return None

    def _enter_element(self, event, stream):
        plan = self.plans.get(event.node_id)
        label = self._original_label(event.node_id)
        if plan is not None and plan.ins_before:
            yield from self._emit_trees(
                plan.ins_before, label.start if label else None)
        if plan is not None and (plan.replace_node is not None
                                 or plan.delete):
            bound = self._after_code(label)
            if plan.replace_node is not None:
                yield from self._emit_trees([plan.replace_node], bound)
            if plan.ins_after:
                yield from self._emit_trees(
                    list(reversed(plan.ins_after)), bound)
            self._forget(event.node_id)
            return "skip"
        # the element survives
        name = plan.rename if plan is not None and plan.rename else \
            event.name
        self._adopt(event.node_id)
        self._note_code(event.node_id, 0)
        first_bound = self._first_content_bound(event, label, stream)
        attributes = self._transform_attributes(event, plan, label,
                                                first_bound)
        yield StartElement(name, attributes, node_id=event.node_id)
        if plan is None and self.labeling is None:
            return None  # only its attributes were planned: no frame
        frame = _Frame(
            event.node_id,
            label.level if label is not None else len(self._frames),
            label.end if label is not None else None)
        self._frames.append(frame)
        if plan is not None and plan.replace_children is not None:
            yield from self._emit_trees(
                [plan.replace_children], frame.end_code)
            return "suppress"
        if plan is not None:
            # in-memory order: ins↙ blocks (reversed) precede ins↓ blocks
            # (reversed) at the children front
            prefix = list(reversed(plan.ins_first)) + \
                list(reversed(plan.ins_into))
            if prefix:
                yield from self._emit_trees(prefix, first_bound)
            frame.pending_last = plan.ins_last
        return None

    def _first_content_bound(self, event, label, stream):
        """Upper bound for codes generated right after the start tag: the
        first original child's start code (one event of lookahead), or the
        element's own end code when it has no children."""
        if self.labeling is None or label is None:
            return None
        upcoming = stream.peek()
        if isinstance(upcoming, (StartElement, TextEvent)):
            child_label = self._original_label(upcoming.node_id)
            if child_label is not None:
                return child_label.start
        return label.end

    def _transform_attributes(self, event, plan, element_label,
                              first_bound):
        result = []
        # advance the code cursor past the original attributes first, so
        # new attribute codes land after them
        if self.labeling is not None:
            for attr in event.attributes:
                attr_label = self.labeling.find(attr.node_id)
                if attr_label is not None and (
                        self._last_code is None
                        or attr_label.end > self._last_code):
                    self._last_code = attr_label.end
        for attr in event.attributes:
            attr_plan = self.plans.get(attr.node_id)
            if attr_plan is None:
                result.append(attr)
                continue
            if attr_plan.replace_node is not None:
                trees = [t.deep_copy(keep_ids=True)
                         for t in attr_plan.replace_node]
                self._assign_ids(trees)
                self._label_attributes(trees, event, element_label,
                                       first_bound)
                self._forget(attr.node_id)
                result.extend(
                    AttributeEvent(t.name, t.value, node_id=t.node_id)
                    for t in trees)
                continue
            if attr_plan.delete:
                self._forget(attr.node_id)
                continue
            name = attr_plan.rename or attr.name
            value = attr.value if attr_plan.replace_value is None \
                else attr_plan.replace_value
            result.append(AttributeEvent(name, value,
                                         node_id=attr.node_id))
        if plan is not None:
            for trees in plan.ins_attributes:
                copies = [t.deep_copy(keep_ids=True) for t in trees]
                self._assign_ids(copies)
                self._label_attributes(copies, event, element_label,
                                       first_bound)
                result.extend(
                    AttributeEvent(t.name, t.value, node_id=t.node_id)
                    for t in copies)
        names = [attr.name for attr in result]
        if len(names) != len(set(names)):
            self._duplicates[event.node_id] = \
                "duplicate attribute on element {}: {}".format(
                    event.node_id, sorted(names))
            for attr in event.attributes:
                self._owners[attr.node_id] = event.node_id
        return result

    def _label_attributes(self, trees, event, element_label, first_bound):
        if self.labeling is None or element_label is None:
            return
        self.labeling.assign_tree(trees, event.node_id,
                                  element_label.level,
                                  self._last_code, first_bound)
        self._last_code = self.labeling.label_of(trees[-1].node_id).end

    def _leave_element(self, event):
        frame = self._frames[-1]
        if frame.pending_last:
            yield from self._emit_trees(frame.pending_last, frame.end_code)
        self._frames.pop()
        self._stitch_children(frame)
        self._note_code(event.node_id, 1)
        plan = self.plans.get(event.node_id)
        name = plan.rename if plan is not None and plan.rename else \
            event.name
        yield EndElement(name, node_id=event.node_id)
        if plan is not None and plan.ins_after:
            label = self._original_label(event.node_id)
            yield from self._emit_trees(
                list(reversed(plan.ins_after)), self._after_code(label))

    def _stitch_children(self, frame):
        """Recompute the sibling pointers of the element's final children."""
        if self.labeling is None:
            return
        previous_id = None
        for child_id in frame.child_ids:
            label = self.labeling.find(child_id)
            if label is None:
                continue
            if label.left_sibling_id != previous_id:
                self.labeling.import_label(
                    label.replaced(left_sibling_id=previous_id))
            if previous_id is not None:
                previous = self.labeling.find(previous_id)
                if previous.right_sibling_id != child_id:
                    self.labeling.import_label(
                        previous.replaced(right_sibling_id=child_id))
            previous_id = child_id
        if previous_id is not None:
            last = self.labeling.find(previous_id)
            if last.right_sibling_id is not None:
                self.labeling.import_label(
                    last.replaced(right_sibling_id=None))

    # -- text nodes ----------------------------------------------------------------

    def _text(self, event):
        plan = self.plans.get(event.node_id)
        if plan is None:
            self._adopt(event.node_id)
            self._note_code(event.node_id, 1)
            yield event
            return
        label = self._original_label(event.node_id)
        if plan.ins_before:
            yield from self._emit_trees(
                plan.ins_before, label.start if label else None)
        if plan.replace_node is not None:
            yield from self._emit_trees(
                [plan.replace_node], self._after_code(label))
            self._forget(event.node_id)
        elif plan.delete:
            self._forget(event.node_id)
        else:
            value = event.value if plan.replace_value is None \
                else plan.replace_value
            self._adopt(event.node_id)
            self._note_code(event.node_id, 1)
            yield TextEvent(value, node_id=event.node_id)
        if plan.ins_after:
            yield from self._emit_trees(
                list(reversed(plan.ins_after)), self._after_code(label))


def apply_streaming(events, pul, fresh_start=None, labeling=None,
                    check=True):
    """Transform ``events`` by ``pul``; returns the output event iterator.

    ``fresh_start``: first identifier for new nodes (the executor's
    allocator position); ``None`` leaves new nodes id-less.
    ``labeling``: a :class:`ContainmentLabeling` of the original document,
    updated in place (labels added for inserted nodes, dropped for removed
    ones; existing codes never change).
    ``check``: refuse, as the in-memory evaluator does, a PUL that is not
    applicable on the streamed document (see the module docstring).
    """
    evaluator = StreamingEvaluator(pul, fresh_start=fresh_start,
                                   labeling=labeling, check=check)
    return evaluator.transform(events)
