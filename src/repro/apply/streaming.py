"""Streaming PUL evaluation (Section 4.3).

The original document flows through as an event stream; the operations of
the PUL are indexed by target identifier and applied on the fly; the
transformed stream is serialized immediately. No in-memory representation
of the document is ever built: memory is proportional to document depth
plus PUL size, decoupling memory requirements from document size.

Pass-through: an event whose node and attributes have no plan, outside a
deleted, replaced or ``repC``-suppressed subtree, leaves as the very
object that came in — no new event, no frame. Frames exist only for the
elements a plan targets.

Identifier assignment to new nodes matches the in-memory evaluator: fresh
identifiers in final-document order starting from ``fresh_start`` (the
executor's allocator position — the original node count for a freshly
parsed document). The evaluator maintains no labels: a host that keeps a
labeling materializes the document and applies in place
(:func:`repro.apply.inplace.apply_batch_in_place`).

Refusals match the in-memory evaluator. With ``check`` (the default) each
planned node is checked against the conditions of Table 2 as it streams
past, inside removed subtrees too; the first violation ends the output,
the rest of the input is only looked at, and the end of the stream raises
:class:`NotApplicableError` with the message
:meth:`repro.pul.pul.PUL.require_applicable` gives (targets never seen
included). The XQUF duplicate-attribute error is raised at the end of the
stream as well, for the element the in-memory evaluator names. A consumer
such as :func:`repro.apply.events.events_to_xml` then returns nothing.
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


class StreamingEvaluator:
    """Single-pass PUL evaluator over an event stream."""

    def __init__(self, pul, fresh_start=None, check=True):
        self.pul = pul
        self.plans = _build_plans(pul)
        self.next_id = fresh_start
        # per open planned element, its ins↘ tree lists (emitted before
        # it closes)
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

    # -- id assignment ---------------------------------------------------

    def _assign_ids(self, trees):
        if self.next_id is None:
            return
        for tree in trees:
            for node in tree.iter_subtree():
                if node.node_id is None:
                    node.node_id = self.next_id
                    self.next_id += 1

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
        checked = self._sightings is not None
        stream = iter(events)
        root = next(stream, None)  # the one node without a parent
        if root is not None:
            stream = chain((root,), stream)
        skip_depth = 0
        suppress_depth = 0  # inside a repC'd element: children suppressed
        for event in stream:
            kind = type(event)
            if kind is EndElement:
                if skip_depth:
                    skip_depth -= 1
                elif suppress_depth > 1:
                    suppress_depth -= 1
                elif suppress_depth or event.node_id in plans:
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
                continue
            if not planned:
                yield event
                continue
            if kind is StartElement:
                outcome = yield from self._enter_element(event)
                if outcome == "skip":
                    skip_depth = 1
                elif outcome == "suppress":
                    suppress_depth = 1
            else:
                yield from self._text(event)
        self._finish(stream, root)

    # -- element handling --------------------------------------------------------

    def _emit_trees(self, tree_lists):
        """Emit new subtrees (ids assigned); the PUL's own trees when
        there are no ids to assign."""
        for trees in tree_lists:
            copies = trees if self.next_id is None else \
                [tree.deep_copy(keep_ids=True) for tree in trees]
            self._assign_ids(copies)
            for copy in copies:
                yield from _node_events(copy)

    def _enter_element(self, event):
        plan = self.plans.get(event.node_id)
        if plan is not None and plan.ins_before:
            yield from self._emit_trees(plan.ins_before)
        if plan is not None and (plan.replace_node is not None
                                 or plan.delete):
            if plan.replace_node is not None:
                yield from self._emit_trees([plan.replace_node])
            if plan.ins_after:
                yield from self._emit_trees(list(reversed(plan.ins_after)))
            return "skip"
        # the element survives
        name = plan.rename if plan is not None and plan.rename else \
            event.name
        attributes = self._transform_attributes(event, plan)
        yield StartElement(name, attributes, node_id=event.node_id)
        if plan is None:
            return None  # only its attributes were planned: no frame
        if plan.replace_children is not None:
            self._frames.append(())
            yield from self._emit_trees([plan.replace_children])
            return "suppress"
        self._frames.append(plan.ins_last)
        # in-memory order: ins↙ blocks (reversed) precede ins↓ blocks
        # (reversed) at the children front
        prefix = list(reversed(plan.ins_first)) + \
            list(reversed(plan.ins_into))
        if prefix:
            yield from self._emit_trees(prefix)
        return None

    def _transform_attributes(self, event, plan):
        result = []
        for attr in event.attributes:
            attr_plan = self.plans.get(attr.node_id)
            if attr_plan is None:
                result.append(attr)
                continue
            if attr_plan.replace_node is not None:
                trees = [t.deep_copy(keep_ids=True)
                         for t in attr_plan.replace_node]
                self._assign_ids(trees)
                result.extend(
                    AttributeEvent(t.name, t.value, node_id=t.node_id)
                    for t in trees)
                continue
            if attr_plan.delete:
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

    def _leave_element(self, event):
        """Close a planned element (one :meth:`_enter_element` gave a
        frame)."""
        pending_last = self._frames.pop()
        if pending_last:
            yield from self._emit_trees(pending_last)
        plan = self.plans[event.node_id]
        yield EndElement(plan.rename or event.name, node_id=event.node_id)
        if plan.ins_after:
            yield from self._emit_trees(list(reversed(plan.ins_after)))

    # -- text nodes ----------------------------------------------------------------

    def _text(self, event):
        """Transform a planned text node."""
        plan = self.plans[event.node_id]
        if plan.ins_before:
            yield from self._emit_trees(plan.ins_before)
        if plan.replace_node is not None:
            yield from self._emit_trees([plan.replace_node])
        elif not plan.delete:
            value = event.value if plan.replace_value is None \
                else plan.replace_value
            yield TextEvent(value, node_id=event.node_id)
        if plan.ins_after:
            yield from self._emit_trees(list(reversed(plan.ins_after)))


def apply_streaming(events, pul, fresh_start=None, check=True):
    """Transform ``events`` by ``pul``; returns the output event iterator.

    ``fresh_start``: first identifier for new nodes (the executor's
    allocator position); ``None`` leaves new nodes id-less.
    ``check``: refuse, as the in-memory evaluator does, a PUL that is not
    applicable on the streamed document (see the module docstring).
    """
    evaluator = StreamingEvaluator(pul, fresh_start=fresh_start,
                                   check=check)
    return evaluator.transform(events)
