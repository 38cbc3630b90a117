"""The containment labeling scheme: construction and update-tolerant
maintenance.

A :class:`ContainmentLabeling` instance owns the ``node id -> label`` map of
one document. Building it bulk-assigns balanced codes; after the document is
updated, :meth:`sync` assigns codes to the *new* nodes only, generated
between the surviving neighbor codes — existing codes are never modified,
which is the update-tolerance property the paper requires (Section 4.1:
"document updates should not lead to relabeling of nodes").
"""

from __future__ import annotations

from repro.errors import LabelingError
from repro.labeling.codes import CDBSEncoder
from repro.labeling.containment import ExtendedLabel


class ContainmentLabeling:
    """Zhang containment labels with CDBS/CDQS codes for one document."""

    def __init__(self, encoder=None):
        self.encoder = encoder or CDBSEncoder()
        self._labels = {}
        self._max_code_len = 0

    # -- lookup -------------------------------------------------------------

    def __contains__(self, node_id):
        return node_id in self._labels

    def __len__(self):
        return len(self._labels)

    def label_of(self, node_id):
        """Return the label of ``node_id``."""
        try:
            return self._labels[node_id]
        except KeyError:
            raise LabelingError(
                "no label for node id {!r}".format(node_id)) from None

    def find(self, node_id):
        """Return the label of ``node_id`` or ``None``."""
        return self._labels.get(node_id)

    def as_mapping(self):
        """Read-only view of the id -> label map (for serializers)."""
        return dict(self._labels)

    def import_label(self, label):
        """Register a label received from a peer (PUL deserialization)."""
        self._labels[label.node_id] = label
        self._track(label.start, label.end)
        return label

    def copy(self):
        """Structural copy sharing the (immutable) labels.

        :class:`~repro.labeling.containment.ExtendedLabel` instances are
        never mutated in place — maintenance replaces map entries — so a
        copy only needs its own map and watermark. This is what makes an
        MVCC working copy of a labeled document cheap: O(nodes) dict
        duplication, no code re-derivation.
        """
        clone = ContainmentLabeling(encoder=self.encoder)
        clone._labels = dict(self._labels)
        clone._max_code_len = self._max_code_len
        return clone

    # -- code headroom -------------------------------------------------------

    @property
    def max_code_length(self):
        """Length of the longest containment code ever installed.

        Repeated insertions between adjacent codes grow code length by
        roughly one digit each, so this is the headroom indicator the
        update-tolerance property trades on: once it crosses a caller's
        budget, a full :meth:`build` rebalances every code back to
        ``O(log n)`` digits. The counter is monotone under incremental
        maintenance (dropping long-coded nodes does not shrink it — a
        deliberately conservative reading of the remaining headroom) and
        resets on :meth:`build`.
        """
        return self._max_code_len

    def _track(self, *codes):
        for code in codes:
            if len(code) > self._max_code_len:
                self._max_code_len = len(code)

    def note_code_length(self, length):
        """Raise the max-code-length watermark to ``length``.

        Restoring a labeling from a durability snapshot must preserve the
        watermark exactly: the tracker is monotone between rebuilds, so it
        may exceed the longest code currently installed, and recomputing
        it from the imported labels would under-read the spent headroom.
        """
        if length > self._max_code_len:
            self._max_code_len = length

    # -- construction --------------------------------------------------------

    def build(self, document):
        """Label every node of ``document`` with balanced fresh codes."""
        self._labels = {}
        self._max_code_len = 0
        if document.root is None:
            return self
        slots = _leveled_slots(document.root, 0, [])
        self._install(slots, self.encoder.initial_codes(len(slots)))
        self._refresh_pointers(document.root)
        return self

    def sync(self, document):
        """Incrementally label the nodes of ``document`` lacking a label.

        Existing labels keep their codes; runs of unlabeled boundary slots
        receive codes generated strictly between the neighboring existing
        codes. Labels of nodes no longer in the document are dropped, and
        sibling pointers are refreshed where adjacency changed.
        """
        if document.root is None:
            self._labels = {}
            self._max_code_len = 0
            return self
        slots = _leveled_slots(document.root, 0, [])
        live = {node.node_id for node, __, __ in slots}
        for node_id in list(self._labels):
            if node_id not in live:
                del self._labels[node_id]
        self._install(slots, self._fill_codes(slots))
        self._refresh_pointers(document.root)
        return self

    def _fill_codes(self, slots):
        """Produce the full code sequence for ``slots``, reusing existing
        codes and generating fresh ones for unlabeled runs."""
        codes = [None] * len(slots)
        for index, (node, which, __) in enumerate(slots):
            existing = self._labels.get(node.node_id)
            if existing is not None:
                codes[index] = existing.start if which == 0 else existing.end
        index = 0
        while index < len(codes):
            if codes[index] is not None:
                index += 1
                continue
            run_start = index
            while index < len(codes) and codes[index] is None:
                index += 1
            left = codes[run_start - 1] if run_start > 0 else None
            right = codes[index] if index < len(codes) else None
            fresh = self.encoder.codes_between(left, right,
                                               index - run_start)
            codes[run_start:index] = fresh
        return codes

    def _install(self, slots, codes):
        """Label the unlabeled nodes of the boundary sequence ``slots``
        with the parallel ``codes`` (labeled nodes keep their label) —
        the one install loop of :meth:`build`, :meth:`sync` and
        :meth:`assign_run`. Sibling pointers are left to the caller."""
        labels = self._labels
        open_code = {}
        for index, (node, which, level) in enumerate(slots):
            if which == 0:
                open_code[id(node)] = codes[index]
                continue
            start = open_code.pop(id(node))
            if node.node_id in labels:
                continue
            end = codes[index]
            labels[node.node_id] = ExtendedLabel(
                node_id=node.node_id,
                node_type=node.node_type,
                start=start,
                end=end,
                level=level,
                parent_id=(node.parent.node_id
                           if node.parent is not None else None),
            )
            self._track(start, end)
        if open_code:
            raise LabelingError("unbalanced boundary sequence")

    def _refresh_pointers(self, root):
        """Recompute the sibling pointers of every label under ``root``."""
        for node in root.iter_subtree():
            if node.is_element:
                self.repoint_children(node)

    def _point(self, node, **changes):
        label = self._labels.get(node.node_id)
        if label is None:
            return
        updated = {key: value for key, value in changes.items()
                   if getattr(label, key) != value}
        if updated:
            self._labels[node.node_id] = label.replaced(**updated)

    # -- per-site maintenance (used by the in-place batch applier) ----------

    def forget(self, node_id):
        """Forget one node's label (a node the batch removed)."""
        self._labels.pop(node_id, None)

    def assign_run(self, parent_label, nodes, left_code, right_code):
        """Label a run of freshly inserted *attached* subtrees.

        ``nodes`` are consecutive unlabeled attributes and/or children of
        the element labeled ``parent_label``, already attached and with
        node ids assigned; their subtree boundaries receive codes strictly
        between ``left_code`` and ``right_code`` (both codes of existing
        neighbors inside the parent's interval, so containment holds by
        construction). This is the per-site counterpart of a whole-tree
        :meth:`sync` — the in-place applier calls it once per insertion
        site. Sibling pointers are *not* touched; callers finish the site
        with :meth:`repoint_children`.
        """
        slots = []
        for node in nodes:
            _leveled_slots(node, parent_label.level + 1, slots)
        self._install(slots, self.encoder.codes_between(
            left_code, right_code, len(slots)))

    def repoint_children(self, parent):
        """Recompute the sibling pointers of ``parent``'s direct children
        (one element's worth of :meth:`_refresh_pointers`, for sites whose
        child list an in-place batch changed)."""
        previous = None
        for child in parent.children:
            if previous is None:
                self._point(child, left_sibling_id=None)
            else:
                self._point(child, left_sibling_id=previous.node_id)
                self._point(previous, right_sibling_id=child.node_id)
            previous = child
        if previous is not None:
            self._point(previous, right_sibling_id=None)


def _leveled_slots(root, level, slots):
    """Append ``root``'s boundary slots to ``slots`` as ``(node, 0=start /
    1=end, level)`` triples, in document order (attributes contribute both
    boundaries right after their owner's start); ``level`` is the absolute
    level of ``root`` itself. Returns ``slots``."""
    slots.append((root, 0, level))
    if root.is_element:
        for attr in root.attributes:
            slots.append((attr, 0, level + 1))
            slots.append((attr, 1, level + 1))
        for child in root.children:
            _leveled_slots(child, level + 1, slots)
    slots.append((root, 1, level))
    return slots
