"""The containment labeling scheme: construction and update-tolerant
maintenance.

A :class:`ContainmentLabeling` instance owns the ``node id -> label`` map of
one document. Building it bulk-assigns balanced codes; after the document is
updated, :meth:`sync` assigns codes to the *new* nodes only, generated
between the surviving neighbor codes — existing codes are never modified,
which is the update-tolerance property the paper requires (Section 4.1:
"document updates should not lead to relabeling of nodes").

Every label is made by one walk over the tree (:meth:`_walk`), shared by
:meth:`build`, :meth:`sync` and :meth:`assign_run`: given the boundary
codes of the trees it labels, in document order, it makes each new
label once and complete — codes from that sequence, level, parent and
both sibling ids from the walk. The three differ only in where the codes
come from: the encoder's balanced ``initial_codes`` for a build, the
surviving codes with fresh ``codes_between`` runs in their gaps for a
sync, one ``codes_between`` run for a run of inserted subtrees. An
existing label is replaced only when its sibling ids changed
(:meth:`repoint_children` does the same per site).
"""

from __future__ import annotations

from repro.errors import LabelingError
from repro.labeling.codes import CDBSEncoder
from repro.labeling.containment import ExtendedLabel
from repro.xdm.node import NodeType

_ELEMENT, _ATTRIBUTE = NodeType.ELEMENT, NodeType.ATTRIBUTE


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

    def _track(self, codes):
        """Raise the watermark to the longest of the freshly installed
        ``codes``."""
        longest = max(map(len, codes), default=0)
        if longest > self._max_code_len:
            self._max_code_len = longest

    @classmethod
    def restored(cls, labels, max_code_length):
        """A labeling over ``labels`` (an ``id -> label`` dict it takes
        over) with the watermark a durability snapshot recorded.

        The watermark is restored verbatim, not recomputed: the tracker
        is monotone between rebuilds, so it may exceed the longest code
        currently installed, and recomputing it from the labels would
        under-read the spent headroom.
        """
        labeling = cls()
        labeling._labels = labels
        labeling._max_code_len = max_code_length
        return labeling

    # -- construction --------------------------------------------------------

    def build(self, document):
        """Label every node of ``document`` with balanced fresh codes."""
        self._labels = {}
        self._max_code_len = 0
        root = document.root
        if root is None:
            return self
        codes = self.encoder.initial_codes(2 * len(document))
        self._track(codes)
        self._walk([(root, 0, None, None, None, None)], codes)
        return self

    def sync(self, document):
        """Incrementally label the nodes of ``document`` lacking a label.

        Existing labels keep their codes; runs of unlabeled boundary slots
        receive codes generated strictly between the neighboring existing
        codes. Labels of nodes no longer in the document are dropped, and
        sibling pointers are refreshed where adjacency changed.
        """
        root = document.root
        if root is None:
            self._labels = {}
            self._max_code_len = 0
            return self
        known, live = self._known_codes(root)
        for node_id in list(self._labels):
            if node_id not in live:
                del self._labels[node_id]
        self._walk([(root, 0, None, None, None, None)],
                   self._fill_codes(known))
        return self

    def _known_codes(self, root):
        """``(codes, live)``: the existing code of every boundary slot
        under ``root`` in document order (``None`` where the node has no
        label; attributes contribute both boundaries right after their
        owner's start), and the set of the ids of the nodes walked."""
        get = self._labels.get
        codes = []
        live = set()
        # (node, None), or (None, code) for an element's end slot
        stack = [(root, None)]
        while stack:
            node, end = stack.pop()
            if node is None:
                codes.append(end)
                continue
            live.add(node.node_id)
            label = get(node.node_id)
            start, end = ((label.start, label.end) if label is not None
                          else (None, None))
            codes.append(start)
            if node.node_type is not _ELEMENT:
                codes.append(end)
                continue
            for attr in node.attributes:
                live.add(attr.node_id)
                label = get(attr.node_id)
                codes += ((label.start, label.end) if label is not None
                          else (None, None))
            stack.append((None, end))
            stack.extend((child, None) for child in reversed(node.children))
        return codes, live

    def _fill_codes(self, codes):
        """Complete the boundary codes ``codes`` in place: each run of
        ``None`` receives fresh codes strictly between its neighbors.
        Returns ``codes``."""
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
            self._track(fresh)
            codes[run_start:index] = fresh
        return codes

    def _walk(self, stack, codes):
        """Label the trees on ``stack`` — the one labeling walk of
        :meth:`build`, :meth:`sync` and :meth:`assign_run`.

        ``stack`` holds one entry ``(node, level, parent id, left
        sibling id, right sibling id, None)`` per tree, the first tree
        last; ``codes`` are the trees' boundary codes in document order
        (attributes contribute both boundaries right after their
        owner's start). Each node without a label gets its label, made
        once and complete: its codes come from ``codes``, its level,
        parent and sibling ids from the walk. A node that has one keeps
        it, unless its sibling ids changed; then a label with the new
        ids replaces it (labels are shared with published versions and
        never mutated).
        """
        labels = self._labels
        get = labels.get
        position = 0
        pop, push = stack.pop, stack.append
        while stack:
            node, level, parent_id, left, right, start = pop()
            if start is None:
                start = codes[position]
                position += 1
                if node.node_type is _ELEMENT:
                    node_id = node.node_id
                    inner = level + 1
                    for attr in node.attributes:
                        if attr.node_id not in labels:
                            labels[attr.node_id] = ExtendedLabel(
                                attr.node_id, _ATTRIBUTE, codes[position],
                                codes[position + 1], inner, node_id)
                        position += 2
                    children = node.children
                    if children:
                        push((node, level, parent_id, left, right, start))
                        right_id = None
                        for index in range(len(children) - 1, -1, -1):
                            child = children[index]
                            push((child, inner, node_id,
                                  children[index - 1].node_id
                                  if index else None, right_id, None))
                            right_id = child.node_id
                        continue
            node_id = node.node_id
            label = get(node_id)
            if label is None:
                labels[node_id] = ExtendedLabel(
                    node_id, node.node_type, start, codes[position],
                    level, parent_id, left, right)
            elif (label.left_sibling_id != left
                    or label.right_sibling_id != right):
                labels[node_id] = _with_siblings(label, left, right)
            position += 1
        if position != len(codes):
            raise LabelingError("{} codes for {} boundaries".format(
                len(codes), position))

    # -- per-site maintenance (used by the in-place batch applier) ----------

    def forget(self, node_id):
        """Forget one node's label (a node the batch removed)."""
        self._labels.pop(node_id, None)

    def assign_run(self, site, nodes, left_code, right_code):
        """Label a run of freshly inserted *attached* subtrees.

        ``nodes`` are consecutive unlabeled attributes and/or children of
        the labeled element ``site``, already attached and with node ids
        assigned; their subtree boundaries receive codes strictly
        between ``left_code`` and ``right_code`` (both codes of existing
        neighbors inside the site's interval, so containment holds by
        construction). This is the per-site counterpart of a whole-tree
        :meth:`sync` — the in-place applier calls it once per insertion
        site. Every label of the run is made complete, the sibling ids
        of the run's own nodes included; the labels of the site's
        *existing* children whose neighbors changed are the callers',
        who finish them with :meth:`repoint_children`.
        """
        if not nodes:
            return
        count = 0
        for node in nodes:
            for __ in node.iter_subtree():
                count += 1
        codes = self.encoder.codes_between(left_code, right_code,
                                           2 * count)
        self._track(codes)
        level = self._labels[site.node_id].level + 1
        children = site.children
        entries = []
        first = None  # the position of the run's first child
        for offset, node in enumerate(nodes):
            left = right = None
            if node.node_type is not _ATTRIBUTE:
                if first is None:
                    first = children.index(node) - offset
                index = first + offset
                if index:
                    left = children[index - 1].node_id
                if index + 1 < len(children):
                    right = children[index + 1].node_id
            entries.append((node, level, site.node_id, left, right, None))
        entries.reverse()
        self._walk(entries, codes)

    def repoint_children(self, parent):
        """Recompute the sibling pointers of ``parent``'s direct children
        (for sites whose child list an in-place batch changed)."""
        labels = self._labels
        children = parent.children
        last = len(children) - 1
        for index, child in enumerate(children):
            left = children[index - 1].node_id if index else None
            right = children[index + 1].node_id if index < last else None
            label = labels.get(child.node_id)
            if label is not None and (label.left_sibling_id != left
                                      or label.right_sibling_id != right):
                labels[child.node_id] = _with_siblings(label, left, right)


def _with_siblings(label, left, right):
    """A copy of ``label`` with the sibling ids ``left`` and ``right``."""
    return ExtendedLabel(label.node_id, label.node_type, label.start,
                         label.end, label.level, label.parent_id, left,
                         right)
