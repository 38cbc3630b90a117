"""The containment labeling scheme: construction and update-tolerant
maintenance.

A :class:`ContainmentLabeling` instance owns the ``node id -> (start,
end)`` code map of one document, and the document it labels. Building
it bulk-assigns balanced codes; after the document is updated,
:meth:`sync` assigns codes to the *new* nodes only, generated between
the surviving neighbor codes — existing codes are never modified,
which is the update-tolerance property the paper requires (Section 4.1:
"document updates should not lead to relabeling of nodes").

A resident label is its two codes, kept as a plain tuple. The rest of
the paper's extended label — node type, level, parent and sibling ids
— is what the tree says it is, so it is not kept beside it:
:meth:`exchange_label` reads it off the labeled document when a label
travels (attached to a PUL, written to the log or the wire).

Every code is assigned by one walk over the tree (:meth:`_walk`), shared
by :meth:`build`, :meth:`sync` and :meth:`assign_run`: given the
boundary codes of the trees it labels, in document order, it gives each
unlabeled node its pair. The three differ only in where the codes come
from: the encoder's balanced ``initial_codes`` for a build, the
surviving codes with fresh ``codes_between`` runs in their gaps for a
sync, one ``codes_between`` run for a run of inserted subtrees.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.errors import LabelingError
from repro.labeling.codes import CDBSEncoder
from repro.labeling.containment import ExtendedLabel
from repro.xdm.navigation import depth, left_sibling, right_sibling
from repro.xdm.node import NodeType

_ELEMENT = NodeType.ELEMENT


class ContainmentLabeling:
    """Zhang containment codes, CDBS or CDQS, for one document."""

    def __init__(self, encoder=None):
        self.encoder = encoder or CDBSEncoder()
        self._labels = {}
        self._max_code_len = 0
        #: the document the codes label (set by build, sync, restored
        #: and the in-place applier; carried by copy)
        self.document = None

    # -- lookup -------------------------------------------------------------

    def __contains__(self, node_id):
        return node_id in self._labels

    def __len__(self):
        return len(self._labels)

    def label_of(self, node_id):
        """Return the ``(start, end)`` codes of ``node_id``."""
        try:
            return self._labels[node_id]
        except KeyError:
            raise LabelingError(
                "no label for node id {!r}".format(node_id)) from None

    def find(self, node_id):
        """Return the ``(start, end)`` codes of ``node_id`` or ``None``."""
        return self._labels.get(node_id)

    def as_mapping(self):
        """Read-only view of the id -> ``(start, end)`` map."""
        return MappingProxyType(self._labels)

    def exchange_label(self, node_id):
        """The :class:`~repro.labeling.containment.ExtendedLabel` of
        ``node_id`` as it travels in a PUL: its codes, and its node
        type, level, parent and sibling ids read off the labeled
        document."""
        start, end = self.label_of(node_id)
        document = self.document
        node = document.get(node_id)
        left = left_sibling(document, node)
        right = right_sibling(document, node)
        return ExtendedLabel(
            node_id, node.node_type, start, end, depth(document, node),
            document.parent_id(node_id),
            None if left is None else left.node_id,
            None if right is None else right.node_id)

    def copy(self):
        """A copy with its own code map, over the same document.

        Code pairs are immutable tuples, so a copy only needs its own
        map and watermark: an MVCC working copy of a labeled document
        costs one O(nodes) dict duplication, no code re-derivation.
        The writer points the copy at its working tree when it applies
        a batch (:func:`repro.apply.inplace.apply_batch_in_place`).
        """
        clone = ContainmentLabeling(encoder=self.encoder)
        clone._labels = dict(self._labels)
        clone._max_code_len = self._max_code_len
        clone.document = self.document
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
    def restored(cls, document, labels, max_code_length):
        """A labeling of ``document`` over ``labels`` (an ``id ->
        (start, end)`` dict it takes over) with the watermark a
        durability snapshot recorded.

        The watermark is restored verbatim, not recomputed: the tracker
        is monotone between rebuilds, so it may exceed the longest code
        currently installed, and recomputing it from the labels would
        under-read the spent headroom.
        """
        labeling = cls()
        labeling.document = document
        labeling._labels = labels
        labeling._max_code_len = max_code_length
        return labeling

    # -- construction --------------------------------------------------------

    def build(self, document):
        """Label every node of ``document`` with balanced fresh codes."""
        self.document = document
        self._labels = {}
        self._max_code_len = 0
        root = document.root
        if root is None:
            return self
        codes = self.encoder.initial_codes(2 * len(document))
        self._track(codes)
        self._walk([root], codes)
        return self

    def sync(self, document):
        """Incrementally label the nodes of ``document`` lacking a label.

        Existing labels keep their codes; runs of unlabeled boundary slots
        receive codes generated strictly between the neighboring existing
        codes. Labels of nodes no longer in the document are dropped.
        """
        self.document = document
        root = document.root
        if root is None:
            self._labels = {}
            self._max_code_len = 0
            return self
        known, live = self._known_codes(root)
        for node_id in list(self._labels):
            if node_id not in live:
                del self._labels[node_id]
        self._walk([root], self._fill_codes(known))
        return self

    def _known_codes(self, root):
        """``(codes, live)``: the existing code of every boundary slot
        under ``root`` in document order (``None`` where the node has no
        label; attributes contribute both boundaries right after their
        owner's start), and the set of the ids of the nodes walked."""
        get = self._labels.get
        unlabeled = (None, None)
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
            start, end = get(node.node_id, unlabeled)
            codes.append(start)
            if node.node_type is not _ELEMENT:
                codes.append(end)
                continue
            for attr in node.attributes:
                live.add(attr.node_id)
                codes += get(attr.node_id, unlabeled)
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

    def _walk(self, trees, codes):
        """Label the ``trees`` — the one labeling walk of :meth:`build`,
        :meth:`sync` and :meth:`assign_run`.

        ``trees`` are subtree roots in document order; ``codes`` are
        their boundary codes in document order (attributes contribute
        both boundaries right after their owner's start). Each node
        without a label gets its ``(start, end)`` pair from ``codes``;
        a node that has one keeps it.
        """
        labels = self._labels
        position = 0
        # (node, None) to enter a node; (element, its start code) to
        # close it after its children
        stack = [(tree, None) for tree in reversed(trees)]
        pop, push = stack.pop, stack.append
        while stack:
            node, start = pop()
            if start is None:
                start = codes[position]
                position += 1
                if node.node_type is _ELEMENT:
                    for attr in node.attributes:
                        if attr.node_id not in labels:
                            labels[attr.node_id] = (codes[position],
                                                    codes[position + 1])
                        position += 2
                    children = node.children
                    if children:
                        push((node, start))
                        for index in range(len(children) - 1, -1, -1):
                            push((children[index], None))
                        continue
            if node.node_id not in labels:
                labels[node.node_id] = (start, codes[position])
            position += 1
        if position != len(codes):
            raise LabelingError("{} codes for {} boundaries".format(
                len(codes), position))

    # -- per-site maintenance (used by the in-place batch applier) ----------

    def forget(self, node_id):
        """Forget one node's label (a node the batch removed)."""
        self._labels.pop(node_id, None)

    def assign_run(self, nodes, left_code, right_code):
        """Label a run of freshly inserted *attached* subtrees.

        ``nodes`` are consecutive unlabeled attributes and/or children of
        one labeled element, already attached and with node ids
        assigned; their subtree boundaries receive codes strictly
        between ``left_code`` and ``right_code`` (both codes of existing
        neighbors inside the element's interval, so containment holds
        by construction). This is the per-site counterpart of a
        whole-tree :meth:`sync` — the in-place applier calls it once per
        run of inserted nodes.
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
        self._walk(nodes, codes)
