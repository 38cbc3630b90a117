"""The containment labeling scheme: construction and update-tolerant
maintenance.

A :class:`ContainmentLabeling` instance owns the ``node id -> label``
map of one document, and the document it labels. Building it
bulk-assigns balanced codes; after the document is updated,
:meth:`sync` assigns codes to the *new* nodes only, generated between
the surviving neighbor codes — existing codes are never modified,
which is the update-tolerance property the paper requires (Section 4.1:
"document updates should not lead to relabeling of nodes").

A resident label is one integer, ``start · base^W + end``: each code
is the integer of its digits in the encoder's base, padded on the
right to the labeling's width ``W`` (the encoder's ``to_int``).
No code ends in ``0``, so the padding is one-to-one and keeps the
order, and since start codes are unique, label order is start-code
order — document order. The width starts at :data:`WIDTH` digits; a
longer code widens the labeling (doubling) and rescales every label
once, and a :meth:`build` starts over at :data:`WIDTH`, so the width is
a function of :attr:`max_code_length`. Only this module knows the
packing: readers order labels as integers and take their parts through
:meth:`interval`, :meth:`after` and :meth:`digits`.

Digits appear only at the edges. Codes are generated as digit strings
and each new code is converted once, when it is installed; a label
goes back to digits (:meth:`digits`) when it travels. The rest of the
paper's extended label — node type, level, parent and sibling ids — is
what the tree says it is, so it is not kept beside it:
:meth:`exchange_label` reads it off the labeled document when a label
travels (attached to a PUL, written to the log or the wire).

Every code is assigned by one walk over the tree (:meth:`_walk`), shared
by :meth:`build`, :meth:`sync` and :meth:`assign_runs`: given the
boundary codes of the trees it labels, in document order, it gives each
unlabeled node its label. The three differ only in where the codes come
from: the encoder's balanced ``initial_codes`` for a build, the
surviving codes with fresh ``codes_between`` runs in their gaps for a
sync, one ``codes_between`` run per run of inserted subtrees.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.errors import LabelingError
from repro.labeling.codes import CDBSEncoder
from repro.labeling.containment import ExtendedLabel
from repro.xdm.navigation import depth, left_sibling, right_sibling
from repro.xdm.node import NodeType

_ELEMENT = NodeType.ELEMENT

#: the width, in digits, labels are packed at until a longer code is
#: installed (the store's default headroom budget)
WIDTH = 64


def _width_for(length):
    """The width that holds a code of ``length`` digits: :data:`WIDTH`,
    doubled until it does."""
    width = WIDTH
    while width < length:
        width *= 2
    return width


class ContainmentLabeling:
    """Zhang containment codes, CDBS or CDQS, for one document."""

    def __init__(self, encoder=None):
        self.encoder = encoder or CDBSEncoder()
        self._labels = {}
        self._max_code_len = 0
        self._set_width(WIDTH)
        #: the document the codes label (set by build, sync, restored
        #: and the in-place applier; carried by copy)
        self.document = None

    def _set_width(self, width):
        self._width = width
        #: ``base ** width``: a label is ``start * scale | end`` (an
        #: ``|``, not a ``+``, makes an int of exactly its size)
        self._scale = self.encoder.base ** width

    # -- lookup -------------------------------------------------------------

    def __contains__(self, node_id):
        return node_id in self._labels

    def __len__(self):
        return len(self._labels)

    def label_of(self, node_id):
        """Return the label of ``node_id``: one integer, ordered by the
        node's start code."""
        try:
            return self._labels[node_id]
        except KeyError:
            raise LabelingError(
                "no label for node id {!r}".format(node_id)) from None

    def find(self, node_id):
        """Return the label of ``node_id`` or ``None``."""
        return self._labels.get(node_id)

    def as_mapping(self):
        """Read-only view of the id -> label map."""
        return MappingProxyType(self._labels)

    def interval(self, label):
        """``(start, end)`` of ``label`` as integers: codes of one
        labeling compare as their digit strings do, whichever half of
        a label they come from (the in-place applier's run bounds)."""
        return divmod(label, self._scale)

    def after(self, label):
        """The least label past ``label``'s interval: a label ``d`` lies
        strictly inside ``a``'s interval iff ``a < d < after(a)`` —
        its start code falls between ``a``'s codes, and intervals nest
        or are disjoint."""
        return label % self._scale * self._scale

    def digits(self, node_id):
        """The ``(start, end)`` digit strings of ``node_id``: the form
        codes travel in (exchange labels, snapshot rows)."""
        width = self._width
        padded = self.encoder.to_digits(self.label_of(node_id), 2 * width)
        return padded[:width].rstrip("0"), padded[width:].rstrip("0")

    def exchange_label(self, node_id):
        """The :class:`~repro.labeling.containment.ExtendedLabel` of
        ``node_id`` as it travels in a PUL: its codes, and its node
        type, level, parent and sibling ids read off the labeled
        document."""
        start, end = self.digits(node_id)
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
        """A copy with its own label map, over the same document.

        Labels are immutable integers, so a copy only needs its own
        map, width and watermark: an MVCC working copy of a labeled
        document costs one O(nodes) dict duplication, no code
        re-derivation. The writer points the copy at its working tree
        when it applies a batch
        (:func:`repro.apply.inplace.apply_batch_in_place`).
        """
        clone = ContainmentLabeling(encoder=self.encoder)
        clone._labels = dict(self._labels)
        clone._max_code_len = self._max_code_len
        clone._set_width(self._width)
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

    def _track(self, longest):
        """Raise the watermark to ``longest``, the length of the longest
        code about to be installed, widening the labeling when that
        code does not fit its width."""
        if longest > self._max_code_len:
            self._max_code_len = longest
            if longest > self._width:
                self._widen(_width_for(longest))

    def _widen(self, width):
        """Pack every label at ``width`` digits: each code gains
        ``width - W`` zero digits on the right, so order is kept."""
        factor = self.encoder.base ** (width - self._width)
        scale = self._scale
        wide = scale * factor
        labels = self._labels
        for node_id, label in labels.items():
            start, end = divmod(label, scale)
            labels[node_id] = start * factor * wide | end * factor
        self._set_width(width)

    @classmethod
    def restored(cls, document, codes, max_code_length):
        """A labeling of ``document`` over ``codes`` (an ``id ->
        (start, end)`` dict of digit strings) with the watermark a
        durability snapshot recorded. A code ending in ``0`` is a
        :class:`LabelingError`; an empty one, or one longer than the
        width the watermark gives, a ``ValueError``.

        The watermark is restored verbatim, not recomputed: the tracker
        is monotone between rebuilds, so it may exceed the longest code
        currently installed, and recomputing it from the labels would
        under-read the spent headroom. It also gives the width, as it
        does in the labeling that recorded it.
        """
        labeling = cls()
        labeling.document = document
        labeling._max_code_len = max_code_length
        labeling._set_width(_width_for(max_code_length))
        width, scale = labeling._width, labeling._scale
        to_int = labeling.encoder.to_int
        labels = labeling._labels
        for node_id, (start, end) in codes.items():
            # an empty code, or one past the width, fails to convert
            labels[node_id] = (to_int(start, width) * scale
                               | to_int(end, width))
            if start[-1] == "0" or end[-1] == "0":
                raise LabelingError("malformed codes of node {}: {!r}, "
                                    "{!r}".format(node_id, start, end))
        return labeling

    # -- construction --------------------------------------------------------

    def build(self, document):
        """Label every node of ``document`` with balanced fresh codes."""
        self.document = document
        self._labels = {}
        self._max_code_len = 0
        self._set_width(WIDTH)
        root = document.root
        if root is None:
            return self
        codes = self.encoder.initial_codes(2 * len(document))
        self._track(max(map(len, codes)))
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
            self._set_width(WIDTH)
            return self
        known, live = self._known_codes(root)
        for node_id in list(self._labels):
            if node_id not in live:
                del self._labels[node_id]
        self._track(self._fill_codes(known))
        self._walk([root], known)
        return self

    def _known_codes(self, root):
        """``(codes, live)``: the existing code of every boundary slot
        under ``root`` in document order, as an integer (``None`` where
        the node has no label; attributes contribute both boundaries
        right after their owner's start), and the set of the ids of the
        nodes walked."""
        get = self._labels.get
        split = self.interval
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
            label = get(node.node_id)
            start, end = unlabeled if label is None else split(label)
            codes.append(start)
            if node.node_type is not _ELEMENT:
                codes.append(end)
                continue
            for attr in node.attributes:
                live.add(attr.node_id)
                label = get(attr.node_id)
                codes += unlabeled if label is None else split(label)
            stack.append((None, end))
            stack.extend((child, None) for child in reversed(node.children))
        return codes, live

    def _fill_codes(self, codes):
        """Complete the boundary codes ``codes`` in place: each run of
        ``None`` receives fresh digit strings strictly between its
        neighbors. Returns the length of the longest fresh code."""
        longest = 0
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
            fresh = self.encoder.codes_between(
                self._code_digits(left), self._code_digits(right),
                index - run_start)
            longest = max(longest, max(map(len, fresh)))
            codes[run_start:index] = fresh
        return longest

    def _code_digits(self, code):
        """The digit string of one code given as an integer of
        :meth:`interval`; ``None`` (an open end) stays ``None``."""
        if code is None:
            return None
        return self.encoder.to_digits(code, self._width).rstrip("0")

    def _walk(self, trees, codes):
        """Label the ``trees`` — the one labeling walk of :meth:`build`,
        :meth:`sync` and :meth:`assign_runs`.

        ``trees`` are subtree roots in document order; ``codes`` are
        their boundary codes in document order (attributes contribute
        both boundaries right after their owner's start). Each node
        without a label gets its label from its two codes, digit
        strings converted here; a node that has one keeps it (its
        slots in ``codes`` are not read).
        """
        labels = self._labels
        width, scale = self._width, self._scale
        to_int = self.encoder.to_int
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
                            labels[attr.node_id] = (
                                to_int(codes[position], width) * scale
                                | to_int(codes[position + 1], width))
                        position += 2
                    children = node.children
                    if children:
                        push((node, start))
                        for index in range(len(children) - 1, -1, -1):
                            push((children[index], None))
                        continue
            if node.node_id not in labels:
                labels[node.node_id] = (to_int(start, width) * scale
                                        | to_int(codes[position], width))
            position += 1
        if position != len(codes):
            raise LabelingError("{} codes for {} boundaries".format(
                len(codes), position))

    # -- per-site maintenance (used by the in-place batch applier) ----------

    def forget(self, node_id):
        """Forget one node's label (a node the batch removed)."""
        self._labels.pop(node_id, None)

    def assign_runs(self, runs):
        """Label runs of freshly inserted *attached* subtrees.

        Each run is ``(left, right, nodes)``: ``nodes`` are consecutive
        unlabeled attributes and/or children of one labeled element,
        already attached and with node ids assigned; their subtree
        boundaries receive codes strictly between ``left`` and
        ``right``, codes of existing neighbors inside the element's
        interval as :meth:`interval` gives them (so containment holds
        by construction). This is the per-site counterpart of a
        whole-tree :meth:`sync` — the in-place applier calls it once
        per batch. Every run's two bounds go back to digits before any
        code is installed, so a run whose codes widen the labeling
        leaves the other runs' bounds valid.
        """
        work = []
        longest = 0
        for left, right, nodes in runs:
            count = 0
            for node in nodes:
                for __ in node.iter_subtree():
                    count += 1
            if not count:
                continue
            codes = self.encoder.codes_between(
                self._code_digits(left), self._code_digits(right),
                2 * count)
            longest = max(longest, max(map(len, codes)))
            work.append((nodes, codes))
        self._track(longest)
        for nodes, codes in work:
            self._walk(nodes, codes)
