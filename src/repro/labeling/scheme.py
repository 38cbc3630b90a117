"""The containment labeling scheme: construction and update-tolerant
maintenance.

A :class:`ContainmentLabeling` instance owns the containment codes of
one document's nodes, and the document it labels. Building it
bulk-assigns balanced codes; after the document is updated,
:meth:`sync` assigns codes to the *new* nodes only, generated between
the surviving neighbor codes — existing codes are never modified,
which is the update-tolerance property the paper requires (Section 4.1:
"document updates should not lead to relabeling of nodes").

A labeling is an id table (:mod:`repro.xdm.idtable`) of two code
columns, ``_starts`` and ``_ends``: each code is the integer of its
digits in the encoder's base, padded on the right to the labeling's
width ``W`` (the encoder's ``to_int``). No code ends in ``0``, so the
padding is one-to-one, keeps the order, and never gives 0 — the
columns' blank. Codes of one width compare as their digit strings do,
whichever column they come from: a node's start code is its order key
(start codes are unique, and their order is document order), and a
node ``d`` lies strictly inside ``a`` iff ``a.start < d.start <
a.end``. The width starts at the digits of :data:`WIDTH` bits, so the
columns are ``array('Q')``, 8 bytes a slot; a longer code widens the
labeling (doubling) and rescales every code once, and the columns
become lists of ints. A :meth:`build` starts over at the first width,
so the width is a function of :attr:`max_code_length`. A caller that
relabels the whole document once a code passes its budget passes the
budget to :meth:`sync` and :meth:`assign_runs`, which then install no
code past it, and so never widen for codes the relabel replaces.

Digits appear only at the edges. Codes are generated as digit strings
and each new code is converted once, when it is installed; a label
goes back to digits (:meth:`digits`) when it travels in a PUL. A
durability payload carries the integers themselves, column by column
(:meth:`code_columns` out, :meth:`restored` in). The rest of the
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

from array import array
from types import MappingProxyType

from repro.errors import LabelingError
from repro.labeling.codes import CDBSEncoder
from repro.labeling.containment import ExtendedLabel
from repro.xdm import idtable
from repro.xdm.navigation import adjacent_siblings, depth
from repro.xdm.node import NodeType

_ELEMENT = NodeType.ELEMENT

#: the bits of a code column's slot: a labeling whose width fits them
#: keeps its codes in ``array('Q')`` columns (the store's default
#: headroom budget is this many CDBS digits)
WIDTH = 64

#: the code columns' blanks: no code is 0
_BLANKS = (0, 0)


def _width_for(length, bits):
    """The width, in digits of ``bits`` bits, that holds a code of
    ``length`` digits: the digits of :data:`WIDTH` bits, doubled until
    it does."""
    width = WIDTH // bits
    while width < length:
        width *= 2
    return width


class ContainmentLabeling:
    """Zhang containment codes, CDBS or CDQS, for one document."""

    def __init__(self, encoder=None):
        self.encoder = encoder or CDBSEncoder()
        #: bits per digit
        self._bits = self.encoder.base.bit_length() - 1
        self._reset(0)
        #: the document the codes label (set by build, sync, restored
        #: and the in-place applier; carried by copy)
        self.document = None

    def _columns(self, length):
        """Two blank code columns of ``length`` slots, of the kind the
        width takes: ``array('Q')`` while a code fits its 64 bits."""
        if self._width * self._bits <= WIDTH:
            blank = bytes(8 * length)
            return array("Q", blank), array("Q", blank)
        return [0] * length, [0] * length

    def _reset(self, length):
        """No labels, at the first width, over ``length`` blank slots."""
        self._max_code_len = 0
        self._width = WIDTH // self._bits
        self._starts, self._ends = self._columns(length)
        #: far ids: id -> (start, end)
        self._far = {}
        #: how many ids hold a label
        self._count = 0

    # -- lookup -------------------------------------------------------------

    def __contains__(self, node_id):
        return self.start_of(node_id) is not None

    def __len__(self):
        return self._count

    def start_of(self, node_id):
        """The start code of ``node_id``, its order key, or ``None``."""
        try:
            if node_id >= 0:
                return self._starts[node_id] or None
        except (IndexError, TypeError):
            pass
        label = self._far.get(node_id)
        return None if label is None else label[0]

    def find(self, node_id):
        """Return the ``(start, end)`` codes of ``node_id``, as
        integers, or ``None``."""
        try:
            if node_id >= 0:
                start = self._starts[node_id]
                return (start, self._ends[node_id]) if start else None
        except (IndexError, TypeError):
            pass
        return self._far.get(node_id)

    def label_of(self, node_id):
        """Return the ``(start, end)`` codes of ``node_id`` as integers;
        a tuple of two orders by its start code."""
        label = self.find(node_id)
        if label is None:
            raise LabelingError("no label for node id {!r}".format(node_id))
        return label

    def order_key(self):
        """A function from an id that holds a label to its start code,
        the id's order key: the column's own ``__getitem__`` when no id
        is far, so a sort or a sweep reads each code in C, once."""
        if self._far:
            return self._far_start
        return self._starts.__getitem__

    def _far_start(self, node_id):
        return self.label_of(node_id)[0]

    def as_mapping(self):
        """A read-only id -> ``(start, end)`` map of the labels as they
        are now (for tests and tools: the columns hold no map)."""
        return MappingProxyType(
            {node_id: self.label_of(node_id)
             for node_id in idtable.ids_of(self._starts, self._far)})

    def digits(self, node_id):
        """The ``(start, end)`` digit strings of ``node_id``: the form
        codes travel in as exchange labels."""
        start, end = self.label_of(node_id)
        to_digits, width = self.encoder.to_digits, self._width
        return (to_digits(start, width).rstrip("0"),
                to_digits(end, width).rstrip("0"))

    def code_columns(self, span):
        """The labels as a payload carries them: ``(starts, ends,
        far)``, the start and end codes of the ids ``0 .. span - 1`` as
        two lists of ``span`` ints (0 where an id holds no label), read
        off the columns in C, and an ``id -> (start, end)`` dict of
        every other id's."""
        starts, ends = self._starts[:span], self._ends[:span]
        if type(starts) is array:
            starts, ends = starts.tolist(), ends.tolist()
        if len(starts) < span:
            blanks = [0] * (span - len(starts))
            starts += blanks
            ends += blanks
        far = {}
        for node_id, (start, end) in self._far.items():
            if type(node_id) is int and 0 <= node_id < span:
                starts[node_id], ends[node_id] = start, end
            else:
                far[node_id] = (start, end)
        return starts, ends, far

    def exchange_label(self, node_id):
        """The :class:`~repro.labeling.containment.ExtendedLabel` of
        ``node_id`` as it travels in a PUL: its codes, and its node
        type, level, parent and sibling ids read off the labeled
        document."""
        start, end = self.digits(node_id)
        document = self.document
        node = document.get(node_id)
        left, right = adjacent_siblings(document, node)
        return ExtendedLabel(
            node_id, node.node_type, start, end, depth(document, node),
            document.parent_id(node_id),
            None if left is None else left.node_id,
            None if right is None else right.node_id)

    def code_bytes(self):
        """What the code columns and their overflow dict take
        (:func:`repro.xdm.idtable.table_bytes`; O(1))."""
        return idtable.table_bytes((self._starts, self._ends), self._far)

    def copy(self):
        """A copy with its own code columns, over the same document.

        A copy needs only its own columns — two C-level slices — and
        overflow dict, width and watermark: an MVCC working copy of a
        labeled document costs no code re-derivation. The writer
        points the copy at its working tree when it applies a batch
        (:func:`repro.apply.inplace.apply_batch_in_place`).
        """
        clone = ContainmentLabeling(encoder=self.encoder)
        clone._max_code_len = self._max_code_len
        clone._width = self._width
        clone._starts = self._starts[:]
        clone._ends = self._ends[:]
        clone._far = dict(self._far)
        clone._count = self._count
        clone.document = self.document
        return clone

    def _place(self, node_id, start, end):
        """Label ``node_id``, which holds no label, with codes ``start``
        and ``end`` by the id table's rule."""
        self._count += 1
        idtable.place((self._starts, self._ends), _BLANKS, self._far,
                      self._count, node_id, (start, end))

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
                self._widen(_width_for(longest, self._bits))

    def _widen(self, width):
        """Rescale every code to ``width`` digits: each gains ``width -
        W`` zero digits on the right, so order is kept, and the columns
        become lists (a code no longer fits 64 bits)."""
        factor = self.encoder.base ** (width - self._width)
        self._starts = [start * factor for start in self._starts]
        self._ends = [end * factor for end in self._ends]
        self._far = {node_id: (start * factor, end * factor)
                     for node_id, (start, end) in self._far.items()}
        self._width = width

    def _over(self, longest, budget):
        """Whether codes as long as ``longest`` break ``budget``. If
        so, the labeling takes the watermark and the caller installs
        nothing: it relabels the whole document next (the store's
        headroom rule), so no width changes for codes never
        installed."""
        if budget is None or longest <= budget:
            return False
        self._max_code_len = max(self._max_code_len, longest)
        return True

    @classmethod
    def restored(cls, starts, ends, far, max_code_length, document=None):
        """A labeling over the code columns a durability payload
        carries (:meth:`code_columns`) — ``starts`` and ``ends``, lists
        of ints, slot ``i`` holding id ``i``'s codes or 0, and ``far``,
        an ``id -> (start, end)`` dict of ids past them — with the
        watermark the payload recorded. The codes are read as CDBS at
        the width the watermark gives, so each must be an int (no
        ``bool``) below ``2 ** W``; anything else, columns of unequal
        length, or a far code of 0, is a ``ValueError``. The columns
        become ``array('Q')`` while the width fits one, as
        :meth:`_columns` makes them. ``document`` is the document they
        label (a restore that builds the tree from these codes sets it
        afterwards).

        The watermark is restored verbatim, not recomputed: the tracker
        is monotone between rebuilds, so it may exceed the longest code
        currently installed, and recomputing it from the labels would
        under-read the spent headroom. It also gives the width, as it
        does in the labeling that recorded it.
        """
        labeling = cls()
        labeling.document = document
        labeling._max_code_len = max_code_length
        labeling._width = _width_for(max_code_length, labeling._bits)
        limit = labeling.encoder.base ** labeling._width
        far = dict(far)
        for column in (starts, ends, [code for pair in far.values()
                                      for code in pair]):
            if type(column) is not list or \
                    not set(map(type, column)) <= {int}:
                raise ValueError("a code column holds a value that is "
                                 "no integer")
            if column and not (0 <= min(column) and max(column) < limit):
                raise ValueError("a code is out of the range of {} "
                                 "digits".format(labeling._width))
        if len(starts) != len(ends):
            raise ValueError("code columns of {} and {} slots".format(
                len(starts), len(ends)))
        for node_id, (start, end) in far.items():
            if not (start and end):
                raise ValueError("far id {!r} holds a blank code".format(
                    node_id))
        if labeling._width * labeling._bits <= WIDTH:
            starts, ends = array("Q", starts), array("Q", ends)
        else:
            starts, ends = starts[:], ends[:]
        labeling._starts, labeling._ends = starts, ends
        labeling._far = far
        labeling._count = len(starts) - starts.count(0) + len(far)
        return labeling

    # -- construction --------------------------------------------------------

    def build(self, document):
        """Label every node of ``document`` with balanced fresh codes."""
        self.document = document
        self._reset(document.span)
        root = document.root
        if root is None:
            return self
        codes = self.encoder.initial_codes(2 * len(document))
        self._track(max(map(len, codes)))
        self._walk([root], codes)
        return self

    def sync(self, document, budget=None):
        """Incrementally label the nodes of ``document`` lacking a label.

        Existing labels keep their codes; runs of unlabeled boundary slots
        receive codes generated strictly between the neighboring existing
        codes. Labels of nodes no longer in the document are dropped.
        Fresh codes longer than ``budget`` digits are not installed
        (:meth:`_over`).
        """
        self.document = document
        root = document.root
        if root is None:
            self._reset(0)
            return self
        known, live = self._known_codes(root)
        for node_id in idtable.ids_of(self._starts, self._far):
            if node_id not in live:
                self.forget(node_id)
        longest = self._fill_codes(known)
        if self._over(longest, budget):
            return self
        self._track(longest)
        self._walk([root], known)
        return self

    def _known_codes(self, root):
        """``(codes, live)``: the existing code of every boundary slot
        under ``root`` in document order, as an integer (``None`` where
        the node has no label; attributes contribute both boundaries
        right after their owner's start), and the set of the ids of the
        nodes walked."""
        find = self.find
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
            start, end = find(node.node_id) or unlabeled
            codes.append(start)
            if node.node_type is not _ELEMENT:
                codes.append(end)
                continue
            for attr in node.attributes:
                live.add(attr.node_id)
                codes += find(attr.node_id) or unlabeled
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
        without a label gets its two codes, digit strings converted
        here; a node that has one keeps it (its slots in ``codes`` are
        not read).
        """
        document = self.document
        if document is not None and document.span > len(self._starts):
            # the document's columns cover its near ids: so do these
            idtable.grow((self._starts, self._ends), _BLANKS, self._far,
                         document.span)
        starts, ends = self._starts, self._ends
        span = len(starts)
        width = self._width
        to_int = self.encoder.to_int
        installed = 0
        position = 0
        # (node, None) to enter a node; (element, its start code) to
        # close it after its children; ``beyond`` holds ``(id, start,
        # end)`` of the nodes whose ids the columns do not cover, to be
        # placed after the walk
        stack = [(tree, None) for tree in reversed(trees)]
        pop, push = stack.pop, stack.append
        beyond = []
        while stack:
            node, start = pop()
            if start is None:
                start = codes[position]
                position += 1
                if node.node_type is _ELEMENT:
                    for attr in node.attributes:
                        node_id = attr.node_id
                        if type(node_id) is int and 0 <= node_id < span:
                            if not starts[node_id]:
                                starts[node_id] = to_int(codes[position],
                                                         width)
                                ends[node_id] = to_int(codes[position + 1],
                                                       width)
                                installed += 1
                        else:
                            beyond.append((node_id, codes[position],
                                           codes[position + 1]))
                        position += 2
                    children = node.children
                    if children:
                        push((node, start))
                        for index in range(len(children) - 1, -1, -1):
                            push((children[index], None))
                        continue
            node_id = node.node_id
            if type(node_id) is int and 0 <= node_id < span:
                if not starts[node_id]:
                    starts[node_id] = to_int(start, width)
                    ends[node_id] = to_int(codes[position], width)
                    installed += 1
            else:
                beyond.append((node_id, start, codes[position]))
            position += 1
        if position != len(codes):
            raise LabelingError("{} codes for {} boundaries".format(
                len(codes), position))
        self._count += installed
        for node_id, start, end in beyond:
            if self.find(node_id) is None:
                self._place(node_id, to_int(start, width),
                            to_int(end, width))

    # -- per-site maintenance (used by the in-place batch applier) ----------

    def forget(self, node_id):
        """Forget one node's label (a node the batch removed)."""
        if self.find(node_id) is not None:
            self._count -= 1
            idtable.remove((self._starts, self._ends), _BLANKS, self._far,
                           node_id)

    def assign_runs(self, runs, budget=None):
        """Label runs of freshly inserted *attached* subtrees.

        Each run is ``(left, right, nodes)``: ``nodes`` are consecutive
        unlabeled attributes and/or children of one labeled element,
        already attached and with node ids assigned; their subtree
        boundaries receive codes strictly between ``left`` and
        ``right``, integer codes of existing neighbors inside the
        element's interval (so containment holds by construction). This
        is the per-site counterpart of a whole-tree :meth:`sync` — the
        in-place applier calls it once per batch. Every run's two
        bounds go back to digits before any code is installed, so a run
        whose codes widen the labeling leaves the other runs' bounds
        valid. Fresh codes longer than ``budget`` digits are not
        installed at all (:meth:`_over`).
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
        if self._over(longest, budget):
            return
        self._track(longest)
        for nodes, codes in work:
            self._walk(nodes, codes)
