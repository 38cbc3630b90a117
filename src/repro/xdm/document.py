"""The document abstraction: ``D = (V, gamma, lambda, nu)``.

A :class:`Document` owns a tree of :class:`~repro.xdm.node.Node` objects and
maintains the properties the paper requires of node identity (Section 4.1):

* every node carries a unique integer identifier;
* identifiers are immutable and never reused — deleting a node does not
  recycle its id;
* identifiers can be allocated from disjoint *identifier spaces* so that
  independent producers never clash (``IdAllocator`` with a stride).
"""

from __future__ import annotations

from repro.errors import DocumentError, UnknownNodeError
from repro.xdm import idtable

#: the id table's blanks, no node and no parent: also what the table
#: answers for an id it does not hold
_BLANKS = (None, None)


class IdAllocator:
    """Allocates unique, never-reused node identifiers.

    ``IdAllocator(start=k, stride=n)`` yields ``k, k+n, k+2n, ...`` which
    realizes the paper's "each producer has an assigned identification
    space" scheme: producer ``i`` of ``n`` uses ``start=i, stride=n``.
    """

    def __init__(self, start=0, stride=1):
        if stride < 1:
            raise DocumentError("stride must be positive")
        self._next = start
        self._stride = stride

    def allocate(self):
        """Return a fresh identifier."""
        value = self._next
        self._next += self._stride
        return value

    def reserve_at_least(self, floor):
        """Ensure no identifier below ``floor`` is handed out anymore."""
        if self._next >= floor:
            return
        steps = -(-(floor - self._next) // self._stride)
        self._next += steps * self._stride

    @property
    def next_value(self):
        return self._next

    @property
    def stride(self):
        return self._stride


class Document:
    """A rooted XML document with identified nodes.

    The index ``V`` (:meth:`find`) gives O(1) access from identifiers to
    nodes, and the parent map (:meth:`parent_id`) gives each node's
    parent id (``None`` for the root): the tree points downwards only,
    so where a node hangs is the document's to answer. Both are one id
    table (:mod:`repro.xdm.idtable`): the column ``_nodes`` holds the
    node of each id, ``None`` in a slot no node holds, and ``_parents``
    the parent's id — the parent's own ``node_id`` int, so the column
    allocates none. An id the columns do not cover lives in ``_far``,
    ``id -> (node, parent id)``. The table is filled by the same walks
    that build the tree — the parser's, :meth:`register_tree`'s and
    :meth:`rebuild_index`'s — and kept by :meth:`forget_ids`.

    A :meth:`path_copy` slices both columns, copies the overflow dict
    and writes its copied nodes into its own slots. Ids are stable, so
    copying a node changes no parent entry, and the document copied
    from keeps its table as it was: a document whose copy was published
    still answers for its own tree, from its own columns.
    """

    def __init__(self, root=None, allocator=None):
        self._allocator = allocator or IdAllocator()
        self._nodes = []
        self._parents = []
        self._far = {}
        #: how many ids the table holds
        self._count = 0
        self.root = None
        if root is not None:
            self.set_root(root)

    # -- identity ----------------------------------------------------------

    @property
    def allocator(self):
        return self._allocator

    def fresh_id(self):
        """Allocate an identifier unused by this document (and never reused)."""
        while True:
            candidate = self._allocator.allocate()
            if candidate not in self:
                return candidate

    # -- node access -------------------------------------------------------

    def __contains__(self, node_id):
        return self.find(node_id) is not None

    def __len__(self):
        return self._count

    def get(self, node_id):
        """Return the node with ``node_id`` or raise UnknownNodeError."""
        node = self.find(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        return node

    def find(self, node_id):
        """Return the node with ``node_id`` or ``None``."""
        try:
            if node_id >= 0:
                return self._nodes[node_id]
        except (IndexError, TypeError):
            pass
        return self._far.get(node_id, _BLANKS)[0]

    def parent_id(self, node_id):
        """The id of the parent of the node ``node_id``: ``None`` for the
        root and for an id the document does not hold."""
        try:
            if node_id >= 0:
                return self._parents[node_id]
        except (IndexError, TypeError):
            pass
        return self._far.get(node_id, _BLANKS)[1]

    def parent(self, node):
        """The parent of ``node`` in this document, or ``None`` for the
        root (and for a node the document does not hold)."""
        parent_id = self.parent_id(node.node_id)
        return None if parent_id is None else self.find(parent_id)

    def nodes_of(self, node_ids):
        """The nodes of ``node_ids``, ids the document holds, in order:
        read off the column in C when no id is far."""
        if self._far:
            return map(self.get, node_ids)
        return map(self._nodes.__getitem__, node_ids)

    def parents_of(self, node_ids):
        """The parent ids of ``node_ids``, ids the document holds, in
        order (as :meth:`nodes_of` reads them)."""
        if self._far:
            return map(self.parent_id, node_ids)
        return map(self._parents.__getitem__, node_ids)

    def node_ids(self):
        """Return a list of all live node ids: the columns' in id
        order, then the far ones."""
        return idtable.ids_of(self._nodes, self._far)

    def nodes(self):
        """Iterate over all live nodes in document order."""
        if self.root is None:
            return iter(())
        return self.root.iter_subtree()

    @property
    def span(self):
        """The slots of the id table's columns: the ids ``0 .. span -
        1`` are the ones they cover (a labeling of the document sizes
        its code columns by it)."""
        return len(self._nodes)

    def table(self):
        """The id table as it stands, for a reader that takes it whole
        (a durability payload): the node column, ``None`` in a slot no
        node holds, and the overflow dict, ``id -> (node, parent
        id)``. Neither is a copy, and neither is to be written to."""
        return self._nodes, self._far

    def table_bytes(self):
        """What the id table takes: its two columns and its overflow
        dict (:func:`repro.xdm.idtable.table_bytes`; O(1))."""
        return idtable.table_bytes((self._nodes, self._parents), self._far)

    # -- construction ------------------------------------------------------

    def set_root(self, root):
        """Install ``root`` (a detached element) as the document root,
        registering its whole subtree (assigning ids where missing)."""
        if self.root is not None:
            raise DocumentError("document already has a root")
        if not root.is_element:
            raise DocumentError("document root must be an element")
        self.root = root
        self.register_tree(root)
        return root

    @classmethod
    def indexed(cls, root, nodes, parents, far, count, allocator):
        """A document over the detached element ``root`` whose id table
        the caller already built by :mod:`repro.xdm.idtable`'s rule:
        the columns ``nodes`` and ``parents`` and the overflow dict
        ``far`` hold the ``count`` ids of the tree, and nothing else.
        The parser numbers the nodes and a durability restore checks
        their ids as each builds the tree, so both skip
        :meth:`register_tree`'s walk."""
        document = cls(allocator=allocator)
        document.root = root
        document._nodes = nodes
        document._parents = parents
        document._far = far
        document._count = count
        return document

    @classmethod
    def numbered(cls, root, ids, nodes, parents, allocator):
        """:meth:`indexed` over a tree whose nodes hold the distinct
        ``ids``, in the order of ``nodes`` and of ``parents``, their
        parents' ids (laid out by :func:`repro.xdm.idtable.lay_out`)."""
        (nodes, parents), far = idtable.lay_out(_BLANKS, ids,
                                                (nodes, parents))
        return cls.indexed(root, nodes, parents, far, len(ids), allocator)

    def _enter(self, node_id, node, parent_id):
        """Enter ``node`` under ``node_id``, below the node
        ``parent_id``."""
        nodes = self._nodes
        if type(node_id) is int and 0 <= node_id < len(nodes):
            if nodes[node_id] is None:
                self._count += 1
            nodes[node_id] = node
            self._parents[node_id] = parent_id
            return
        if self.find(node_id) is None:
            self._count += 1
        idtable.place((nodes, self._parents), _BLANKS, self._far,
                      self._count, node_id, (node, parent_id))

    def register_tree(self, root, parent=None):
        """Register every node of ``root``'s subtree in the id index and
        the parent map, ``root`` below ``parent`` (``None``: ``root`` is
        the document root), allocating identifiers for nodes lacking
        one."""
        highest = -1
        for node, above in root.iter_with_parents(parent):
            node_id = node.node_id
            if node_id is None:
                node_id = node.node_id = self.fresh_id()
            elif self.find(node_id) not in (None, node):
                raise DocumentError("duplicate node id: {}".format(node_id))
            self._enter(node_id, node,
                        None if above is None else above.node_id)
            if isinstance(node_id, int) and node_id > highest:
                highest = node_id
        self._allocator.reserve_at_least(highest + 1)

    def forget_ids(self, node_ids):
        """Drop ``node_ids`` from the id index and the parent map
        (identifiers stay burned).

        The incremental counterpart of :meth:`rebuild_index` for removed
        subtrees whose nodes the caller enumerated before detaching them
        (the in-place batch applier works this way)."""
        columns, far = (self._nodes, self._parents), self._far
        for node_id in node_ids:
            if self.find(node_id) is not None:
                self._count -= 1
                idtable.remove(columns, _BLANKS, far, node_id)

    def rebuild_index(self):
        """Re-derive the id index and the parent map from the live tree.

        Used after bulk structural edits performed directly on nodes (the
        PUL evaluator works this way): unreachable nodes are dropped from
        the index (their ids stay burned) and nodes without an identifier
        receive fresh ones **in document order**, which makes id assignment
        deterministic and identical across evaluators.
        """
        self._nodes, self._parents, self._far = [], [], {}
        self._count = 0
        if self.root is None:
            return
        ids, nodes, parents = [], [], []
        highest = -1
        for node, parent in self.root.iter_with_parents():
            node_id = node.node_id
            if node_id is not None and node_id > highest:
                highest = node_id
            ids.append(node_id)
            nodes.append(node)
            parents.append(parent)
        if len(set(ids)) != len(ids):
            seen = set()
            for node_id in ids:
                if node_id is not None and node_id in seen:
                    raise DocumentError(
                        "duplicate node id: {}".format(node_id))
                seen.add(node_id)
        self._allocator.reserve_at_least(highest + 1)
        for position, node in enumerate(nodes):
            if node.node_id is None:
                node.node_id = ids[position] = self._allocator.allocate()
        parents = [None if parent is None else parent.node_id
                   for parent in parents]
        (self._nodes, self._parents), self._far = idtable.lay_out(
            _BLANKS, ids, (nodes, parents))
        self._count = len(ids)

    # -- copying -----------------------------------------------------------

    def copy(self):
        """Deep copy of the document preserving node ids and the allocator
        position *and stride* (so the copy keeps allocating exactly the
        identifiers the original would have — a strided producer's copy
        must not collapse into another producer's id space)."""
        clone = Document(allocator=IdAllocator(
            start=self._allocator.next_value,
            stride=self._allocator.stride))
        if self.root is not None:
            clone.set_root(self.root.deep_copy(keep_ids=True))
        return clone

    def path_copy(self, node_ids):
        """A document that shares this one's tree except on the paths
        from the root to ``node_ids``.

        Every node on those paths is copied shallowly (same id, name and
        value) and gets its own child and attribute lists (a node with
        none keeps the shared ``()``), in which the copied children
        replace their originals; every other node is
        shared with this document, which is left as it was. The copy
        has its own id table — this one's columns sliced, the copies in
        their slots — and an allocator at the same position and stride.
        So the copy may be edited anywhere on those paths while this
        tree keeps its lists, names, values and table."""
        find, parent_id = self.find, self.parent_id
        originals = {}  # id -> (node, its parent's id)
        for node_id in node_ids:
            while node_id is not None and node_id not in originals:
                node = find(node_id)
                if node is None:
                    break
                above = parent_id(node_id)
                originals[node_id] = (node, above)
                node_id = above
        copies = {}
        for node_id, (node, __) in originals.items():
            copy = copies[node_id] = node.shallow_copy()
            # slices: lists of exactly their size, and ``()`` stays
            if node.children:
                copy.children = node.children[:]
            if node.attributes:
                copy.attributes = node.attributes[:]
        for node_id, (node, above) in originals.items():
            parent = copies.get(above)
            if parent is not None:
                siblings = (parent.attributes if node.is_attribute
                            else parent.children)
                siblings[siblings.index(node)] = copies[node_id]
        root = self.root
        if root is not None:
            root = copies.get(root.node_id, root)
        clone = Document.indexed(
            root, self._nodes[:], self._parents[:], dict(self._far),
            self._count, IdAllocator(start=self._allocator.next_value,
                                     stride=self._allocator.stride))
        # ids are stable: a copy takes its original's node slot, and
        # its parent entry stands
        nodes, far = clone._nodes, clone._far
        for node_id, copy in copies.items():
            if node_id in far:
                far[node_id] = (copy, far[node_id][1])
            else:
                nodes[node_id] = copy
        return clone

    # -- convenience lookups -------------------------------------------------

    def elements_by_name(self, name):
        """Yield element nodes with the given name, in document order."""
        for node in self.nodes():
            if node.is_element and node.name == name:
                yield node

    def max_id(self):
        """Largest live node id (convenience for id-space handoff)."""
        return max(self.node_ids(), default=-1)

    def __repr__(self):
        root = self.root.name if self.root is not None else None
        return "Document(root={!r}, nodes={})".format(root, len(self))
