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
    so where a node hangs is the document's to answer. Both are filled
    by the same walks — the parser's, :meth:`register_tree`'s and
    :meth:`rebuild_index`'s — and kept by :meth:`forget_ids`.

    A :meth:`path_copy` shares both maps with the document it copies:
    the copy records its own changes apart (``_delta``, id -> node,
    ``None`` for a removed id; ``_parent_delta``, id -> parent id, for
    the ids it entered or removed) until :meth:`commit` folds them in.
    Ids are stable, so copying a node changes no parent entry. From then
    on the maps answer for the copy, and the copied document answers
    from maps it builds from its own tree on first use.
    """

    def __init__(self, root=None, allocator=None):
        self._allocator = allocator or IdAllocator()
        self._nodes = {}
        self._parents = {}
        #: a path copy's changes over the shared maps until commit
        self._delta = self._parent_delta = None
        #: the document this path copy was made from, until commit
        self._base = None
        #: once a path copy of this document committed: its node count
        #: then, and its own ``(index, parent map)``, built from the
        #: tree on first lookup
        self._handed_on = None
        self._own = None
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
        nodes = self._nodes
        count = len(nodes)
        if self._handed_on is not None:
            return self._handed_on
        # a path copy: the shared index, plus the ids it entered, less
        # the ids it removed
        delta = self._delta
        if delta:
            for node_id, node in delta.items():
                if node_id in nodes:
                    if node is None:
                        count -= 1
                elif node is not None:
                    count += 1
        return count

    def get(self, node_id):
        """Return the node with ``node_id`` or raise UnknownNodeError."""
        node = self.find(node_id)
        if node is None:
            raise UnknownNodeError(node_id)
        return node

    def find(self, node_id):
        """Return the node with ``node_id`` or ``None``."""
        delta = self._delta
        if delta is not None and node_id in delta:
            return delta[node_id]
        # the shared index first, then the hand-on flag: commit sets the
        # flag before it folds a copy's changes in, so a lookup that
        # raced the fold sees the flag and answers from the tree
        node = self._nodes.get(node_id)
        if self._handed_on is not None:
            return self._own_maps()[0].get(node_id)
        return node

    def parent_id(self, node_id):
        """The id of the parent of the node ``node_id``: ``None`` for the
        root and for an id the document does not hold."""
        delta = self._parent_delta
        if delta is not None and node_id in delta:
            return delta[node_id]
        # read before the flag, as in find
        parent_id = self._parents.get(node_id)
        if self._handed_on is not None:
            return self._own_maps()[1].get(node_id)
        return parent_id

    def parent(self, node):
        """The parent of ``node`` in this document, or ``None`` for the
        root (and for a node the document does not hold)."""
        parent_id = self.parent_id(node.node_id)
        return None if parent_id is None else self.find(parent_id)

    def _own_maps(self):
        own = self._own
        if own is None:
            nodes, parents = {}, {}
            if self.root is not None:
                for node, parent in self.root.iter_with_parents():
                    nodes[node.node_id] = node
                    parents[node.node_id] = (None if parent is None
                                             else parent.node_id)
            own = self._own = (nodes, parents)
        return own

    def node_ids(self):
        """Return a view over all live node ids."""
        if self._delta is None and self._handed_on is None:
            return self._nodes.keys()
        return [node.node_id for node in self.nodes()]

    def nodes(self):
        """Iterate over all live nodes in document order."""
        if self.root is None:
            return iter(())
        return self.root.iter_subtree()

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
    def indexed(cls, root, nodes, parents, allocator):
        """A document over the detached element ``root`` whose maps the
        caller already built: ``nodes`` maps the id of every node of the
        tree, and nothing else, to the node, and ``parents`` the same
        ids to their parents' ids (the root's to ``None``). The parser
        numbers the nodes and a durability restore checks their ids as
        each builds the tree, so both skip :meth:`register_tree`'s
        walk."""
        document = cls(allocator=allocator)
        document.root = root
        document._nodes = nodes
        document._parents = parents
        return document

    def _index(self, node_id, node, parent_id=None):
        """Enter ``node`` under ``node_id``, below the node ``parent_id``
        (``node`` ``None``: drop the id)."""
        if self._delta is not None:
            self._delta[node_id] = node
            self._parent_delta[node_id] = parent_id
        elif node is None:
            self._nodes.pop(node_id, None)
            self._parents.pop(node_id, None)
        else:
            self._nodes[node_id] = node
            self._parents[node_id] = parent_id

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
            self._index(node_id, node,
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
        for node_id in node_ids:
            self._index(node_id, None)

    def rebuild_index(self):
        """Re-derive the id index and the parent map from the live tree.

        Used after bulk structural edits performed directly on nodes (the
        PUL evaluator works this way): unreachable nodes are dropped from
        the index (their ids stay burned) and nodes without an identifier
        receive fresh ones **in document order**, which makes id assignment
        deterministic and identical across evaluators. The maps are the
        document's own afterwards, shared with no other document.
        """
        nodes = self._nodes = {}
        parents = self._parents = {}
        self._delta = self._parent_delta = self._base = None
        if self.root is None:
            return
        highest = -1
        for node in self.root.iter_subtree():
            if node.node_id is not None:
                if node.node_id in nodes:
                    raise DocumentError(
                        "duplicate node id: {}".format(node.node_id))
                nodes[node.node_id] = node
                if node.node_id > highest:
                    highest = node.node_id
        self._allocator.reserve_at_least(highest + 1)
        # a parent comes before its children, so its id is known here
        for node, parent in self.root.iter_with_parents():
            if node.node_id is None:
                node.node_id = self.fresh_id()
                nodes[node.node_id] = node
            parents[node.node_id] = (None if parent is None
                                     else parent.node_id)

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
        shares this document's id index and parent map, keeping its own
        changes apart until :meth:`commit`, and has an allocator at the
        same position and stride. So the copy may be edited anywhere on
        those paths while this tree keeps its lists, names and values."""
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
        clone = Document.indexed(root, self._nodes, self._parents,
                                 IdAllocator(
                                     start=self._allocator.next_value,
                                     stride=self._allocator.stride))
        clone._delta = copies
        clone._parent_delta = {}
        clone._base = self
        return clone

    def commit(self):
        """Fold this path copy's changes into the maps it shares with
        the document it was copied from; that document then answers
        lookups from maps of its own tree, built on first use. The copy
        has to be the only one of that document to commit."""
        delta, base = self._delta, self._base
        if delta is None:
            return
        nodes, parents = self._nodes, self._parents
        parent_delta = self._parent_delta
        # before the fold: a lookup racing it on the base sees the flag
        base._handed_on = len(base)
        for node_id, node in delta.items():
            if node is None:
                nodes.pop(node_id, None)
                parents.pop(node_id, None)
            else:
                nodes[node_id] = node
                if node_id in parent_delta:
                    parents[node_id] = parent_delta[node_id]
        self._delta = self._parent_delta = self._base = None

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
