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

    The index ``V`` (``node_by_id``) gives O(1) access from identifiers to
    nodes; it is kept consistent by the mutation helpers, which are the only
    supported way to restructure an attached tree.

    A :meth:`path_copy` shares the index of the document it copies: the
    copy records its own changes apart (``_delta``, id -> node, ``None``
    for a removed id) until :meth:`commit` folds them in. From then on
    the index answers for the copy, and the copied document answers
    lookups from an index it builds from its own tree on first use.
    """

    def __init__(self, root=None, allocator=None):
        self._allocator = allocator or IdAllocator()
        self._nodes = {}
        #: a path copy's changes over the shared ``_nodes`` until commit
        self._delta = None
        #: the document this path copy was made from, until commit
        self._base = None
        #: once a path copy of this document committed: its node count
        #: then, and its own index, built from the tree on first lookup
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
        count = len(self._nodes)
        if self._handed_on is not None:
            return self._handed_on
        if self._delta is not None:
            return len(self.node_ids())
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
            return self._own_index().get(node_id)
        return node

    def _own_index(self):
        own = self._own
        if own is None:
            own = {node.node_id: node for node in self.nodes()}
            self._own = own
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
        if root.parent is not None:
            raise DocumentError("root must be detached")
        self.root = root
        self.register_tree(root)
        return root

    @classmethod
    def indexed(cls, root, nodes, allocator):
        """A document over the detached element ``root`` whose id index
        the caller already built: ``nodes`` maps the id of every node of
        the tree, and nothing else, to the node (a durability restore
        checks the ids as it builds the tree, so it skips
        :meth:`register_tree`'s walk)."""
        document = cls(allocator=allocator)
        document.root = root
        document._nodes = nodes
        return document

    def _index(self, node_id, node):
        """Enter ``node`` under ``node_id`` (``None``: drop the id)."""
        if self._delta is not None:
            self._delta[node_id] = node
        elif node is None:
            self._nodes.pop(node_id, None)
        else:
            self._nodes[node_id] = node

    def register_tree(self, root):
        """Register every node of ``root``'s subtree in the id index,
        allocating identifiers for nodes lacking one."""
        for node in root.iter_subtree():
            if node.node_id is None:
                node.node_id = self.fresh_id()
            elif self.find(node.node_id) not in (None, node):
                raise DocumentError(
                    "duplicate node id: {}".format(node.node_id))
            self._index(node.node_id, node)
        self._allocator.reserve_at_least(
            1 + max((n.node_id for n in root.iter_subtree()
                     if isinstance(n.node_id, int)), default=-1))

    def unregister_tree(self, root):
        """Drop every node of ``root``'s subtree from the id index.

        Their identifiers remain burned (never reassigned)."""
        for node in root.iter_subtree():
            self._index(node.node_id, None)

    def forget_ids(self, node_ids):
        """Drop ``node_ids`` from the id index (identifiers stay burned).

        The incremental counterpart of :meth:`rebuild_index` for removed
        subtrees whose nodes the caller enumerated before detaching them
        (the in-place batch applier works this way)."""
        for node_id in node_ids:
            self._index(node_id, None)

    # -- mutation helpers (index-preserving) --------------------------------

    def detach_node(self, node):
        """Detach ``node`` from its parent and unregister its subtree."""
        node.detach()
        self.unregister_tree(node)
        return node

    def insert_children(self, parent, index, trees):
        """Insert detached ``trees`` as children of ``parent`` at ``index``,
        registering them."""
        for offset, tree in enumerate(trees):
            parent.insert_child(index + offset, tree)
            self.register_tree(tree)

    def append_attributes(self, element, attrs):
        """Attach detached attribute nodes to ``element``, registering them."""
        for attr in attrs:
            element.append_attribute(attr)
            self.register_tree(attr)

    def replace_node(self, node, trees):
        """Replace ``node`` with the detached ``trees`` (possibly empty)."""
        parent = node.parent
        if parent is None:
            raise DocumentError("cannot replace a detached or root node")
        if node.is_attribute:
            position = parent.attributes.index(node)
            self.detach_node(node)
            for offset, tree in enumerate(trees):
                tree.parent = parent
                parent.attributes.insert(position + offset, tree)
                self.register_tree(tree)
        else:
            position = parent.children.index(node)
            self.detach_node(node)
            self.insert_children(parent, position, trees)

    def rebuild_index(self):
        """Re-derive the id index from the live tree.

        Used after bulk structural edits performed directly on nodes (the
        PUL evaluator works this way): unreachable nodes are dropped from
        the index (their ids stay burned) and nodes without an identifier
        receive fresh ones **in document order**, which makes id assignment
        deterministic and identical across evaluators. The index is the
        document's own afterwards, shared with no other document.
        """
        self._nodes = {}
        self._delta = self._base = None
        if self.root is None:
            return
        highest = -1
        for node in self.root.iter_subtree():
            if node.node_id is not None:
                if node.node_id in self._nodes:
                    raise DocumentError(
                        "duplicate node id: {}".format(node.node_id))
                self._nodes[node.node_id] = node
                if node.node_id > highest:
                    highest = node.node_id
        self._allocator.reserve_at_least(highest + 1)
        for node in self.root.iter_subtree():
            if node.node_id is None:
                node.node_id = self.fresh_id()
                self._nodes[node.node_id] = node

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
        """``(document, originals)``: a document that shares this one's
        tree except on the paths from the root to ``node_ids``.

        Every node on those paths is copied shallowly (same id, name and
        value) and gets its own child and attribute lists, in which the
        copied children replace their originals; every other node is
        shared with this document. The copy shares this document's id
        index, keeping its own changes apart until :meth:`commit`, and
        has an allocator at the same position and stride. So the copy
        may be edited anywhere on those paths while this tree keeps its
        lists, names and values. Copying re-points the children and
        attributes of each copied node to the copy, so the copy's parent
        pointers are exact and this tree's shared nodes point into the
        copy; :func:`restore_parents` over ``originals`` (the copied
        nodes of this tree) points them back."""
        find = self.find
        originals = {}
        for node_id in node_ids:
            node = find(node_id)
            while node is not None and node.node_id not in originals:
                originals[node.node_id] = node
                node = node.parent
        copies = {node_id: node.shallow_copy()
                  for node_id, node in originals.items()}
        for node_id, node in originals.items():
            copy = copies[node_id]
            copy.children = [copies.get(child.node_id, child)
                             for child in node.children]
            copy.attributes = [copies.get(attr.node_id, attr)
                               for attr in node.attributes]
            for item in copy.children:
                item.parent = copy
            for item in copy.attributes:
                item.parent = copy
        root = self.root
        if root is not None:
            root = copies.get(root.node_id, root)
        clone = Document.indexed(root, self._nodes, IdAllocator(
            start=self._allocator.next_value,
            stride=self._allocator.stride))
        clone._delta = copies
        clone._base = self
        return clone, list(originals.values())

    def commit(self):
        """Fold this path copy's changes into the id index it shares
        with the document it was copied from; that document then answers
        lookups from an index of its own tree, built on first use. The
        copy has to be the only one of that document to commit."""
        delta, base = self._delta, self._base
        if delta is None:
            return
        nodes = self._nodes
        # before the fold: a lookup racing it on the base sees the flag
        base._handed_on = len(base)
        for node_id, node in delta.items():
            if node is None:
                nodes.pop(node_id, None)
            else:
                nodes[node_id] = node
        self._delta = self._base = None

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


def restore_parents(originals):
    """Point the children and attributes of every node of ``originals``
    back at that node: undoes the re-pointing of
    :meth:`Document.path_copy`, whose ``originals`` these are, once its
    copy is dropped."""
    for node in originals:
        for item in node.children:
            item.parent = node
        for item in node.attributes:
            item.parent = node
