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
    """

    def __init__(self, root=None, allocator=None):
        self._allocator = allocator or IdAllocator()
        self._nodes = {}
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
            if candidate not in self._nodes:
                return candidate

    # -- node access -------------------------------------------------------

    def __contains__(self, node_id):
        return node_id in self._nodes

    def __len__(self):
        return len(self._nodes)

    def get(self, node_id):
        """Return the node with ``node_id`` or raise UnknownNodeError."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def find(self, node_id):
        """Return the node with ``node_id`` or ``None``."""
        return self._nodes.get(node_id)

    def node_ids(self):
        """Return a view over all live node ids."""
        return self._nodes.keys()

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

    def register_tree(self, root):
        """Register every node of ``root``'s subtree in the id index,
        allocating identifiers for nodes lacking one."""
        for node in root.iter_subtree():
            if node.node_id is None:
                node.node_id = self.fresh_id()
            elif node.node_id in self._nodes and \
                    self._nodes[node.node_id] is not node:
                raise DocumentError(
                    "duplicate node id: {}".format(node.node_id))
            self._nodes[node.node_id] = node
        self._allocator.reserve_at_least(
            1 + max((n.node_id for n in root.iter_subtree()
                     if isinstance(n.node_id, int)), default=-1))

    def unregister_tree(self, root):
        """Drop every node of ``root``'s subtree from the id index.

        Their identifiers remain burned (never reassigned)."""
        for node in root.iter_subtree():
            self._nodes.pop(node.node_id, None)

    def forget_ids(self, node_ids):
        """Drop ``node_ids`` from the id index (identifiers stay burned).

        The incremental counterpart of :meth:`rebuild_index` for removed
        subtrees whose nodes the caller enumerated before detaching them
        (the in-place batch applier works this way)."""
        for node_id in node_ids:
            self._nodes.pop(node_id, None)

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
        deterministic and identical across evaluators.
        """
        self._nodes = {}
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

    # -- convenience lookups -------------------------------------------------

    def elements_by_name(self, name):
        """Yield element nodes with the given name, in document order."""
        for node in self.nodes():
            if node.is_element and node.name == name:
                yield node

    def max_id(self):
        """Largest live node id (convenience for id-space handoff)."""
        return max(self._nodes, default=-1)

    def __repr__(self):
        root = self.root.name if self.root is not None else None
        return "Document(root={!r}, nodes={})".format(root, len(self._nodes))
