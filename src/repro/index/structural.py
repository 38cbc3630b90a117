"""The structural secondary index: name buckets of node ids.

A :class:`DocumentIndex` is a set of *buckets* — one per element name,
attribute name, attribute ``(name, value)`` pair, and one for text
nodes. Each bucket is a list of node ids sorted by the node's start
code. An id is all a bucket holds: a node's codes are in the version's
labeling and its parent is in the version's
:class:`~repro.xdm.document.Document`, each an id-indexed column, and
the query engine reads them there. The paper's containment property
makes start-code order the only order the engine ever needs: start
codes are unique and **start-code order is document order**, so a
bucket is simultaneously a name lookup, a document-order stream, and
one side of a sorted-interval merge (:mod:`repro.index.engine`).

Maintenance mirrors the incremental-label pattern of
:func:`repro.apply.inplace.apply_batch_in_place`: the index is built
once at open/restore, and every flush derives version N+1's index from
version N's by re-reading the *reduced PUL* the flush applied —
removed subtrees leave their buckets, surviving rename/replace-value
targets move buckets, freshly labeled subtrees enter theirs. Only the
touched buckets are copied (copy-on-write); untouched buckets are
shared by reference between versions, which is safe because a bucket
is immutable once published and an incremental relabel never changes
the codes of a node that stays (a widened labeling rescales every
code alike), so a shared bucket is still in start-code order under the
next version's labeling. Anything the delta
cannot localize — a whole-tree relabel, a ``sync`` fallback, a site
with no label — falls back to a full rebuild, exactly like the
labeling it shadows.

The invariant the differential suite pins: at every published version,
the maintained index equals :meth:`DocumentIndex.build` run from
scratch on that version's tree and labeling.
"""

from __future__ import annotations

from repro.apply.inplace import classify
from repro.xdm.node import NodeType

_ELEMENT, _ATTRIBUTE = NodeType.ELEMENT, NodeType.ATTRIBUTE


class DocumentIndex:
    """Versioned per-document secondary index over labels."""

    __slots__ = ("elements", "attributes", "values", "texts")

    def __init__(self, elements=None, attributes=None, values=None,
                 texts=None):
        self.elements = elements if elements is not None else {}
        self.attributes = attributes if attributes is not None else {}
        self.values = values if values is not None else {}
        self.texts = texts if texts is not None else []

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, document, labeling):
        """Index ``document`` from scratch against ``labeling``: one
        walk over the tree in document order, which is start-code
        order, so each bucket fills in the order it keeps and nothing
        is sorted. ``labeling`` is what the buckets are ordered by; the
        walk reads none of it."""
        index = cls()
        root = document.root
        if root is None:
            return index
        elements, attributes, values, texts = (
            index.elements, index.attributes, index.values, index.texts)
        for node in root.iter_subtree():
            kind = node.node_type
            if kind is _ELEMENT:
                elements.setdefault(node.name, []).append(node.node_id)
            elif kind is _ATTRIBUTE:
                attributes.setdefault(node.name, []).append(node.node_id)
                values.setdefault((node.name, node.value),
                                  []).append(node.node_id)
            else:
                texts.append(node.node_id)
        return index

    # -- incremental maintenance ----------------------------------------------

    def derive(self, old_document, new_document, new_labeling, reduced,
               footprint=None):
        """Derive the post-batch index from this (pre-batch) one.

        ``old_document`` is the still-intact previous published tree,
        ``new_document``/``new_labeling`` the working pair after
        :func:`~repro.apply.inplace.apply_batch_in_place` returned
        ``"incremental"``, and ``reduced`` the reduced PUL it applied.
        Returns a new :class:`DocumentIndex` sharing every untouched
        bucket with ``self``, or ``None`` when the delta cannot be
        derived (the caller rebuilds from scratch — always correct).

        The delta is read off the applier's own site classification
        (:func:`~repro.apply.inplace.classify` against the pre-batch
        tree; ``footprint`` when the caller already has it): removed
        subtrees leave their buckets, rename/replace-value targets may
        have moved buckets, and the anchor sites' fresh (previously
        unknown) children and attributes are the inserted subtrees.
        ``old_document`` is only read by id, never walked: on a path
        copy it still holds every pre-batch name and value.
        """
        if footprint is None:
            footprint = classify(old_document, reduced)
        if footprint.needs_sync:
            return None  # root-level change: the applier synced
        removed_set = set(footprint.removed_ids)
        removals = {}   # bucket key -> set of node ids leaving it
        additions = {}  # bucket key -> [node id]

        def remove(node):
            for key in self._keys_for(node):
                removals.setdefault(key, set()).add(node.node_id)

        def add(node):
            for key in self._keys_for(node):
                additions.setdefault(key, []).append(node.node_id)

        try:
            for node_id in removed_set:
                remove(old_document.get(node_id))
            for node_id in footprint.touched_ids:
                if node_id in removed_set:
                    continue
                old_keys = self._keys_for(old_document.get(node_id))
                new_node = new_document.find(node_id)
                if new_node is None:
                    return None
                new_keys = self._keys_for(new_node)
                if old_keys == new_keys:
                    continue
                for key in old_keys:
                    removals.setdefault(key, set()).add(node_id)
                for key in new_keys:
                    additions.setdefault(key, []).append(node_id)
            for site_id in footprint.site_ids:
                site = new_document.find(site_id)
                if site is None:
                    continue  # the site itself was removed by a sibling op
                for item in (list(site.attributes)
                             + list(site.children)):
                    if item.node_id in old_document:
                        continue
                    for node in item.iter_subtree():
                        add(node)
            # an added node with no label raises LookupError: no delta
            return self._rewrite(removals, additions, new_labeling)
        except LookupError:
            return None

    def _keys_for(self, node):
        """The bucket keys ``node`` occupies. A key is ``("e", name)``,
        ``("a", name)``, ``("v", name, value)`` or ``("t",)``."""
        if node.is_element:
            return (("e", node.name),)
        if node.is_attribute:
            return (("a", node.name), ("v", node.name, node.value))
        return (("t",),)

    def _bucket_map(self, key):
        kind = key[0]
        if kind == "e":
            return self.elements, key[1]
        if kind == "a":
            return self.attributes, key[1]
        if kind == "v":
            return self.values, (key[1], key[2])
        return None, None  # ("t",): the single text bucket

    def _rewrite(self, removals, additions, labeling):
        """Copy-on-write application of the delta: only buckets named
        in ``removals``/``additions`` are copied; every other bucket is
        shared with ``self``. ``labeling`` is the new version's."""
        new = DocumentIndex(
            elements=dict(self.elements),
            attributes=dict(self.attributes),
            values=dict(self.values),
            texts=self.texts)
        for key in set(removals) | set(additions):
            mapping, name = new._bucket_map(key)
            bucket = new.texts if mapping is None else mapping.get(name, ())
            gone = removals.get(key)
            bucket = ([node_id for node_id in bucket if node_id not in gone]
                      if gone else list(bucket))
            for node_id in additions.get(key, ()):
                _insort(bucket, node_id, labeling)
            if mapping is None:
                new.texts = bucket
            elif bucket:
                mapping[name] = bucket
            else:
                # drop empty buckets so a derived index stays equal to
                # a from-scratch rebuild, which never creates them
                mapping.pop(name, None)
        return new

    # -- introspection --------------------------------------------------------

    def entry_count(self):
        return (sum(len(b) for b in self.elements.values())
                + sum(len(b) for b in self.attributes.values())
                + len(self.texts))

    def stats(self):
        return {
            "element_names": len(self.elements),
            "attribute_names": len(self.attributes),
            "value_keys": len(self.values),
            "text_nodes": len(self.texts),
            "entries": self.entry_count(),
        }

    def as_dict(self):
        """Canonical comparable form (used by the parity suites)."""
        return {
            "elements": {name: list(bucket)
                         for name, bucket in self.elements.items()},
            "attributes": {name: list(bucket)
                           for name, bucket in self.attributes.items()},
            "values": {key: list(bucket)
                       for key, bucket in self.values.items()},
            "texts": list(self.texts),
        }

    def __eq__(self, other):
        if not isinstance(other, DocumentIndex):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self):
        return ("DocumentIndex(names={}, entries={})"
                .format(len(self.elements), self.entry_count()))


def _insort(bucket, node_id, labeling):
    """Insert ``node_id`` into ``bucket`` at the place of its start
    code in ``labeling``: a binary search over the start codes of the
    bucket's ids (``bisect``'s ``key=`` needs Python 3.10). An id with
    no label raises ``KeyError``."""
    start = labeling.start_of(node_id)
    if start is None:
        raise KeyError(node_id)
    key = labeling.order_key()
    low, high = 0, len(bucket)
    while low < high:
        middle = (low + high) // 2
        if key(bucket[middle]) < start:
            low = middle + 1
        else:
            high = middle
    bucket.insert(low, node_id)


def build_index(document, labeling):
    """Module-level alias of :meth:`DocumentIndex.build`."""
    return DocumentIndex.build(document, labeling)
