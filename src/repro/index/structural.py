"""The structural secondary index: name buckets of label-code entries.

A :class:`DocumentIndex` is a set of *buckets* — one per element name,
attribute name, attribute ``(name, value)`` pair, and one for text
nodes. Each bucket is a list of ``(start, end, node_id, parent_id)`` entries sorted by the
node's *start code*. The paper's containment property makes this the
only order the query engine ever needs: start codes are unique,
compare lexicographically, and **start-code order is document order**,
so a bucket is simultaneously a name lookup, a document-order stream,
and one side of a sorted-interval merge (:mod:`repro.index.engine`).

Maintenance mirrors the incremental-label pattern of
:func:`repro.apply.inplace.apply_batch_in_place`: the index is built
once at open/restore, and every flush derives version N+1's index from
version N's by re-reading the *reduced PUL* the flush applied —
removed subtrees leave their buckets, surviving rename/replace-value
targets move buckets, freshly labeled subtrees enter theirs. Only the
touched buckets are copied (copy-on-write); untouched buckets are
shared by reference between versions, which is safe because a bucket
is immutable once published. Anything the delta cannot localize — a
whole-tree relabel, a ``sync`` fallback, a site with no label — falls
back to a full rebuild, exactly like the labeling it shadows.

The invariant the differential suite pins: at every published version,
the maintained index equals :meth:`DocumentIndex.build` run from
scratch on that version's tree and labeling.
"""

from __future__ import annotations

from bisect import insort

from repro.apply.inplace import classify


class DocumentIndex:
    """Versioned per-document secondary index over label codes."""

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
        """Index ``document`` from scratch against ``labeling``."""
        index = cls()
        root = document.root
        if root is None:
            return index
        for node in root.iter_subtree():
            index._add(node, labeling.label_of(node.node_id))
        index._sort()
        return index

    def _add(self, node, label):
        entry = (label.start, label.end, label.node_id, label.parent_id)
        if node.is_element:
            self.elements.setdefault(node.name, []).append(entry)
        elif node.is_attribute:
            self.attributes.setdefault(node.name, []).append(entry)
            self.values.setdefault(
                (node.name, node.value), []).append(entry)
        else:
            self.texts.append(entry)

    def _sort(self):
        for bucket in self.elements.values():
            bucket.sort()
        for bucket in self.attributes.values():
            bucket.sort()
        for bucket in self.values.values():
            bucket.sort()
        self.texts.sort()

    # -- incremental maintenance ----------------------------------------------

    def derive(self, old_document, new_document, new_labeling, reduced):
        """Derive the post-batch index from this (pre-batch) one.

        ``old_document`` is the still-intact previous published tree,
        ``new_document``/``new_labeling`` the working pair after
        :func:`~repro.apply.inplace.apply_batch_in_place` returned
        ``"incremental"``, and ``reduced`` the reduced PUL it applied.
        Returns a new :class:`DocumentIndex` sharing every untouched
        bucket with ``self``, or ``None`` when the delta cannot be
        derived (the caller rebuilds from scratch — always correct).

        The delta is read off the applier's own site classification
        (:func:`~repro.apply.inplace.classify`, run against the
        pre-batch tree): removed subtrees leave their buckets,
        rename/replace-value targets may have moved buckets, and the
        anchor sites' fresh (previously unknown) children and
        attributes are the inserted subtrees.
        """
        footprint = classify(old_document, reduced)
        if footprint.needs_sync:
            return None  # root-level change: the applier synced
        removed_set = set(footprint.removed_ids)
        removals = {}   # bucket key -> set of node ids leaving it
        additions = {}  # bucket key -> [entry]

        def remove(node):
            for key in self._keys_for(node):
                removals.setdefault(key, set()).add(node.node_id)

        def add(node):
            label = new_labeling.find(node.node_id)
            if label is None:
                raise LookupError(node.node_id)
            entry = (label.start, label.end, label.node_id,
                     label.parent_id)
            for key in self._keys_for(node):
                additions.setdefault(key, []).append(entry)

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
                label = new_labeling.find(node_id)
                if label is None:
                    return None
                entry = (label.start, label.end, label.node_id,
                         label.parent_id)
                for key in old_keys:
                    removals.setdefault(key, set()).add(node_id)
                for key in new_keys:
                    additions.setdefault(key, []).append(entry)
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
        except LookupError:
            return None
        return self._rewrite(removals, additions)

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

    def _rewrite(self, removals, additions):
        """Copy-on-write application of the delta: only buckets named
        in ``removals``/``additions`` are copied; every other bucket is
        shared with ``self``."""
        new = DocumentIndex(
            elements=dict(self.elements),
            attributes=dict(self.attributes),
            values=dict(self.values),
            texts=self.texts)
        for key in set(removals) | set(additions):
            mapping, name = new._bucket_map(key)
            if mapping is None:
                bucket = list(new.texts)
            else:
                bucket = list(mapping.get(name, ()))
            gone = removals.get(key)
            if gone:
                bucket = [e for e in bucket if e[2] not in gone]
            for entry in additions.get(key, ()):
                insort(bucket, entry)
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


def build_index(document, labeling):
    """Module-level alias of :meth:`DocumentIndex.build`."""
    return DocumentIndex.build(document, labeling)
