"""PUL equivalence and substitutability (Definition 6).

``∆1 ≃_D ∆2``  iff  ``O(∆1, D) = O(∆2, D)``
``∆1 ⊑_D ∆2``  iff  ``O(∆1, D) ⊆ O(∆2, D)``

Both are decided by enumerating the obtainable sets, which is exact (and
exponential in the worst case — these functions are reasoning/testing
oracles, not part of the O(k log k) operational algorithms).

Comparison is value-based on documents: new nodes carry no identity before
application, matching the paper's Example 4 where ``repV`` on an existing
text node and ``repC`` installing a fresh text node with the same value
yield *equivalent* PULs.
"""

from __future__ import annotations

from repro.pul.semantics import obtainable_set


def obtainable_strings(document, pul, limit=20000, with_ids=False,
                       preserve_ids=False):
    """The canonical strings of ``O(pul, document)`` as a set."""
    return set(obtainable_set(document, pul, limit=limit,
                              with_ids=with_ids,
                              preserve_ids=preserve_ids).keys())


def equivalent(pul1, pul2, document, limit=20000, with_ids=False):
    """``pul1 ≃_document pul2``."""
    set1 = obtainable_strings(document, pul1, limit=limit, with_ids=with_ids)
    set2 = obtainable_strings(document, pul2, limit=limit, with_ids=with_ids)
    return set1 == set2


def substitutable(pul1, pul2, document, limit=20000, with_ids=False):
    """``pul1 ⊑_document pul2``: every outcome of ``pul1`` is an outcome of
    ``pul2`` (so ``pul1`` may stand in for ``pul2``)."""
    set1 = obtainable_strings(document, pul1, limit=limit, with_ids=with_ids)
    set2 = obtainable_strings(document, pul2, limit=limit, with_ids=with_ids)
    return set1 <= set2


def equivalent_by_canonical(pul1, pul2, structure=None):
    """Syntactic test for a *common outcome*: equal canonical forms
    (Definition 9) mean one deterministic PUL — the canonical form
    itself — is :func:`substitutable` for both, on any document both
    PULs are applicable on.

    That is weaker than :func:`equivalent`. The canonical form is the
    deterministic reduction ``∆^H``, which *resolves* the freedom a
    PUL leaves open: an ``ins↓`` becomes an ``ins↙``, same-target
    insertions are collapsed in one fixed order. ``[ins→(v, p),
    ins→(v, q)]`` and ``[ins→(v, pq)]`` share a canonical form, yet
    only the first can also yield ``qp``. Equal canonical forms imply
    equal obtainable sets exactly when each PUL has a single outcome
    to begin with.

    This is the executor-friendly check the paper motivates the canonical
    form with — it needs only the labels the PULs carry, never the
    document, and runs in O(k log k) instead of enumerating outcomes.
    ``False`` means "not syntactically identical", NOT "no common
    outcome": semantically equal PULs of different shapes (Example 4)
    need the exact :func:`equivalent` oracle.
    """
    from repro.reduction import canonical_form

    first = canonical_form(pul1, structure if structure is not None
                           else pul1)
    second = canonical_form(pul2, structure if structure is not None
                            else pul2)
    return first == second


def sequential_obtainable_strings(document, puls, limit=20000,
                                  with_ids=False, preserve_ids=False):
    """Canonical strings of ``O(∆1; ...; ∆n, D)`` — the obtainable set of a
    *sequence* of PULs, each applied to every outcome of the previous ones
    (Section 2.2: ``O(∆1;∆2, D) = O(∆2, O(∆1, D))``)."""
    current = {None: document}
    keys = set()
    for index, pul in enumerate(puls):
        last = index == len(puls) - 1
        following = {}
        for doc in current.values():
            outcomes = obtainable_set(doc, pul, limit=limit,
                                      with_ids=with_ids,
                                      preserve_ids=preserve_ids)
            if last:
                keys.update(outcomes.keys())
            else:
                following.update(outcomes)
            if len(following) > limit or len(keys) > limit:
                raise RuntimeError("sequential enumeration exceeded limit")
        current = following
    if not puls:
        from repro.xdm.compare import canonical_string
        keys = {canonical_string(document.root, with_ids=with_ids)
                if document.root is not None else ""}
    return keys
