"""Dynamic reasoning on XML updates.

A reproduction of Cavalieri, Guerrini, Mesiti — *Dynamic Reasoning on XML
Updates*, EDBT 2011: Pending Update Lists (PULs) as first-class exchanged
objects, with document-independent reasoning on them.

Public API highlights
---------------------

Data model and labeling::

    from repro.xdm import parse_document, serialize
    from repro.labeling import ContainmentLabeling

PULs and their semantics::

    from repro import (PUL, apply_pul, obtainable_set, equivalent,
                       substitutable, pul_to_xml, pul_from_xml)

The three reasoning operators::

    from repro import (reduce_pul, reduce_deterministic, canonical_form,
                       integrate, reconcile, aggregate)

Producing PULs from XQuery Update expressions and applying them::

    from repro import compile_pul, apply_streaming, apply_in_memory

The distributed architecture — producers are clients of one store, which
reasons on their PULs (aggregating each client's sequence, integrating or
reconciling parallel clients) and makes them effective::

    from repro.store import DocumentStore     # in-process
    from repro.api import StoreClient         # `repro store serve`
"""

from repro.aggregation import aggregate
from repro.apply import apply_in_memory, apply_streaming
from repro.integration import (
    ProducerPolicy,
    detect_conflicts,
    integrate,
    reconcile,
)
from repro.pul import (
    PUL,
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
    apply_pul,
    equivalent,
    invert_pul,
    merge,
    obtainable_set,
    pul_from_xml,
    pul_to_xml,
    substitutable,
)
from repro.reduction import canonical_form, reduce_deterministic, reduce_pul
from repro.xquery import compile_pul

__version__ = "1.0.0"

__all__ = [
    "PUL", "merge", "apply_pul", "obtainable_set",
    "equivalent", "substitutable", "invert_pul",
    "pul_to_xml", "pul_from_xml",
    "InsertBefore", "InsertAfter", "InsertIntoAsFirst", "InsertIntoAsLast",
    "InsertInto", "InsertAttributes", "Delete", "ReplaceNode",
    "ReplaceValue", "ReplaceChildren", "Rename",
    "reduce_pul", "reduce_deterministic", "canonical_form",
    "integrate", "reconcile", "detect_conflicts", "ProducerPolicy",
    "aggregate",
    "compile_pul",
    "apply_streaming", "apply_in_memory",
    "__version__",
]
