"""Update-tolerant labeling of document nodes (Section 4.1).

The paper's reasoning never navigates documents; it evaluates the structural
predicates of Table 1 on *labels* attached to the operations' target nodes.
The adopted scheme is Zhang containment encoded with the CDBS or CDQS
dynamic encoders ([14], [15]), extended with the node type and sibling
identifiers so that every Table 1 relationship is decidable in constant
time and document updates never force a relabeling. The predicates
themselves are the methods of
:class:`~repro.reasoning.oracle.StructuralOracle`; a
:class:`~repro.reasoning.oracle.LabelOracle` answers them from labels.
"""

from repro.labeling.codes import CDBSEncoder, CDQSEncoder, code_between
from repro.labeling.containment import ExtendedLabel
from repro.labeling.scheme import ContainmentLabeling

__all__ = [
    "CDBSEncoder",
    "CDQSEncoder",
    "code_between",
    "ExtendedLabel",
    "ContainmentLabeling",
]
