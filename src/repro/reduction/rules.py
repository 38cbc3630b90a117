"""The reduction rules of Figure 2, in declarative form.

Each rule matches an ordered pair of operations ``(op1, op2)`` from the
same PUL and yields the single operation replacing them. For the
*overriding* rules (O1–O4) the result is ``op2`` itself (``op1`` is simply
dropped). Rules are grouped in the nine stages given by the figure's
``O``-operator subscripts.

Two printed-rule corrections are implemented (see DESIGN.md "Errata"):
I10/I11 target the child ``v'`` (not ``v``), and the parameter orders of
IR19/IR20 are swapped with respect to the printed text; the corrected
versions are the ones whose results are substitutable to the original PUL
(checked by property tests).
"""

from __future__ import annotations

from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    OpClass,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.xdm.serializer import serialize_forest

# convenient wire-name tokens
INS_B = InsertBefore.op_name
INS_A = InsertAfter.op_name
INS_F = InsertIntoAsFirst.op_name
INS_L = InsertIntoAsLast.op_name
INS_I = InsertInto.op_name
INS_ATTR = InsertAttributes.op_name
DEL = Delete.op_name
REP_N = ReplaceNode.op_name
REP_V = ReplaceValue.op_name
REP_C = ReplaceChildren.op_name
REN = Rename.op_name

#: o(op1) sets of the overriding rules
_O1_VICTIMS = frozenset(
    {REN, REP_V, REP_C, DEL, INS_F, INS_L, INS_I, INS_ATTR})
_O2_VICTIMS = frozenset({INS_F, INS_I, INS_L})
_KILLERS = frozenset({REP_N, DEL})


class ReductionRule:
    """A Figure 2 rule: ``(op1, op2) -> merged`` under a side condition."""

    def __init__(self, rule_id, stage, matcher, description):
        self.rule_id = rule_id
        self.stage = stage
        self._matcher = matcher
        self.description = description

    def match(self, op1, op2, oracle):
        """The replacement operation, or ``None`` when the rule does not
        apply to the ordered pair. For O-rules the result *is* ``op2``."""
        if op1 is op2:
            return None
        return self._matcher(op1, op2, oracle)

    def __repr__(self):
        return "ReductionRule({})".format(self.rule_id)


def tree_keys(op):
    """The per-tree serializations of ``op``'s parameter: the secondary
    key after ``param_key()`` that makes Definition 9's ``<p`` total.
    ``[p, p]`` and ``[pp]`` serialize alike but are different operations;
    without it both engines fall back on input position between them."""
    return tuple(serialize_forest((tree,)) for tree in op.trees)


def _cat(op, trees_before, trees_after):
    """``op`` with parameter ``[trees_before, trees_after]``."""
    return op.with_trees(list(trees_before) + list(trees_after))


def _non_attribute_target(oracle, node_id):
    return not oracle.is_attribute(node_id)


# -- stage 1 ------------------------------------------------------------------


def _o1(op1, op2, oracle):
    if (op1.target == op2.target
            and op1.op_name in _O1_VICTIMS
            and op2.op_name in _KILLERS):
        return op2
    return None


def _o2(op1, op2, oracle):
    if (op1.target == op2.target
            and op1.op_name in _O2_VICTIMS
            and op2.op_name == REP_C):
        return op2
    return None


def _o3(op1, op2, oracle):
    if (op2.op_name in _KILLERS
            and oracle.is_descendant(op1.target, op2.target)):
        return op2
    return None


def _o4(op1, op2, oracle):
    if (op2.op_name == REP_C
            and oracle.is_nonattr_descendant(op1.target, op2.target)):
        return op2
    return None


def _i5(op1, op2, oracle):
    if (op1.op_class is OpClass.INSERT
            and op1.op_name == op2.op_name
            and op1.target == op2.target):
        return _cat(op1, op1.trees, op2.trees)
    return None


# -- stages 2-3: ins↓ against ins↙ / ins↘ on the same node -------------------


def _i6(op1, op2, oracle):
    if (op1.op_name == INS_I and op2.op_name == INS_F
            and op1.target == op2.target):
        return _cat(op2, op2.trees, op1.trees)
    return None


def _i7(op1, op2, oracle):
    if (op1.op_name == INS_I and op2.op_name == INS_L
            and op1.target == op2.target):
        return _cat(op2, op1.trees, op2.trees)
    return None


# -- stage 4: repN absorbs same-target sibling inserts -----------------------


def _ir8(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_B
            and op1.target == op2.target):
        return _cat(op1, op2.trees, op1.trees)
    return None


def _ir9(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_A
            and op1.target == op2.target):
        return _cat(op1, op1.trees, op2.trees)
    return None


# -- stages 5-6: ins↓ anchored at a child's sibling insert -------------------
# (printed rules target v; the merged operation must target v' — erratum)


def _i10(op1, op2, oracle):
    if (op1.op_name == INS_I and op2.op_name == INS_B
            and oracle.is_child(op2.target, op1.target)):
        return _cat(op2, op1.trees, op2.trees)
    return None


def _i11(op1, op2, oracle):
    if (op1.op_name == INS_I and op2.op_name == INS_A
            and oracle.is_child(op2.target, op1.target)):
        return _cat(op2, op2.trees, op1.trees)
    return None


# -- stage 7: a child's repN absorbs the parent's ins↓ ------------------------


def _ir12(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_I
            and oracle.is_child(op1.target, op2.target)
            and _non_attribute_target(oracle, op1.target)):
        return _cat(op1, op1.trees, op2.trees)
    return None


# -- stage 8: first/last-child and attribute adjacency ------------------------


def _ir13(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_ATTR
            and oracle.is_attribute_of(op1.target, op2.target)):
        return _cat(op1, op1.trees, op2.trees)
    return None


def _i14(op1, op2, oracle):
    if (op1.op_name == INS_B and op2.op_name == INS_F
            and oracle.is_first_child(op1.target, op2.target)):
        return _cat(op1, op2.trees, op1.trees)
    return None


def _i15(op1, op2, oracle):
    if (op1.op_name == INS_A and op2.op_name == INS_L
            and oracle.is_last_child(op1.target, op2.target)):
        return _cat(op1, op1.trees, op2.trees)
    return None


def _ir16(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_F
            and oracle.is_first_child(op1.target, op2.target)):
        return _cat(op1, op2.trees, op1.trees)
    return None


def _ir17(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_L
            and oracle.is_last_child(op1.target, op2.target)):
        return _cat(op1, op1.trees, op2.trees)
    return None


# -- stage 9: adjacent-sibling adjacency --------------------------------------
# (IR19/IR20 parameter orders corrected — erratum)


def _i18(op1, op2, oracle):
    if (op1.op_name == INS_B and op2.op_name == INS_A
            and oracle.is_left_sibling(op2.target, op1.target)):
        return _cat(op1, op2.trees, op1.trees)
    return None


def _ir19(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_A
            and oracle.is_left_sibling(op2.target, op1.target)
            and _non_attribute_target(oracle, op1.target)):
        return _cat(op1, op2.trees, op1.trees)
    return None


def _ir20(op1, op2, oracle):
    if (op1.op_name == REP_N and op2.op_name == INS_B
            and oracle.is_left_sibling(op1.target, op2.target)
            and _non_attribute_target(oracle, op1.target)):
        return _cat(op1, op1.trees, op2.trees)
    return None


REDUCTION_RULES = [
    ReductionRule("O1", 1, _o1,
                  "same-target op overridden by repN/del"),
    ReductionRule("O2", 1, _o2,
                  "same-target child insert overridden by repC"),
    ReductionRule("O3", 1, _o3,
                  "op on a descendant overridden by repN/del"),
    ReductionRule("O4", 1, _o4,
                  "op on a non-attribute descendant overridden by repC"),
    ReductionRule("I5", 1, _i5,
                  "same-variant same-target inserts collapse"),
    ReductionRule("I6", 2, _i6, "ins↓ merged into same-target ins↙"),
    ReductionRule("I7", 3, _i7, "ins↓ merged into same-target ins↘"),
    ReductionRule("IR8", 4, _ir8, "repN absorbs same-target ins←"),
    ReductionRule("IR9", 4, _ir9, "repN absorbs same-target ins→"),
    ReductionRule("I10", 5, _i10, "ins↓ merged into a child's ins←"),
    ReductionRule("I11", 6, _i11, "ins↓ merged into a child's ins→"),
    ReductionRule("IR12", 7, _ir12, "child repN absorbs parent ins↓"),
    ReductionRule("IR13", 8, _ir13, "attribute repN absorbs insA"),
    ReductionRule("I14", 8, _i14, "first-child ins← absorbs ins↙"),
    ReductionRule("I15", 8, _i15, "last-child ins→ absorbs ins↘"),
    ReductionRule("IR16", 8, _ir16, "first-child repN absorbs ins↙"),
    ReductionRule("IR17", 8, _ir17, "last-child repN absorbs ins↘"),
    ReductionRule("I18", 9, _i18, "ins← absorbs left sibling's ins→"),
    ReductionRule("IR19", 9, _ir19, "repN absorbs left sibling's ins→"),
    ReductionRule("IR20", 9, _ir20, "left sibling repN absorbs ins←"),
]

#: rules grouped by their stage (1..9)
RULES_BY_STAGE = {}
for _rule in REDUCTION_RULES:
    RULES_BY_STAGE.setdefault(_rule.stage, []).append(_rule)

#: number of staged passes performed by reduction (stage 10 is the
#: ins↓ -> ins↙ rewriting of the deterministic reduction)
LAST_RULE_STAGE = 9
