"""The update primitives of Table 2.

Each primitive targets a single node, identified by its id, and carries a
parameter: a list of trees ``P``, a value ``s`` or a name ``l``. Static
(parameter-shape) conditions are enforced at construction; the dynamic
conditions involving the target's type are checked against a document by
:meth:`UpdateOperation.applicability_errors` (Definition 1).

The operation classes are ``i`` (all insertion variants), ``d`` (delete)
and ``r`` (all replacements, including rename) — ``c(op)`` in the paper.

Extension (flagged): the XQUF restricts ``repC`` parameters to nothing or a
single text node. ``ReplaceChildren`` accepts arbitrary trees when
``strict=False``, which is what makes the ``repC``+insert aggregation case
(deferred by the paper to its extended version) expressible — see
DESIGN.md.
"""

from __future__ import annotations

import enum

from repro.errors import InvalidOperationError, NotApplicableError
from repro.xdm.compare import canonical_string
from repro.xdm.node import Node
from repro.xdm.serializer import serialize_forest


class OpClass(enum.Enum):
    """``c(op)``: the three operation classes."""

    INSERT = "i"
    DELETE = "d"
    REPLACE = "r"

    def __str__(self):
        return self.value


def _check_trees(trees, what):
    checked = []
    for tree in trees:
        if isinstance(tree, str):
            raise InvalidOperationError(
                "{} parameter must contain nodes, got a string; "
                "parse it first".format(what))
        if not isinstance(tree, Node):
            raise InvalidOperationError(
                "{} parameter must contain nodes".format(what))
        checked.append(tree)
    return tuple(checked)


class UpdateOperation:
    """Base class of the eleven primitives.

    Subclasses define ``op_name`` (stable wire name), ``symbol`` (the
    paper's notation, for messages), ``op_class`` and ``stage`` (the
    application stage, 1–5, of Section 2.2).
    """

    op_name = None
    symbol = None
    op_class = None
    stage = None

    #: whether the parameter is a list of trees
    has_trees = False

    def __init__(self, target):
        if not isinstance(target, int):
            raise InvalidOperationError(
                "operation target must be a node id (int), got {!r}"
                .format(target))
        self.target = target

    # -- accessors mirroring the paper's t(op), o(op), p(op), c(op) --------

    @property
    def trees(self):
        """The parameter trees ``P`` (empty for non-tree operations)."""
        return ()

    def parameter(self):
        """``p(op)``: the second parameter (``None`` for del)."""
        return None

    # -- applicability ------------------------------------------------------

    def applicability_errors(self, document):
        """Conditions of Table 2 against ``document``; empty list = applicable."""
        node = document.find(self.target)
        if node is None:
            return ["target {} not in document".format(self.target)]
        return self._conditions(node, document)

    def is_applicable(self, document):
        return not self.applicability_errors(document)

    def require_applicable(self, document):
        errors = self.applicability_errors(document)
        if errors:
            raise NotApplicableError(
                "{} not applicable: {}".format(
                    self.describe(), "; ".join(errors)))

    def _conditions(self, node, document):
        """What keeps this operation off ``node``, a node of
        ``document``."""
        return []

    # -- identity -----------------------------------------------------------

    def param_key(self):
        """Serialization of the parameter, for the lexicographic order
        ``<lex`` used by the canonical form (Definition 9)."""
        return ""

    def sort_key(self):
        """Stable total order on operations (name, target, parameter)."""
        return (self.op_name, self.target, self.param_key())

    def describe(self):
        """Human-readable rendering in the paper's notation."""
        param = self.param_key()
        if param:
            return "{}({}, {})".format(self.symbol, self.target, param)
        return "{}({})".format(self.symbol, self.target)

    def copy(self):
        """Deep copy (parameter trees are duplicated)."""
        raise NotImplementedError

    def __eq__(self, other):
        if not isinstance(other, UpdateOperation):
            return NotImplemented
        return (self.op_name == other.op_name
                and self.target == other.target
                and self._param_canonical() == other._param_canonical())

    def __hash__(self):
        return hash((self.op_name, self.target, self._param_canonical()))

    def _param_canonical(self):
        return self.param_key()

    def __repr__(self):
        return self.describe()


class _TreeParameterOperation(UpdateOperation):
    """Shared behaviour of operations parameterized by a list of trees."""

    has_trees = True
    #: constraint on the roots of the parameter trees:
    #: "non-attribute", "attribute", "uniform" (repN) or None
    root_constraint = None
    #: whether an empty parameter list is allowed
    allow_empty = True

    def __init__(self, target, trees):
        super().__init__(target)
        trees = _check_trees(trees, self.op_name)
        if not trees and not self.allow_empty:
            raise InvalidOperationError(
                "{} requires at least one tree".format(self.op_name))
        self._validate_roots(trees)
        self._trees = trees

    def _validate_roots(self, trees):
        if self.root_constraint == "non-attribute":
            if any(t.is_attribute for t in trees):
                raise InvalidOperationError(
                    "{} parameter roots must not be attributes"
                    .format(self.op_name))
        elif self.root_constraint == "attribute":
            if any(not t.is_attribute for t in trees):
                raise InvalidOperationError(
                    "{} parameter roots must be attributes"
                    .format(self.op_name))
        elif self.root_constraint == "uniform":
            kinds = {t.is_attribute for t in trees}
            if len(kinds) > 1:
                raise InvalidOperationError(
                    "{} parameter roots must be all attributes or all "
                    "non-attributes".format(self.op_name))

    @property
    def trees(self):
        return self._trees

    def parameter(self):
        return self._trees

    def param_key(self):
        return serialize_forest(self._trees)

    def _param_canonical(self):
        return "".join(canonical_string(t) for t in self._trees)

    def copy(self):
        return type(self)(self.target, [t.deep_copy() for t in self._trees])

    def with_trees(self, trees):
        """Same operation with a different parameter (used by reduction and
        aggregation when collapsing operations)."""
        return type(self)(self.target, trees)


# -- insertions --------------------------------------------------------------


class InsertBefore(_TreeParameterOperation):
    """``ins<-(v, P)``: insert the trees in P before node v."""

    op_name = "insertBefore"
    symbol = "ins←"
    op_class = OpClass.INSERT
    stage = 2
    root_constraint = "non-attribute"
    allow_empty = False

    def _conditions(self, node, document):
        errors = []
        if node.is_attribute:
            errors.append("target must not be an attribute")
        if node is document.root:
            errors.append("target must have a parent")
        return errors


class InsertAfter(InsertBefore):
    """``ins->(v, P)``: insert the trees in P after node v."""

    op_name = "insertAfter"
    symbol = "ins→"


class InsertIntoAsFirst(_TreeParameterOperation):
    """``ins_first(v, P)``: insert the trees in P as first children of v."""

    op_name = "insertIntoAsFirst"
    symbol = "ins↙"
    op_class = OpClass.INSERT
    stage = 2
    root_constraint = "non-attribute"
    allow_empty = False

    def _conditions(self, node, document):
        if not node.is_element:
            return ["target must be an element"]
        return []


class InsertIntoAsLast(InsertIntoAsFirst):
    """``ins_last(v, P)``: insert the trees in P as last children of v."""

    op_name = "insertIntoAsLast"
    symbol = "ins↘"


class InsertInto(InsertIntoAsFirst):
    """``ins_into(v, P)``: insert the trees in P as children of v at an
    implementation-defined position — the source of non-determinism
    (Definition 2)."""

    op_name = "insertInto"
    symbol = "ins↓"
    stage = 1


class InsertAttributes(_TreeParameterOperation):
    """``insA(v, P)``: insert the trees in P as attributes of v."""

    op_name = "insertAttributes"
    symbol = "insA"
    op_class = OpClass.INSERT
    stage = 1
    root_constraint = "attribute"
    allow_empty = False

    def _conditions(self, node, document):
        if not node.is_element:
            return ["target must be an element"]
        return []

    def attribute_names(self):
        """Names of the inserted attributes (conflict type 2 detection)."""
        return [tree.name for tree in self._trees]


# -- deletion -----------------------------------------------------------------


class Delete(UpdateOperation):
    """``del(v)``: delete node v."""

    op_name = "delete"
    symbol = "del"
    op_class = OpClass.DELETE
    stage = 5

    def copy(self):
        return Delete(self.target)


# -- replacements -------------------------------------------------------------


class ReplaceNode(_TreeParameterOperation):
    """``repN(v, P)``: replace node v with the trees in P (possibly none).

    ``repN(v, [])`` is equivalent to ``del(v)`` (footnote 3 of the paper);
    :meth:`repro.pul.pul.PUL.normalized` performs that rewriting.
    """

    op_name = "replaceNode"
    symbol = "repN"
    op_class = OpClass.REPLACE
    stage = 3
    root_constraint = "uniform"
    allow_empty = True

    def _conditions(self, node, document):
        errors = []
        if node is document.root:
            errors.append("target must have a parent")
        for tree in self._trees:
            same_kind = (tree.is_attribute and node.is_attribute) or \
                (not tree.is_attribute and not node.is_attribute)
            if not same_kind:
                errors.append(
                    "replacement trees must match the target kind")
                break
        return errors

    def is_empty(self):
        return not self._trees


class ReplaceValue(UpdateOperation):
    """``repV(v, s)``: replace the value of text/attribute node v with s."""

    op_name = "replaceValue"
    symbol = "repV"
    op_class = OpClass.REPLACE
    stage = 1

    def __init__(self, target, value):
        super().__init__(target)
        if not isinstance(value, str):
            raise InvalidOperationError("repV value must be a string")
        self.value = value

    def parameter(self):
        return self.value

    def param_key(self):
        return self.value

    def _conditions(self, node, document):
        if node.is_element:
            return ["target must be a text or attribute node"]
        return []

    def copy(self):
        return ReplaceValue(self.target, self.value)


class ReplaceChildren(_TreeParameterOperation):
    """``repC(v, t)``: replace the children of element v with text node t,
    or with nothing.

    In strict XQUF mode the parameter is ``[]`` or a single text node; with
    ``strict=False`` arbitrary non-attribute trees are accepted (library
    extension, see module docstring).
    """

    op_name = "replaceChildren"
    symbol = "repC"
    op_class = OpClass.REPLACE
    stage = 4
    root_constraint = "non-attribute"
    allow_empty = True

    def __init__(self, target, trees, strict=True):
        if isinstance(trees, str):
            trees = [Node.text(trees)] if trees else []
        super().__init__(target, trees)
        if strict:
            if len(self._trees) > 1 or \
                    (self._trees and not self._trees[0].is_text):
                raise InvalidOperationError(
                    "strict repC takes nothing or a single text node")
        self.strict = strict

    def _conditions(self, node, document):
        if not node.is_element:
            return ["target must be an element"]
        return []

    def copy(self):
        return ReplaceChildren(
            self.target, [t.deep_copy() for t in self._trees],
            strict=self.strict)

    def with_trees(self, trees):
        return ReplaceChildren(self.target, trees, strict=False)


class Rename(UpdateOperation):
    """``ren(v, l)``: rename element/attribute node v to l."""

    op_name = "rename"
    symbol = "ren"
    op_class = OpClass.REPLACE
    stage = 1

    def __init__(self, target, name):
        super().__init__(target)
        if not isinstance(name, str) or not name:
            raise InvalidOperationError("ren name must be a nonempty string")
        self.name = name

    def parameter(self):
        return self.name

    def param_key(self):
        return self.name

    def _conditions(self, node, document):
        if node.is_text:
            return ["target must be an element or attribute node"]
        return []

    def copy(self):
        return Rename(self.target, self.name)


#: wire-name -> class registry (used by the PUL deserializer)
OPERATION_TYPES = {
    cls.op_name: cls for cls in (
        InsertBefore, InsertAfter, InsertIntoAsFirst, InsertIntoAsLast,
        InsertInto, InsertAttributes, Delete, ReplaceNode, ReplaceValue,
        ReplaceChildren, Rename,
    )
}

#: the insertion variants anchored at a *sibling* position
SIBLING_INSERTS = (InsertBefore, InsertAfter)
#: the insertion variants anchored *inside* the target element
CHILD_INSERTS = (InsertIntoAsFirst, InsertIntoAsLast, InsertInto)


def compatible(op1, op2):
    """Definition 3: ``op1``/``op2`` are compatible unless they share the
    target and the name and are replacements."""
    return not (op1.target == op2.target
                and op1.op_name == op2.op_name
                and op1.op_class is OpClass.REPLACE)


def is_insert(op):
    return op.op_class is OpClass.INSERT


def same_insert_kind(op1, op2):
    """Same insertion variant on the same target (the groups whose relative
    order is not fixed by the semantics)."""
    return (is_insert(op1) and op1.op_name == op2.op_name
            and op1.target == op2.target)
