"""Tables keyed by node id, kept as columns indexed by id.

A document's node ids are dense from 0: they come from the document's
own identification space and are never reused (Section 4.1). So a
table keyed by id is a set of columns, slot ``i`` of each holding node
``i``'s value: a slot is 8 bytes where a dict entry is several times
that. Two tables are kept this way — a document's nodes and parent ids
(:class:`~repro.xdm.document.Document`) and a labeling's start and end
codes (:class:`~repro.labeling.scheme.ContainmentLabeling`) — and both
go through the functions here, which keep the one rule of what the
columns cover. A column's *blank* marks a slot no id holds; a held
value is never blank and always true (a node, a nonzero code).

Not every id is dense: a producer may stamp its nodes from a band far
above the document's own (``IdAllocator(start=10**9)``), and an id may
be negative or of any size. A column never grows to cover such an id.
An id past the columns' length is *near* while it is below
:func:`reach` of the number of ids the table holds, and the columns
grow to cover it; any other id is *far* and lives in the table's one
overflow dict, ``id -> (value, value)``. Each id lives in exactly one
place: the columns never cover a far id, and when they grow, the far
ids they now cover move into them. So a column is at most a few times
longer than the table's largest count, whatever ids it is given.
"""

from __future__ import annotations

import sys
from itertools import compress, repeat

#: ids this far past four times a table's count still grow its columns
#: (so a small table's first ids need no count to lean on)
SLACK = 64


def reach(count):
    """The least id a table holding ``count`` ids keeps out of its
    columns: the columns stay within four slots per id held."""
    return 4 * count + SLACK


def place(columns, blanks, far, count, node_id, values):
    """Enter ``values`` (one per column) under ``node_id`` in the table
    of ``columns`` and ``far`` that holds ``count`` ids: in the
    columns when they cover the id or it is near, growing them with
    ``blanks``; in ``far`` otherwise."""
    if isinstance(node_id, int) and node_id >= 0:
        length = len(columns[0])
        limit = reach(count)
        if length <= node_id < limit:
            # an eighth more than asked, so the next fresh ids fit
            length = max(node_id + 1, min(limit, length + length // 8))
            grow(columns, blanks, far, length)
        if node_id < length:
            for column, value in zip(columns, values):
                column[node_id] = value
            return
    far[node_id] = values


def remove(columns, blanks, far, node_id):
    """Drop ``node_id`` from the table: its slots go back to
    ``blanks``. An id the table does not hold is ignored."""
    if isinstance(node_id, int) and 0 <= node_id < len(columns[0]):
        for column, blank in zip(columns, blanks):
            column[node_id] = blank
    else:
        far.pop(node_id, None)


def grow(columns, blanks, far, length):
    """Extend ``columns`` to ``length`` slots of ``blanks``, and move
    the far ids they now cover into them."""
    old = len(columns[0])
    for column, blank in zip(columns, blanks):
        column.extend(repeat(blank, length - old))
    if far:
        for node_id in [node_id for node_id in far
                        if isinstance(node_id, int)
                        and old <= node_id < length]:
            for column, value in zip(columns, far.pop(node_id)):
                column[node_id] = value


def lay_out(blanks, ids, values):
    """New list columns, and their overflow dict, holding ``values``
    (one list per column, in the order of ``ids``, distinct ids). Ids
    ``0 .. n - 1`` in order (a parse's) make the lists the columns;
    other ids all near are written slot by slot; else each id is
    placed as :func:`place` places it."""
    count = len(ids)
    if ids == range(count):
        return list(values), {}
    try:
        if count and min(ids) >= 0 and max(ids) < reach(count):
            columns = [[blank] * (max(ids) + 1) for blank in blanks]
            for column, column_values in zip(columns, values):
                for node_id, value in zip(ids, column_values):
                    column[node_id] = value
            return columns, {}
    except TypeError:
        pass  # an id that is no int
    columns = [[] for __ in blanks]
    far = {}
    for position, node_id in enumerate(ids):
        place(columns, blanks, far, position, node_id,
              tuple(column_values[position] for column_values in values))
    return columns, far


def ids_of(column, far):
    """The ids the table holds: those of ``column``'s held (true)
    slots, then the far ones."""
    return list(compress(range(len(column)), column)) + list(far)


def table_bytes(columns, far):
    """What the table's columns and overflow dict take, as
    ``sys.getsizeof`` counts them: the containers alone, so a value
    the table shares with its owner is counted with the owner (and an
    int a list column holds is not counted)."""
    return sum(map(sys.getsizeof, columns)) + sys.getsizeof(far)
