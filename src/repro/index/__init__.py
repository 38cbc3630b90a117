"""Secondary indexes and cost-based query planning over labels.

See :mod:`repro.index.structural` for the index and its incremental
maintenance, :mod:`repro.index.engine` for the sorted-interval merge
execution, and :mod:`repro.index.planner` for the per-step cost model
and the ``explain`` plan records.

The engine/planner half is imported lazily (PEP 562): the store's
flush path needs only :mod:`~repro.index.structural`, and must not
drag the query stack into store-only deployments.
"""

from repro.index.structural import DocumentIndex, build_index

__all__ = [
    "DocumentIndex",
    "build_index",
    "descendant_sweep",
    "execute_index_step",
    "run_query",
]


def __getattr__(name):
    if name in ("descendant_sweep", "execute_index_step"):
        from repro.index import engine
        return getattr(engine, name)
    if name == "run_query":
        from repro.index.planner import run_query
        return run_query
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name))
