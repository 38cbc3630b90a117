"""The operation registry — single source of truth for the API surface.

Every protocol operation is declared here exactly once: its wire name,
its **append-only v2 op code** (codes are never reused for a different
meaning once released; new ops on old peers ride the 0xFF named-op
escape), the dispatcher method that implements it,
its argument contract, and the documentation cells the generated
tables in ``api/README.md`` are built from.

Downstream derivations:

- :data:`OP_CODES` / ``protocol.OP_NAMES`` — the v2 binary codec's
  compact op encoding;
- :meth:`StoreServer.DISPATCH <repro.api.server.StoreServer>` — the
  ``op -> (method, required, optional)`` table via
  :func:`dispatch_table`;
- :data:`POLL_OPS` — operations that long-poll (park a thread waiting
  for feed progress) and therefore run on the server's dedicated
  follower executor, never queueing behind or ahead of writes;
- :data:`LOCK_FREE_OPS` — reads that only pin a published version and
  never wait on a store, flush or WAL lock, which the server may
  therefore run on its event loop when their input is small;
- the op tables of ``api/README.md`` via :mod:`repro.api.docgen`
  (drift-checked in CI).
"""

from __future__ import annotations


class OpSpec:
    """One operation's complete wire-facing declaration."""

    __slots__ = ("name", "code", "method", "required", "optional",
                 "result", "doc", "group", "poll", "lock_free")

    def __init__(self, name, code, method, required=(), optional=(),
                 result="", doc="", group="core", poll=False,
                 lock_free=False):
        self.name = name
        self.code = code
        self.method = method
        self.required = tuple(required)
        self.optional = tuple(optional)
        self.result = result
        self.doc = doc
        self.group = group
        self.poll = poll
        self.lock_free = lock_free

    def __repr__(self):
        return "OpSpec({!r}, code={})".format(self.name, self.code)


#: 12-14 were replicate-subscribe / wal-segment / snapshot-transfer
#: (replicas now follow through subscribe + export). Retired codes are
#: never reassigned: an old peer still sending one must get "unknown
#: op", never another operation's behaviour
RETIRED_CODES = frozenset({12, 13, 14})

#: every operation, in op-code order. Codes are append-only.
OPS = (
    OpSpec(
        "hello", 0, None,
        required=("versions",), optional=("client",),
        result="`version`, `server`, `client`, `features` (negotiated "
               "extras, e.g. `trace` = requests may carry a trace id)",
        doc="version negotiation; always one JSON frame each way"),
    OpSpec(
        "open", 1, "open",
        required=("doc_id", "xml"),
        result="`doc_id`, `nodes`, `version`"),
    OpSpec(
        "submit", 2, "submit",
        required=("doc_id", "pul"), optional=("client",),
        result="`doc_id`, `ops`, `depth`"),
    OpSpec(
        "submit_xquery", 3, "submit_xquery",
        required=("doc_id", "query"), optional=("client",),
        result="`doc_id`, `ops`, `depth`"),
    OpSpec(
        "flush", 4, "flush",
        required=("doc_id",),
        result="`flushed`, and when true: `version`, `clients`, "
               "`submitted_ops`, `reduced_ops`, `relabel`, "
               "`max_code_length`"),
    OpSpec(
        "flush_all", 5, "flush_all",
        result="`batches`, `ops`, `results`"),
    OpSpec(
        "discard", 6, "discard",
        required=("doc_id",),
        result="`doc_id`, `discarded`"),
    OpSpec(
        "text", 7, "text",
        required=("doc_id",), lock_free=True,
        result="`doc_id`, `text`, `version`"),
    OpSpec(
        "stats", 8, "stats",
        optional=("doc_id",),
        result="`stats`: list of per-document counter objects"),
    OpSpec(
        "docs", 9, "docs",
        result="`docs`: resident ids"),
    OpSpec(
        "snapshot", 10, "snapshot",
        result="`generation`"),
    OpSpec(
        "query", 11, "query",
        required=("doc_id", "path"), lock_free=True,
        result="`doc_id`, `version`, `count`, `nodes` (serialized, "
               "document order)"),
    # 12-14: RETIRED_CODES
    OpSpec(
        "promote", 15, "promote",
        optional=("allow_non_durable",), group="replication",
        result="`role`, `promoted`, `applied_seq` — converts the "
               "*replica* answering into a leader (manual failover; "
               "idempotent). A WAL-less replica is refused unless "
               "`allow_non_durable` (last-resort salvage)"),
    # CDC & bulk ETL (PR 8): the change feed as a public surface
    OpSpec(
        "subscribe", 16, "subscribe",
        optional=("from_token", "doc_ids", "decode", "max_events",
                  "wait_s", "subscriber"),
        group="cdc", poll=True,
        result="`events` (decoded, or raw `{seq, token, record}` log "
               "records with `decode: false` — what replicas apply), "
               "`token` (resume token covering everything scanned), "
               "`end_seq`, `stream`; long-polls up to `wait_s`; "
               "`subscription-lagged` when the token fell out of the "
               "backlog, `resume-expired` on a stream-epoch mismatch "
               "or a sequence past the stream end"),
    OpSpec(
        "unsubscribe", 17, "unsubscribe",
        required=("subscriber",), group="cdc",
        result="`subscriber`, `forgotten`"),
    OpSpec(
        "bulk-import", 18, "bulk_import",
        required=("docs",), group="cdc",
        result="`loaded`, `nodes`, `doc_ids` — the chunk becomes "
               "resident atomically under one group fsync"),
    OpSpec(
        "export", 19, "export",
        optional=("doc_ids", "cursor", "max_docs", "format"),
        group="cdc",
        result="`docs`, `cursor` (pagination key), `done`, `seq`, "
               "`stream`, `token` (resume anchor read before the "
               "payloads were pinned; `None` without replication). "
               "`format: \"state\"` pages are the follower bootstrap: "
               "anchor at the *first* page's token"),
    # secondary indexes & query planning (PR 9)
    OpSpec(
        "explain", 20, "explain",
        required=("doc_id", "path"), lock_free=True,
        result="`doc_id`, `version`, `path`, `count`, `plan` — the "
               "recorded per-step plan (`index-scan` vs. `walk`, "
               "bucket and estimate sizes) the cost model chose; the "
               "query runs against one pinned version, so `count` "
               "matches what `query` would return"),
    # observability (PR 10)
    OpSpec(
        "metrics", 21, "metrics",
        optional=("format", "traces", "slow"),
        result="the metrics snapshot: `counters`, `gauges`, "
               "`histograms` (per-series values), `uptime_seconds`, "
               "`metrics_enabled`; `traces=N` adds the last N recorded "
               "span trees, `slow=N` the last N slow-log entries; "
               "`format: \"prometheus\"` returns `{text}` (the text "
               "exposition) instead"),
)

#: ``name -> spec``
OP_SPECS = {spec.name: spec for spec in OPS}

#: the v2 codec's compact op encoding (append-only, never reused)
OP_CODES = {spec.name: spec.code for spec in OPS}

#: long-polling ops served from the dedicated follower executor
POLL_OPS = frozenset(spec.name for spec in OPS if spec.poll)

#: ops that pin one published version and take no lock a writer, an
#: ``open`` or the log can hold (``docs`` and ``stats`` do not qualify:
#: they take the store lock, which ``open`` and ``close`` hold while
#: their record is made durable)
LOCK_FREE_OPS = frozenset(spec.name for spec in OPS if spec.lock_free)


def dispatch_table():
    """``op -> (dispatcher method, required, optional)`` for every op
    with a server-side implementation (``hello`` is handled by the
    connection layer before dispatch)."""
    return {spec.name: (spec.method, spec.required, spec.optional)
            for spec in OPS if spec.method is not None}


def _check_registry(ops=OPS):
    codes = [spec.code for spec in ops]
    if len(set(codes)) != len(codes):
        raise ValueError("duplicate op codes in the registry")
    if len({spec.name for spec in ops}) != len(ops):
        raise ValueError("duplicate op names in the registry")
    if codes != sorted(codes):
        raise ValueError("registry must stay in op-code order")
    if any(code >= 0xFF for code in codes):
        raise ValueError("op code collides with the named-op escape")
    if RETIRED_CODES.intersection(codes):
        raise ValueError("op code was retired and is never reassigned")


_check_registry()
