"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so that callers can catch
library failures with a single ``except`` clause while still being able to
distinguish the individual failure modes the paper talks about (dynamic
errors on PUL application, incompatible operations, unsolvable conflicts,
...).

Every subclass carries a stable machine-readable :attr:`~ReproError.code`
(kebab-case, never reused for a different meaning once released): the wire
protocol of :mod:`repro.api` ships errors as ``{"code", "message",
"details"}`` objects, the CLI prefixes its diagnostics with the code so
output stays greppable, and :meth:`ReproError.from_dict` reconstructs the
matching subclass on the client side so ``except UnknownNodeError:`` works
identically against a local store and a remote one.
"""

from __future__ import annotations

#: ``code -> subclass`` registry behind :meth:`ReproError.from_dict`;
#: populated by ``__init_subclass__`` as the hierarchy is defined
_CODE_REGISTRY = {}


class ReproError(Exception):
    """Base class for every error raised by the library."""

    #: stable machine-readable error code (see the module docstring)
    code = "repro"
    wire_doc = ("generic library failure (also: unknown codes from "
                "newer servers)")

    #: attribute names copied into ``to_dict()``'s ``details`` object
    #: (values must be JSON-serializable; informational on the far side)
    detail_attrs = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # first definition wins so a released code can never silently
        # change meaning; subclasses inheriting their parent's code
        # (no own `code` in the class body) do not re-register it
        if "code" in cls.__dict__:
            _CODE_REGISTRY.setdefault(cls.code, cls)

    def to_dict(self):
        """The wire form: ``{"code", "message", "details"}``.

        ``details`` carries the subclass's declared extras
        (:attr:`detail_attrs`) when they serialize as JSON scalars;
        anything richer (operation objects, conflicts) is already part
        of the message text.
        """
        details = {}
        for name in self.detail_attrs:
            value = getattr(self, name, None)
            if value is None or isinstance(value, (str, int, float, bool)):
                details[name] = value
        payload = {"code": self.code, "message": str(self)}
        if details:
            payload["details"] = details
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Reconstruct the error named by ``payload["code"]``.

        Subclass constructors take structured arguments (operations,
        conflicts) that do not travel on the wire, so reconstruction
        bypasses ``__init__``: the instance is allocated directly, the
        message is installed, and the JSON-scalar details are restored
        as attributes. An unknown code degrades to a plain
        :class:`ReproError` (a newer server must not crash an older
        client).
        """
        code = payload.get("code", "repro")
        klass = _CODE_REGISTRY.get(code, ReproError)
        error = klass.__new__(klass)
        Exception.__init__(error, payload.get("message", code))
        for name in klass.detail_attrs:
            setattr(error, name, (payload.get("details") or {}).get(name))
        return error


# ReproError itself never goes through __init_subclass__
_CODE_REGISTRY[ReproError.code] = ReproError


class XMLSyntaxError(ReproError):
    """Raised by the XML parser on malformed input.

    Carries the position of the offending character so error messages can
    point at the input.
    """

    code = "xml-syntax"
    wire_doc = "malformed document text (`details.position`)"
    detail_attrs = ("position",)

    def __init__(self, message, position=None):
        if position is not None:
            message = "{} (at offset {})".format(message, position)
        super().__init__(message)
        self.position = position


class DocumentError(ReproError):
    """Raised on invalid document manipulation (unknown node, bad shape)."""

    code = "document"
    wire_doc = "invalid document manipulation"


class UnknownNodeError(DocumentError):
    """Raised when a node id does not belong to the document."""

    code = "unknown-node"
    wire_doc = "node id not in the document (`details.node_id`)"
    detail_attrs = ("node_id",)

    def __init__(self, node_id):
        super().__init__("unknown node id: {!r}".format(node_id))
        self.node_id = node_id


class InvalidOperationError(ReproError):
    """Raised when an update operation is constructed with invalid
    parameters (violating the static conditions of Table 2)."""

    code = "invalid-operation"
    wire_doc = ("static-condition violation on an update op (Table "
                "2)")


class NotApplicableError(ReproError):
    """Raised when an operation or a PUL is not applicable on a document
    (Definition 1 / Definition 4): unknown target, type mismatch, or
    incompatible operations.
    """

    code = "not-applicable"
    wire_doc = "PUL not applicable (Definition 1/4)"


class IncompatibleOperationsError(NotApplicableError):
    """Raised when a PUL contains incompatible operations (Definition 3),
    e.g. two renames of the same node."""

    code = "incompatible-operations"
    wire_doc = "incompatible ops in one PUL (Definition 3)"

    def __init__(self, op1, op2):
        super().__init__(
            "incompatible operations on node {}: {} / {}".format(
                op1.target, op1.describe(), op2.describe()))
        self.op1 = op1
        self.op2 = op2


class MergeError(ReproError):
    """Raised when two PULs cannot be merged (Definition 5)."""

    code = "merge"
    wire_doc = "PULs cannot be merged (Definition 5)"


class SerializationError(ReproError):
    """Raised on malformed PUL exchange documents."""

    code = "serialization"
    wire_doc = "malformed PUL exchange document"


class LabelingError(ReproError):
    """Raised on invalid labeling-scheme use (e.g. no room semantics bugs,
    labels from different schemes compared)."""

    code = "labeling"
    wire_doc = "invalid labeling-scheme use"


class ReconciliationError(ReproError):
    """Raised when conflict resolution cannot find a valid reconciliation
    satisfying the producers' policies (Algorithm 3 abort)."""

    code = "reconciliation"
    wire_doc = "no valid reconciliation (Algorithm 3 abort)"
    detail_attrs = ("reason",)

    def __init__(self, conflict, reason):
        super().__init__(
            "reconciliation failed on conflict of type {}: {}".format(
                conflict.conflict_type, reason))
        self.conflict = conflict
        self.reason = reason


class DurabilityError(ReproError):
    """Raised on write-ahead-log or snapshot failures (bad frames outside
    the tolerated torn tail, unwritable durability directories, ...)."""

    code = "durability"
    wire_doc = ("WAL/snapshot failure, snapshot on a non-durable "
                "store")


class WalPoisonedError(DurabilityError):
    """Raised when the write-ahead log can no longer accept records: an
    earlier I/O failure left a torn record that could not be rolled back
    (the writer poisoned itself), or the log was already closed. The
    store must stop acknowledging batches — a record framed behind torn
    bytes would be unreachable to recovery."""

    code = "wal-poisoned"
    wire_doc = ("the write-ahead log can no longer accept records; "
                "the store stops acknowledging batches")


class RecoveryError(DurabilityError):
    """Raised when a durable state cannot be reconstructed (no valid
    snapshot generation, replay diverging from the logged versions)."""

    code = "recovery"
    wire_doc = "durable state cannot be reconstructed"


class RemoteOSError(ReproError):
    """Client-side reconstruction of an operating-system failure the
    server hit while executing a command (``OSError`` — disk full,
    permission denied, ...). The server wraps raw ``OSError`` under the
    stable code ``"os"``; registering a class for it means the code
    round-trips to a dedicated type instead of degrading to the base
    :class:`ReproError`."""

    code = "os"
    wire_doc = ("server-side `OSError` (disk full, permission "
                "denied, ...) hit while executing a command")


class ProtocolError(ReproError):
    """Raised on wire-protocol violations (:mod:`repro.api.protocol`):
    malformed or oversized frames, non-JSON payloads, requests missing
    required fields, or a failed protocol-version negotiation."""

    code = "protocol"
    wire_doc = ("malformed frame/request, failed negotiation, "
                "unknown op")


class ConnectionLostError(ProtocolError):
    """Raised client-side when the transport died mid-conversation
    (EOF mid-response, reset while sending). Distinct from a
    server-*reported* protocol violation so routing clients know the
    failure names the node, not the request — retrying elsewhere is
    sound."""

    code = "connection-lost"
    wire_doc = ("client-side only: the transport died "
                "mid-conversation (EOF mid-response, reset) — the "
                "failure names the node, not the request, so routers "
                "retry elsewhere")


class ClusterError(ReproError):
    """Base error of the replication subsystem (:mod:`repro.cluster`):
    misconfigured roles, replication feeds on non-durable stores, ..."""

    code = "cluster"
    wire_doc = ("replication misuse (replication op on a "
                "non-replicating node, promote on a plain store, "
                "stream gap)")


class NotLeaderError(ClusterError):
    """Raised when a write (or any leader-only operation) reaches a
    replica. Carries the leader's address so routing clients
    (:class:`~repro.cluster.client.ClusterClient`) can follow the
    redirect instead of surfacing the failure."""

    code = "not-leader"
    wire_doc = ("a write (or replication-stream op) reached a "
                "replica; `details.leader` carries the leader's "
                "`host:port` so routing clients follow the redirect")
    detail_attrs = ("leader",)

    def __init__(self, leader=None, operation=None):
        hint = (" (leader: {})".format(leader) if leader
                else " (no known leader)")
        what = operation or "write"
        super().__init__(
            "this node is a replica and cannot accept {}{}".format(
                what, hint))
        self.leader = leader


class SubscriptionLaggedError(ClusterError):
    """Raised when a follower (a replica or any other subscriber)
    resumes from a sequence the leader has already trimmed from its
    bounded backlog. It missed records that can never be redelivered;
    it must re-bootstrap from an ``export`` of the current state before
    resuming."""

    code = "subscription-lagged"
    wire_doc = ("a resume point fell out of the retained backlog "
                "(`details.first_seq`); re-bootstrap via `export` "
                "before resuming")
    detail_attrs = ("first_seq",)

    def __init__(self, requested, first_seq):
        super().__init__(
            "subscription lagged: sequence {} was trimmed from the "
            "change feed (oldest available: {}); re-bootstrap before "
            "resuming".format(requested, first_seq))
        self.first_seq = first_seq


class ResumeExpiredError(ClusterError):
    """Raised when a resume token names a position this feed never
    issued: a different stream epoch (the node restarted or a failover
    promoted a new leader, renumbering the feed), or a sequence past
    the stream end. Positions never carry across epochs; the follower
    must re-bootstrap and take a fresh token."""

    code = "resume-expired"
    wire_doc = ("the resume token names a position this feed never "
                "issued (a restart or failover renumbered the stream, "
                "or the sequence is past its end); re-bootstrap and "
                "take a fresh token")
    detail_attrs = ("token_stream", "stream")

    def __init__(self, token_stream, stream):
        super().__init__(
            "resume token of stream epoch {} names a position this "
            "feed (epoch {}) never issued; positions do not carry "
            "across restarts or failovers — re-bootstrap and take a "
            "fresh token".format(token_stream, stream))
        self.token_stream = token_stream
        self.stream = stream


class ImportAbortedError(ReproError):
    """Raised when a bulk import crosses its quality gate: more source
    documents were rejected by the validate stage than ``max_errors``
    allows. Carries the progress counters so the operator knows how
    much of the corpus had already been loaded durably."""

    code = "import-aborted"
    wire_doc = ("bulk import crossed its `max-errors` quality gate "
                "(`details.loaded`, `details.rejected`)")
    detail_attrs = ("loaded", "rejected")

    def __init__(self, loaded, rejected, max_errors):
        super().__init__(
            "bulk import aborted: {} document(s) rejected "
            "(max-errors {}); {} loaded before the abort".format(
                rejected, max_errors, loaded))
        self.loaded = loaded
        self.rejected = rejected


class QueryError(ReproError):
    """Base error for the XQuery Update front end."""

    code = "query"
    wire_doc = "XQuery Update front-end failure"


class QuerySyntaxError(QueryError):
    """Raised on unparsable XQuery Update expressions."""

    code = "query-syntax"
    wire_doc = ("unparsable XQuery Update expression "
                "(`details.position`)")
    detail_attrs = ("position",)

    def __init__(self, message, position=None):
        if position is not None:
            message = "{} (at offset {})".format(message, position)
        super().__init__(message)
        self.position = position


class QueryEvaluationError(QueryError):
    """Raised when a well-formed expression cannot be evaluated
    (e.g. a path selecting no node where exactly one is required)."""

    code = "query-evaluation"
    wire_doc = "well-formed expression that cannot be evaluated"
