"""Durability policies, the log/snapshot directory, and recovery.

Directory layout (one directory per store)::

    wal-00000000.log        record segments, one per generation
    snapshot-00000003.snap  state after every record of generations <= 3

The *generation* counter ties the two together: records append to the
segment of the current generation; compaction seals that segment,
writes a snapshot carrying the same generation number (atomic tmp +
rename), opens the next generation's segment and only then deletes the
files the snapshot made redundant. Every crash point in that sequence
leaves a directory that recovers to the same state.

Record payloads are JSON objects (framed by :mod:`.wal`):

``{"kind": "open", "doc": <document payload>}``
    a document became resident (the payload is the full snapshot-form
    state, so replay restores identifiers and labels exactly);
``{"kind": "batch", "doc_id": ..., "version": n, "clients": k,
"pul": <exchange XML>}``
    one coalesced batch, logged *before* application (write-ahead) —
    version ``n`` is the version the batch produces. A batch whose
    application failed stays in the log and fails again, changing
    nothing, wherever it is replayed;
``{"kind": "close", "doc_id": ...}``
    the document was evicted;
``{"kind": "repl-pos", "seq": n}``
    written by a *replica* store: every leader record below sequence
    ``n`` has been applied (the replication cursor, recovered so a
    restarted replica resumes streaming where it left off — see
    :mod:`repro.cluster`).

Read but never written: ``{"kind": "relabel", "doc_id": ...}``, the
label rebuild older stores logged after a failed batch. It never
changed document bytes; every reader of a log skips it.

One commit path: every record kind above enters the log through
:meth:`DurabilityManager.append` and nothing else calls
``WalWriter.append``. A caller's frames are buffered under the manager
lock, then the caller waits on the *commit train* — one leader fsync
covers everything buffered while the previous one was in flight. After
each successful sync (a leader's, or the seal of a segment rotation)
the manager hands the payloads it just made durable to the replication
listener, still under its lock and before it advances the horizon that
releases the waiters; a train whose fsync failed was rolled back by the
writer and is dropped instead. Hence: acknowledged => durable => on the
stream, and destroyed => raised in its caller => on neither. This is
the seam a fault plane plugs into: one method in, ``os.fsync`` and
``write`` underneath.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time

from repro.errors import DurabilityError, RecoveryError, WalPoisonedError
from repro.obs import SIZE_BUCKETS, StoreObs
from repro.pul.serialize import pul_from_xml
from repro.pul.semantics import apply_pul
from repro.reduction import reduce_deterministic
from repro.store.durability.snapshot import restore_document
from repro.store.durability.wal import (
    WalWriter,
    read_single_record,
    scan_wal,
    truncate_torn_tail,
    write_file_atomically,
)
from repro.xdm.serializer import serialize

_WAL_PATTERN = re.compile(r"^wal-(\d{8})\.log$")
_SNAP_PATTERN = re.compile(r"^snapshot-(\d{8})\.snap$")

DEFAULT_SNAPSHOT_EVERY = 8


class DurabilityPolicy:
    """What the store promises to survive.

    ``off``
        nothing is written; a crash loses every batch (the PR-2
        behaviour).
    ``log``
        every flushed batch is appended to the write-ahead log and
        fsynced before the flush returns: an acknowledged batch is never
        lost, recovery replays the log.
    ``snapshot``
        ``log`` plus compaction: every ``snapshot_every`` batches the
        full store state is snapshotted and the log truncated, bounding
        recovery time by the snapshot interval instead of the session
        length.
    """

    MODES = ("off", "log", "snapshot")

    __slots__ = ("mode", "snapshot_every", "fsync")

    def __init__(self, mode="off", snapshot_every=DEFAULT_SNAPSHOT_EVERY,
                 fsync=True):
        if mode not in self.MODES:
            raise DurabilityError(
                "durability mode must be one of {}, got {!r}".format(
                    "/".join(self.MODES), mode))
        if mode == "snapshot" and snapshot_every < 1:
            raise DurabilityError(
                "snapshot_every must be >= 1, got {}".format(snapshot_every))
        self.mode = mode
        self.snapshot_every = snapshot_every
        self.fsync = fsync

    @property
    def durable(self):
        return self.mode != "off"

    @classmethod
    def parse(cls, spec, fsync=True):
        """Parse a CLI spec: ``off``, ``log``, ``log+snapshot`` or
        ``log+snapshot:N`` (``snapshot[:N]`` is accepted as an alias)."""
        text = (spec or "off").strip().lower()
        if text in ("off", "log"):
            return cls(mode=text, fsync=fsync)
        for prefix in ("log+snapshot", "snapshot"):
            if text == prefix:
                return cls(mode="snapshot", fsync=fsync)
            if text.startswith(prefix + ":"):
                try:
                    every = int(text[len(prefix) + 1:])
                except ValueError:
                    break
                return cls(mode="snapshot", snapshot_every=every,
                           fsync=fsync)
        raise DurabilityError(
            "unknown durability spec {!r} (use off, log, or "
            "log+snapshot[:N])".format(spec))

    def __repr__(self):
        if self.mode == "snapshot":
            return "DurabilityPolicy(log+snapshot:{})".format(
                self.snapshot_every)
        return "DurabilityPolicy({})".format(self.mode)


class LoadedState:
    """What :func:`load_durable_state` found on disk."""

    __slots__ = ("documents", "records", "generation",
                 "snapshot_generation", "clean", "truncated_bytes")

    def __init__(self, documents, records, generation,
                 snapshot_generation, clean, truncated_bytes):
        self.documents = documents      # snapshot document payloads
        self.records = records          # decoded tail records, in order
        self.generation = generation    # generation new appends go to
        self.snapshot_generation = snapshot_generation  # None = no snap
        self.clean = clean              # False = a torn tail was dropped
        self.truncated_bytes = truncated_bytes

    @property
    def empty(self):
        return not self.documents and not self.records


class RecoveryReport:
    """Human- and test-facing summary of one recovery."""

    __slots__ = ("documents", "replayed_batches", "skipped_records",
                 "snapshot_generation", "clean", "truncated_bytes")

    def __init__(self, documents, replayed_batches, skipped_records,
                 snapshot_generation, clean, truncated_bytes):
        self.documents = documents      # [(doc_id, version), ...]
        self.replayed_batches = replayed_batches
        self.skipped_records = skipped_records
        self.snapshot_generation = snapshot_generation
        self.clean = clean
        self.truncated_bytes = truncated_bytes

    def lines(self):
        yield ("recovered {} document(s): {}".format(
            len(self.documents),
            ", ".join("{}@v{}".format(doc_id, version)
                      for doc_id, version in self.documents) or "-"))
        yield ("snapshot generation: {}; replayed {} batch(es), "
               "skipped {} record(s)".format(
                   "none" if self.snapshot_generation is None
                   else self.snapshot_generation,
                   self.replayed_batches, self.skipped_records))
        if not self.clean:
            yield ("torn tail: dropped {} trailing byte(s) of the final "
                   "segment".format(self.truncated_bytes))


def encode_payload(record):
    """JSON-encode one record dict (canonical form, UTF-8)."""
    return json.dumps(record, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def decode_payload(payload):
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RecoveryError(
            "undecodable log record: {}".format(exc)) from exc
    if not isinstance(record, dict) or "kind" not in record:
        raise RecoveryError(
            "log record is not a tagged object: {!r}".format(record))
    return record


def _scan_directory(directory):
    """Return ``(wal_generations, snapshot_generations)`` maps
    ``generation -> path`` for ``directory``."""
    wals, snaps = {}, {}
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return wals, snaps
    for name in names:
        match = _WAL_PATTERN.match(name)
        if match:
            wals[int(match.group(1))] = os.path.join(directory, name)
        match = _SNAP_PATTERN.match(name)
        if match:
            snaps[int(match.group(1))] = os.path.join(directory, name)
    return wals, snaps


def load_durable_state(directory, repair=True):
    """Read a durability directory back into a :class:`LoadedState`.

    Picks the newest validating snapshot, decodes the record tail of
    every later segment, and (with ``repair=True``) truncates a torn
    final segment to its valid prefix so appends can resume in place. A
    torn *non-final* segment means records were lost in the middle of
    the history and raises :class:`RecoveryError`.
    """
    wals, snaps = _scan_directory(directory)
    documents = []
    snapshot_generation = None
    for generation in sorted(snaps, reverse=True):
        payload = read_single_record(snaps[generation])
        if payload is None:
            continue
        snapshot = decode_payload(payload)
        if snapshot.get("kind") != "snapshot":
            continue
        documents = snapshot["docs"]
        snapshot_generation = generation
        break
    base = -1 if snapshot_generation is None else snapshot_generation
    replay_generations = sorted(g for g in wals if g > base)
    expected = list(range(base + 1, base + 1 + len(replay_generations)))
    if replay_generations != expected:
        raise RecoveryError(
            "segment chain has gaps: expected generations {}, found {} "
            "(a snapshot may have rotted after its segments were "
            "compacted away)".format(expected, replay_generations))
    records = []
    clean = True
    truncated = 0
    for index, generation in enumerate(replay_generations):
        path = wals[generation]
        payloads, valid_bytes, segment_clean = scan_wal(path)
        if not segment_clean:
            if index != len(replay_generations) - 1:
                raise RecoveryError(
                    "segment {} is corrupt before its tail; records of "
                    "later segments are unreachable".format(path))
            clean = False
            truncated = os.path.getsize(path) - valid_bytes
            if repair:
                truncate_torn_tail(path, valid_bytes)
        records.extend(decode_payload(p) for p in payloads)
    generation = max([base + 1] + replay_generations) if (
        wals or snaps) else 0
    return LoadedState(documents, records, generation,
                       snapshot_generation, clean, truncated)


class DurabilityManager:
    """Owns one durability directory on behalf of one store.

    Thread-safe: :meth:`append` calls from concurrent flushes, opens and
    closes buffer their frames under an internal lock and share fsyncs;
    compaction swaps the active segment under the same lock.
    """

    def __init__(self, directory, policy, group_window=0.0, obs=None):
        if not policy.durable:
            raise DurabilityError(
                "a DurabilityManager needs a durable policy, got "
                "{!r}".format(policy))
        self.directory = directory
        self.policy = policy
        #: the owning store's observability facade; a standalone
        #: manager gets a disabled one (no-op metrics, spans still
        #: attach to any active trace)
        self._obs = obs if obs is not None else StoreObs(enabled=False)
        self._m_fsyncs = self._obs.counter(
            "repro_wal_fsyncs_total", "WAL fsyncs issued")
        self._m_records = self._obs.counter(
            "repro_wal_records_total", "WAL records appended")
        self._m_bytes = self._obs.counter(
            "repro_wal_bytes_total", "WAL record payload bytes appended")
        self._m_rotations = self._obs.counter(
            "repro_wal_rotations_total", "WAL segment rotations")
        self._m_train = self._obs.histogram(
            "repro_wal_train_records",
            "Records made durable by one group-commit fsync",
            buckets=SIZE_BUCKETS)
        #: extra seconds a commit-train leader waits before its fsync so
        #: more concurrent appends can board (0 = fsync immediately; the
        #: train still forms naturally while a previous fsync is in
        #: flight, so the default adds no latency under low concurrency)
        self.group_window = group_window
        self._lock = threading.Lock()
        self._commit_cv = threading.Condition()
        self._sync_leader = False
        self._writer = None
        #: payloads buffered since the last sync, in log order: the
        #: train the next sync makes durable (and hands to the feed) or
        #: destroys (and drops)
        self._boarded = []
        #: ``(writer, offset)``: the horizon waiters are released by.
        #: It trails ``writer.synced_size`` by the hand-off to the feed,
        #: so a caller told "durable" finds its record on the stream
        self._settled = (None, 0)
        self.generation = 0
        self.batches_since_snapshot = 0
        #: optional replication listener (see :mod:`repro.cluster.feed`):
        #: ``on_commit(payloads)`` with the records each successful sync
        #: made durable, in log order, before any of their writers is
        #: acknowledged. Lock order is manager -> listener: the hook runs
        #: under the manager lock and must never call back into the
        #: manager.
        self.feed_listener = None
        os.makedirs(directory, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def _wal_path(self, generation):
        return os.path.join(self.directory,
                            "wal-{:08d}.log".format(generation))

    def _snap_path(self, generation):
        return os.path.join(self.directory,
                            "snapshot-{:08d}.snap".format(generation))

    # -- lifecycle -----------------------------------------------------------

    def load(self):
        """Read the directory's durable state (no writer is opened)."""
        state = load_durable_state(self.directory)
        self.generation = state.generation
        return state

    def start(self):
        """Open the active segment for appending (idempotent)."""
        with self._lock:
            if self._writer is None:
                self._open_segment()

    def _open_segment(self):
        self._writer = WalWriter(self._wal_path(self.generation),
                                 fsync=self.policy.fsync)
        self._settled = (self._writer, self._writer.synced_size)

    def close(self):
        with self._lock:
            if self._writer is not None:
                self._settle(self._writer.close)
                self._writer = None
                self._settled = (None, 0)

    def wal_position(self):
        """``(generation, synced byte offset)`` of the write-ahead log
        right now (what ``cluster status`` shows for a leader)."""
        with self._lock:
            return self.generation, self._settled[1]

    # -- the commit path -----------------------------------------------------

    def append(self, records):
        """Make ``records`` durable — THE way anything enters the log.

        The frames are only buffered (``sync=False``) under the manager
        lock, all of them together; durability comes from one *leader*
        fsync that covers every record buffered while the previous fsync
        was in flight. N concurrent callers therefore pay ~1 fsync
        instead of N — the cross-client group commit — and no caller
        returns before its own records are behind the synced horizon
        and on the replication stream. A failed fsync destroys every
        record of its train and raises in each of their callers. The
        records of one call are written together: a *write* that fails
        midway through them cuts the segment back to where the call
        began, so a refused call leaves nothing for the next train.
        """
        payloads = [encode_payload(record) for record in records]
        if not payloads:
            return
        batches = sum(record["kind"] == "batch" for record in records)
        with self._obs.stage("wal-append"):
            with self._lock:
                writer = self._writer
                if writer is None:
                    raise DurabilityError(
                        "durability manager is not started (or already "
                        "closed)")
                epoch = writer.rollback_epoch
                end = writer.append(*payloads, sync=False)
                self._boarded.extend(payloads)
                # counted here, under the lock begin_rotation resets
                # the count under
                self.batches_since_snapshot += batches
            # outside the manager lock: the append critical section is
            # the group commit's contention point
            self._m_records.inc(len(payloads))
            self._m_bytes.inc(sum(map(len, payloads)))
        with self._obs.stage("fsync-wait"):
            self._ride_train(writer, end, epoch)

    def _ride_train(self, writer, end, epoch):
        """Return once the record ending at ``end`` is durable; raise
        when a failed fsync destroyed it."""
        led = False
        while True:
            with self._commit_cv:
                while True:
                    status = self._commit_status(writer, end, epoch)
                    if status is not None or not self._sync_leader:
                        break
                    # every sync ends in a notify: the leader's below,
                    # rotation's seal in begin_rotation
                    self._commit_cv.wait()
                if status == "durable":
                    return
                if status == "lost":
                    raise DurabilityError(
                        "log record was destroyed by a failed-fsync "
                        "rollback before it reached disk")
                if led:
                    # our own sync settled nothing: the writer refuses
                    # to (a torn append it could not roll back)
                    raise WalPoisonedError(
                        "log writer for {} is poisoned: the record "
                        "cannot be made durable".format(writer.path))
                self._sync_leader = True
            # leader: one fsync for every record buffered so far
            try:
                if self.group_window:
                    time.sleep(self.group_window)
                with self._lock:
                    if self._writer is writer:
                        try:
                            self._settle(writer.sync)
                        except DurabilityError:
                            # the epoch bump marks every destroyed
                            # record; each waiter (and this thread, via
                            # the re-check above) raises for its own
                            pass
            finally:
                with self._commit_cv:
                    self._sync_leader = False
                    self._commit_cv.notify_all()
            led = True

    def _settle(self, sync):
        """Run ``sync`` (the active writer's ``sync`` or ``close``) and
        settle the train it covers: hand the boarded payloads to the
        feed listener and only then advance the horizon waiters watch.
        A sync that raises has rolled the train's bytes back, so its
        payloads are dropped with them: synced <=> on the stream.
        Caller holds the manager lock."""
        writer = self._writer
        boarded, self._boarded = self._boarded, []
        sync()
        if writer.synced_size < writer.size:
            return      # a poisoned writer returns without syncing
        self._m_fsyncs.inc()
        if boarded:
            self._m_train.observe(len(boarded))
            if self.feed_listener is not None:
                self.feed_listener.on_commit(boarded)
        self._settled = (writer, writer.synced_size)

    def _commit_status(self, writer, end, epoch):
        """``"durable"`` / ``"lost"`` / ``None`` (still in flight) for a
        record ending at ``end``, appended at rollback epoch ``epoch``."""
        if writer.rollback_epoch > epoch:
            # the first rollback after the append decides the record's
            # fate once and for all: behind the horizon then -> durable
            # (truncation never cuts below the synced horizon), past it
            # -> destroyed. The *current* horizon cannot be trusted in
            # this case — other records may have re-filled the destroyed
            # record's byte range and pushed it beyond ``end``.
            return ("durable" if writer.rollback_targets[epoch] >= end
                    else "lost")
        settled_writer, horizon = self._settled
        if writer is not settled_writer or horizon >= end:
            # a writer no longer active was sealed by rotation or close:
            # that synced every record, and a failed seal would have
            # bumped the epoch above
            return "durable"
        return None

    def log_open(self, *document_payloads):
        """One ``open`` record per payload; several board one train (a
        bulk-load chunk pays ~1 fsync, not one per document)."""
        self.append([{"kind": "open", "doc": payload}
                     for payload in document_payloads])

    def log_batch(self, doc_id, version, clients, pul_xml):
        self.append([{"kind": "batch", "doc_id": doc_id,
                      "version": version, "clients": clients,
                      "pul": pul_xml}])

    def log_close(self, doc_id):
        self.append([{"kind": "close", "doc_id": doc_id}])

    def log_position(self, seq, stream=None):
        """A replica's replication cursor: every leader record below
        ``seq`` of stream ``stream`` is applied (and therefore in this
        log)."""
        record = {"kind": "repl-pos", "seq": seq}
        if stream is not None:
            record["stream"] = stream
        self.append([record])

    def snapshot_due(self):
        return (self.policy.mode == "snapshot"
                and self.batches_since_snapshot >= self.policy.snapshot_every)

    # -- compaction ----------------------------------------------------------

    def begin_rotation(self):
        """Seal the active segment and open the next one; return the
        sealed generation.

        Every record appended before this call is in generations
        ``<= sealed``; every later append lands in ``sealed + 1``. No
        file is deleted — a crash between this call and
        :meth:`commit_snapshot` leaves a fully contiguous
        snapshot+segment chain, the rotation simply never happened as
        far as recovery is concerned. The seal is a sync like a train
        leader's: what it made durable is on the feed before the method
        returns, so compaction may delete the sealed files.
        """
        with self._lock:
            sealed = self.generation
            if self._writer is not None:
                self._settle(self._writer.close)
            self._m_rotations.inc()
            self.generation = sealed + 1
            self._open_segment()
            self.batches_since_snapshot = 0
        with self._commit_cv:
            self._commit_cv.notify_all()
        return sealed

    def commit_snapshot(self, sealed, document_payloads):
        """Write ``snapshot-<sealed>.snap`` atomically and delete the
        files it supersedes.

        ``document_payloads`` must describe a state at or *past* the end
        of generation ``sealed`` (captured after :meth:`begin_rotation`
        returned): recovery loads the snapshot and replays generations
        ``> sealed``, absorbing any overlap idempotently. A state
        *behind* the seal would lose records — that ordering is the
        caller's contract.
        """
        with self._lock:
            payload = encode_payload({
                "kind": "snapshot", "generation": sealed,
                "docs": list(document_payloads)})
            write_file_atomically(self._snap_path(sealed), payload)
            wals, snaps = _scan_directory(self.directory)
            superseded = (
                [path for generation, path in wals.items()
                 if generation <= sealed]
                + [path for generation, path in snaps.items()
                   if generation < sealed])
            for path in superseded:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return sealed


# -- the stateless recovery oracle -------------------------------------------


def replay_oracle(directory):
    """Replay a durability directory the way :class:`StatelessBaseline`
    would process the batches: sequential deterministic reduction, the
    in-memory evaluator, producer identifiers preserved — none of the
    incremental machinery under test.

    Returns ``{doc_id: (serialized text, version)}`` for every document
    resident at the end of the log. Byte-equality of the recovered
    store against this oracle is the recovery correctness property: it
    holds because logged batches carry their labels, per-shard reduction
    merges to the sequential reduction, and the store's in-place applier
    and the in-memory evaluator assign identical fresh identifiers.
    """
    state = load_durable_state(directory, repair=False)
    entries = {}
    versions = {}
    for payload in state.documents:
        restored = restore_document(payload)
        entries[restored.doc_id] = restored.document
        versions[restored.doc_id] = restored.counters["version"]
    for record in state.records:
        kind = record["kind"]
        if kind == "open":
            restored = restore_document(record["doc"])
            entries[restored.doc_id] = restored.document
            versions[restored.doc_id] = restored.counters["version"]
        elif kind == "close":
            entries.pop(record["doc_id"], None)
            versions.pop(record["doc_id"], None)
        elif kind == "relabel":
            continue  # from an older store; never changed document bytes
        elif kind == "repl-pos":
            continue  # a replica's replication cursor, not state
        elif kind == "batch":
            doc_id = record["doc_id"]
            document = entries.get(doc_id)
            if document is None:
                raise RecoveryError(
                    "batch record for unknown document {!r}".format(doc_id))
            if record["version"] <= versions[doc_id]:
                continue  # already covered (post-divergence duplicate)
            try:
                reduced = reduce_deterministic(
                    pul_from_xml(record["pul"]))
                reduced.check_compatible()
                working = document.copy()
                apply_pul(working, reduced, check=False, preserve_ids=True)
            except Exception:
                continue  # the store skipped this batch too
            entries[doc_id] = working
            versions[doc_id] = record["version"]
        else:
            raise RecoveryError(
                "unknown record kind {!r}".format(kind))
    return {doc_id: (serialize(document), versions[doc_id])
            for doc_id, document in entries.items()}
