"""CRC-framed record log — the framing layer of the durability subsystem.

A log file is a sequence of self-delimiting records::

    +----------+----------------+---------------+-----------------+
    | magic(4) | payload len(4) | crc32(4)      | payload (bytes) |
    +----------+----------------+---------------+-----------------+

All integers are big-endian; the CRC covers the payload only. The format
is torn-write tolerant by construction: a crash mid-append leaves a
truncated (or zero-filled) tail whose header or CRC cannot validate, and
:func:`scan_wal` recovers exactly the longest valid record prefix. A
corrupted record *before* the tail also stops the scan — every record
after it is unreachable (frame boundaries are lost) — which the scan
reports as a non-clean tail so callers can distinguish "torn final
record" from "log ends cleanly".

Writes are fsync-batched: :meth:`WalWriter.append` with ``sync=False``
buffers records (the ones of one call together or not at all) and
:meth:`WalWriter.sync` pushes every buffered one to disk in one
``fsync``. The store's only caller is
:meth:`~repro.store.durability.recovery.DurabilityManager.append`, whose
commit train issues one sync for all the records concurrent callers
buffered meanwhile — which is where the group-commit throughput comes
from. A failed fsync rolls the file back to the synced horizon and says
so (:attr:`WalWriter.rollback_epoch`), so the records it destroyed fail
their callers and are never replicated. Nothing reads a segment while
it is being written: recovery scans closed files, and the replication
feed is handed the synced payloads by the manager.

A snapshot is a file of the same framing — one ``open`` record per
document, then a seal — written whole to a temporary file, fsynced and
renamed into place by :func:`install_file`; recovery reads it with
:func:`scan_wal` like any segment.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.errors import DurabilityError, WalPoisonedError

#: frame magic — also the format version; bump on incompatible changes
MAGIC = b"RWL1"

_HEADER = struct.Struct(">4sII")

#: sanity bound on a single payload (one record: a batch, or one
#: document's ``open`` record, in a segment or in a snapshot)
MAX_PAYLOAD = 1 << 30


def encode_record(payload):
    """Frame ``payload`` (bytes) as one log record."""
    if len(payload) > MAX_PAYLOAD:
        raise DurabilityError(
            "record payload of {} bytes exceeds the {} byte frame bound"
            .format(len(payload), MAX_PAYLOAD))
    return _HEADER.pack(MAGIC, len(payload),
                        zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_records(data):
    """Decode the longest valid record prefix of ``data``.

    Returns ``(payloads, valid_bytes, clean)``: the decoded payloads, how
    many leading bytes of ``data`` they occupy, and whether the scan
    consumed the input exactly (``clean=False`` means a torn or corrupt
    tail follows ``valid_bytes``).
    """
    payloads = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return payloads, offset, False
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != MAGIC or length > MAX_PAYLOAD:
            return payloads, offset, False
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return payloads, offset, False
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return payloads, offset, False
        payloads.append(payload)
        offset = end
    return payloads, offset, True


def scan_wal(path):
    """Decode a log file; missing files read as empty.

    Returns the ``(payloads, valid_bytes, clean)`` triple of
    :func:`scan_records`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, True
    return scan_records(data)


def truncate_torn_tail(path, valid_bytes):
    """Drop everything after the valid record prefix of ``path``."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


class WalWriter:
    """Append-only record writer with batched fsync.

    ``append(*payloads, sync=True)`` frames and writes records;
    ``sync=False`` defers durability to the next :meth:`sync` call
    (group commit). The writer opens in append mode, so recovery can
    resume a truncated segment in place.
    """

    def __init__(self, path, fsync=True):
        self.path = path
        self.fsync = fsync
        existed = os.path.exists(path)
        # unbuffered on purpose: a userspace buffer could flush a
        # half-written record *after* a failed append rolled the file
        # back, re-tearing the segment behind the repair
        self._file = open(path, "ab", buffering=0)
        if fsync and not existed:
            # make the segment's directory entry durable now: fsyncing
            # record bytes into a file whose name never reached disk
            # leaves nothing to recover after power loss
            _fsync_directory(os.path.dirname(path) or ".")
        self._unsynced = 0
        self.appended = 0
        self._size = os.path.getsize(path)
        self._synced_size = self._size
        #: bumped whenever *complete* unsynced records are destroyed by
        #: a failed-fsync rollback; :attr:`rollback_targets` records the
        #: synced horizon each rollback truncated to. A group-commit
        #: waiter that appended at epoch ``e`` consults the target of
        #: bump ``e`` (the first one after its append): a record behind
        #: that horizon was durable then and stays durable forever (the
        #: horizon is monotone and truncation never cuts below it); one
        #: past it was destroyed — even if other records later re-fill
        #: its byte range and push the horizon past its old end offset
        self.rollback_epoch = 0
        self.rollback_targets = []
        self._broken = False

    def append(self, *payloads, sync=True):
        """Write ``payloads`` as consecutive records in one write — all
        of them or, when the write fails, none; returns the end offset
        of the last one in the segment."""
        if self._file is None:
            raise WalPoisonedError(
                "append on a closed log writer ({})".format(self.path))
        if self._broken:
            raise WalPoisonedError(
                "log writer for {} is poisoned: an earlier I/O failure "
                "left a torn record that could not be rolled back, and "
                "a record framed after it would be unreachable to "
                "recovery".format(self.path))
        records = b"".join(encode_record(payload) for payload in payloads)
        try:
            view = memoryview(records)
            while view:
                view = view[self._file.write(view):]
        except OSError as exc:
            # a torn append is cut back to where this call began: none
            # of its records survive, while earlier appended-but-unsynced
            # records — past the synced horizon under group commit —
            # belong to other waiters and must
            self._repair(self._size, exc, "log append failed")
        self._size += len(records)
        self._unsynced += len(payloads)
        self.appended += len(payloads)
        if sync:
            self.sync()
        return self._size

    def sync(self):
        """``fsync`` the file (one syscall for every append since the
        previous sync)."""
        if self._file is None or self._broken or not self._unsynced:
            return
        target = self._size
        try:
            if self.fsync:
                os.fsync(self._file.fileno())
        except OSError as exc:
            # complete-but-unsynced records are destroyed with the torn
            # state: no reader was ever allowed past the synced horizon,
            # and waiters for those records observe the epoch bump
            self.rollback_targets.append(self._synced_size)
            self.rollback_epoch += 1
            self._unsynced = 0
            self._repair(self._synced_size, exc, "log fsync failed")
        self._unsynced = 0
        self._synced_size = target

    @property
    def synced_size(self):
        """Byte offset of the last *synced* record's end.

        Everything below this offset is durable and will never be
        rolled back (bytes past it may still be torn away by a failed
        append's or fsync's repair).
        """
        return self._synced_size

    @property
    def size(self):
        """Byte offset of the last *complete* record's end (the tail a
        failed append rolls back to)."""
        return self._size

    @property
    def closed(self):
        return self._file is None

    def _repair(self, target, exc, what):
        """Cut the segment back to ``target``, dropping torn bytes.

        A failed write truncates to the last complete record; a failed
        fsync truncates to the last synced record (the caller bumps the
        epoch for the complete records that cut destroys). Without the
        repair, the next successful append would frame a record
        *behind* the torn bytes and recovery's prefix scan would
        silently truncate it away. When the repair itself fails the
        writer poisons itself instead of ever appending again.
        """
        try:
            self._file.truncate(target)
            if self.fsync:
                os.fsync(self._file.fileno())
        except OSError as repair_error:
            self._broken = True
            raise WalPoisonedError(
                "{} for {} and the segment could not be rolled back to "
                "a record boundary: {} (writer poisoned)".format(
                    what, self.path, repair_error)) from exc
        self._size = target
        raise DurabilityError(
            "{} for {}: {} (segment rolled back to offset {})".format(
                what, self.path, exc, target)) from exc

    def close(self):
        if self._file is None:
            return
        self.sync()
        self._file.close()
        self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        return "WalWriter({!r}, appended={})".format(self.path,
                                                     self.appended)


def install_file(tmp_path, path):
    """Rename the written file ``tmp_path`` over ``path`` and make the
    rename durable."""
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path) or ".")


def _fsync_directory(path):
    """Make a rename durable (no-op on platforms without dir fds)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
