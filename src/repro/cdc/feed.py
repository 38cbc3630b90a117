""":class:`ChangeFeed` — the subscription view over a replication source.

A feed is a *stateless per-call* wrapper: each :meth:`ChangeFeed.read`
is one long-poll against the underlying
:class:`~repro.cluster.feed.ReplicationSource`, anchored by a resume
token (:mod:`repro.cdc.tokens`) instead of a raw sequence number. That
keeps subscription state entirely client-side — the server holds no
per-subscriber cursors, so a subscriber can disconnect, crash, move to
another process and resume from its last token, and a leader failover
invalidates nothing but the tokens themselves (the epoch fence turns
them into a typed :class:`~repro.errors.ResumeExpiredError`).

Delivery is **at-least-once**: a subscriber that crashes after applying
events but before persisting its token re-receives them on resume.
Consumers absorb duplicates with the per-document version counter every
``batch``/``open`` record carries (see
:class:`~repro.cdc.mirror.DocumentMirror` for the reference apply loop).

Filtering happens feed-side, but the returned token always covers every
*scanned* record — filtered-out records are acknowledged, not
redelivered, so a single-document subscriber does not re-scan the whole
stream on every resume.
"""

from __future__ import annotations

import time

from repro.cdc.tokens import decode_token, encode_token
from repro.cluster.feed import (
    DEFAULT_SEGMENT_RECORDS,
    MAX_WAIT_S,
)
from repro.errors import ResumeExpiredError
from repro.pul.serialize import pul_from_xml


class ChangeFeed:
    """Per-call subscription reads over one ``ReplicationSource``.

    Construct one per request (it holds no state beyond the source
    reference); the dispatcher does exactly that, so a ``promote``
    swapping the store's source never leaves a stale feed behind.
    """

    def __init__(self, source):
        self.source = source

    @property
    def stream(self):
        return self.source.stream_id

    def tail_token(self):
        """A token anchored at the live end of the stream (events
        logged after this call will be delivered; history will not)."""
        return encode_token(self.stream, self.source.next_seq)

    def resolve(self, token):
        """Epoch-check a token; returns the sequence it names.

        Raises :class:`ResumeExpiredError` when the token belongs to a
        different stream epoch — after a restart or failover, positions
        from the old timeline are meaningless on the new one.
        """
        stream, seq = decode_token(token)
        if stream != self.stream:
            raise ResumeExpiredError(stream, self.stream)
        return seq

    def read(self, from_token=None, doc_ids=None, decode=True,
             max_events=None, wait_s=0.0, subscriber=None):
        """One subscription poll.

        Returns ``{"events", "token", "end_seq", "stream"}``: up to
        ``max_events`` events at or after ``from_token`` (the live tail
        when ``None``), the resume token covering everything scanned,
        and the stream end/epoch at response time. Long-polls up to
        ``wait_s`` seconds (capped at :data:`MAX_WAIT_S`) when no event
        matching the ``doc_ids`` filter is available yet.

        Raises :class:`~repro.errors.SubscriptionLaggedError` when the
        token names a sequence the backlog no longer retains, and
        :class:`ResumeExpiredError` on an epoch mismatch or a sequence
        past the stream end.
        """
        source = self.source
        if from_token is None:
            cursor = source.next_seq
        else:
            cursor = self.resolve(from_token)
        limit = (DEFAULT_SEGMENT_RECORDS if max_events is None
                 else max(1, int(max_events)))
        deadline = time.monotonic() + min(max(0.0, float(wait_s)),
                                          MAX_WAIT_S)
        filters = (None if doc_ids is None
                   else {str(doc_id) for doc_id in doc_ids})
        events = []
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            records, cursor, end_seq = source.read_from(
                cursor, limit=limit, wait_s=remaining,
                replica=subscriber)
            for item in records:
                event = self._event(item, filters, decode)
                if event is not None:
                    events.append(event)
            # return when something matched, or when the poll is
            # exhausted (no records left and no time to wait for more);
            # a batch that was entirely filtered out loops immediately —
            # the time budget is shared, not per-read
            if events or (not records
                          and time.monotonic() >= deadline):
                return {"events": events,
                        "token": encode_token(self.stream, cursor),
                        "end_seq": end_seq,
                        "stream": self.stream}

    # -- event shaping --------------------------------------------------------

    def _event(self, item, filters, decode):
        record = item["record"]
        kind = record.get("kind")
        doc_id = record.get("doc_id")
        if kind == "open" and doc_id is None:
            doc_id = (record.get("doc") or {}).get("doc_id")
        if filters is not None and (
                doc_id is None or str(doc_id) not in filters):
            return None
        # each event carries its own resume token — the position *after*
        # it — so a consumer can checkpoint mid-batch
        token = encode_token(self.stream, item["seq"] + 1)
        if not decode:
            return {"seq": item["seq"], "token": token, "record": record}
        if kind == "repl-pos":
            # internal cursor bookkeeping, not a document change
            return None
        event = {"seq": item["seq"], "token": token, "kind": kind,
                 "doc_id": doc_id}
        if kind == "open":
            event["version"] = (record.get("doc") or {}).get("version")
        elif kind == "batch":
            event["version"] = record.get("version")
            event["clients"] = record.get("clients")
            event["pul"] = record.get("pul")
            event["ops"] = _describe_pul(record.get("pul"))
        return event


def _describe_pul(text):
    """Human-readable op summaries for a logged PUL document."""
    if not text:
        return []
    try:
        pul = pul_from_xml(text)
    except Exception:  # noqa: BLE001 - describe, never fail delivery
        return ["<undecodable pul>"]
    return [op.describe() for op in pul.operations()]
