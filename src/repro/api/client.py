"""Typed clients for the store's network protocol.

Two clients with the same method surface — ``open`` / ``submit`` /
``submit_xquery`` / ``flush`` / ``flush_all`` / ``discard`` / ``text``
/ ``stats`` / ``docs`` / ``snapshot`` / ``query`` / ``promote`` plus
the follower surface (``subscribe`` / ``export``, which replicas and
every other consumer share) — over the versioned frame protocol of
:mod:`repro.api.protocol`:

:class:`StoreClient`
    blocking, one socket, strict request/response — the right tool for
    scripts and tests;
:class:`AsyncStoreClient`
    asyncio, pipelined — any number of calls may be in flight at once
    (``await asyncio.gather(*[client.submit(...) ...])``), responses
    are correlated by request id.

Both perform the hello negotiation on connect (one JSON frame each
way; the session after it runs the binary codec, its version is on
:attr:`protocol_version`) and both surface server-side
failures as reconstructed :class:`~repro.errors.ReproError` subclasses:
``except QueryEvaluationError:`` around a remote ``submit_xquery``
works exactly as it does around the local compiler, and the stable
``error.code`` travels with it.

Submissions accept either the PUL exchange document as text or a
:class:`~repro.pul.pul.PUL` object (serialized on the way out) — but
the expression form (:meth:`submit_xquery`) is the preferred surface:
the server compiles it against the resident document, so the client
needs no copy of the tree at all.

**Close semantics (uniform across StoreClient, AsyncStoreClient and
ClusterClient):** every client is a context manager (``with`` /
``async with``); ``close()`` / ``aclose()`` is idempotent, in-flight
requests fail, and **any call after close raises**
``ProtocolError("client is closed")`` — never a raw ``AttributeError``
or a hung socket. ``closed`` reports the state.

**Subscriptions** (PR 8, CDC): :meth:`StoreClient.subscribe` is a sync
generator and :meth:`AsyncStoreClient.subscribe` an async iterator —
``for event in client.subscribe(doc_ids=["d1"])`` long-polls the
server's change feed and yields events as they are published; each
event carries its own resume ``token``. The underlying single-poll op
is :meth:`subscribe_once` on both; a ``decode=False`` page from it is
what :meth:`repro.cluster.replica.ReplicaStore.apply_records` applies.
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.api import protocol
from repro.errors import ConnectionLostError, ProtocolError
from repro.pul.pul import PUL
from repro.pul.serialize import pul_to_xml


def _pul_text(pul):
    return pul_to_xml(pul) if isinstance(pul, PUL) else pul


def _backoff_delays(retries, backoff, max_backoff):
    """The sleep schedule between connect attempts: exponential from
    ``backoff``, capped at ``max_backoff`` — ``retries`` extra attempts
    after the first."""
    for attempt in range(max(0, retries)):
        yield min(backoff * (2 ** attempt), max_backoff)


class _MethodSurface:
    """The shared command surface; subclasses provide ``_call``.

    **Tracing:** every command accepts a reserved ``_trace`` keyword —
    a client-generated trace id (see :func:`repro.obs.new_trace_id`)
    carried in the request envelope so the server records the call as
    a span tree. The id is only put on the wire when the connected
    server advertised ``"trace"`` in its hello ``features`` (old
    servers never see the field).
    """

    @property
    def features(self):
        """The feature names the server advertised at hello
        (empty tuple against pre-observability servers)."""
        info = self.server_info or {}
        return tuple(info.get("features", ()))

    def _adopt_hello(self, result):
        """Take the session parameters out of the hello ``result`` and
        switch the decoder from the hello's JSON to the agreed codec."""
        version = result.get("version") if isinstance(result, dict) \
            else None
        if version not in protocol.SUPPORTED_VERSIONS:
            raise ProtocolError(
                "server chose protocol version {!r}, which this client "
                "did not offer".format(version))
        self.protocol_version = version
        self.server_info = result
        self.client = result.get("client", self.client)
        self._decoder.use_version(version)

    def _outbound_trace(self, trace):
        """The trace id to send — ``None`` unless the caller supplied
        one *and* the server negotiated support for carrying it."""
        if trace is None or "trace" not in self.features:
            return None
        if not isinstance(trace, str) or not trace:
            raise ProtocolError(
                "_trace must be a non-empty string, got "
                "{!r}".format(trace))
        return trace

    def open(self, doc_id, xml, _trace=None):
        """Make document text resident under ``doc_id``."""
        return self._call("open", doc_id=doc_id, xml=xml,
                          _trace=_trace)

    def submit(self, doc_id, pul, client=None, _trace=None):
        """Queue a PUL (exchange text or a :class:`PUL`)."""
        args = {"doc_id": doc_id, "pul": _pul_text(pul)}
        if client is not None:
            args["client"] = client
        return self._call("submit", _trace=_trace, **args)

    def submit_xquery(self, doc_id, query, client=None,
                      _trace=None):
        """Ship an XQuery Update expression; the server compiles it
        against the resident document and queues the resulting PUL."""
        args = {"doc_id": doc_id, "query": query}
        if client is not None:
            args["client"] = client
        return self._call("submit_xquery", _trace=_trace, **args)

    def flush(self, doc_id, _trace=None):
        return self._call("flush", doc_id=doc_id, _trace=_trace)

    def flush_all(self, _trace=None):
        return self._call("flush_all", _trace=_trace)

    def discard(self, doc_id, _trace=None):
        return self._call("discard", doc_id=doc_id, _trace=_trace)

    def text(self, doc_id, _trace=None):
        return self._call("text", doc_id=doc_id, _trace=_trace)

    def stats(self, doc_id=None, _trace=None):
        if doc_id is None:
            return self._call("stats", _trace=_trace)
        return self._call("stats", doc_id=doc_id, _trace=_trace)

    def docs(self, _trace=None):
        return self._call("docs", _trace=_trace)

    def snapshot(self, _trace=None):
        return self._call("snapshot", _trace=_trace)

    def query(self, doc_id, path, _trace=None):
        """Evaluate a read-only path expression server-side; returns
        the selected nodes serialized (replica-safe — see the cluster
        docs)."""
        return self._call("query", doc_id=doc_id, path=path,
                          _trace=_trace)

    def explain(self, doc_id, path, _trace=None):
        """Run ``path`` server-side and return the recorded query
        plan (per step: index-scan vs. walk with bucket/estimate
        sizes) without the serialized nodes."""
        return self._call("explain", doc_id=doc_id, path=path,
                          _trace=_trace)

    def metrics(self, format=None, traces=None, slow=None):
        """Fetch the server's metric snapshot (counters / gauges /
        histograms plus ``uptime_seconds``); ``traces=N`` adds the
        last N recorded span trees, ``slow=N`` the last N slow-log
        entries, ``format="prometheus"`` returns ``{"text": ...}``
        carrying the text exposition instead."""
        args = {}
        if format is not None:
            args["format"] = format
        if traces is not None:
            args["traces"] = traces
        if slow is not None:
            args["slow"] = slow
        return self._call("metrics", **args)

    # -- replication (see repro.cluster) --------------------------------------

    def promote(self, allow_non_durable=False):
        """Convert the connected replica into a leader (manual
        failover). Non-durable replicas are refused unless
        ``allow_non_durable`` (last-resort salvage)."""
        if allow_non_durable:
            return self._call("promote", allow_non_durable=True)
        return self._call("promote")

    # -- CDC & bulk ETL (see repro.cluster.feed / repro.etl) ------------------

    @staticmethod
    def _subscribe_args(from_token, doc_ids, decode, max_events,
                        wait_s, subscriber):
        args = {}
        if from_token is not None:
            args["from_token"] = from_token
        if doc_ids is not None:
            args["doc_ids"] = list(doc_ids)
        if not decode:
            args["decode"] = False
        if max_events is not None:
            args["max_events"] = max_events
        if wait_s is not None:
            args["wait_s"] = wait_s
        if subscriber is not None:
            args["subscriber"] = subscriber
        return args

    def subscribe_once(self, from_token=None, doc_ids=None, decode=True,
                       max_events=None, wait_s=None, subscriber=None):
        """One subscription poll; returns ``{"events", "token",
        "end_seq", "stream"}``. Most callers want the generator form
        (:meth:`subscribe`) instead."""
        return self._call("subscribe", **self._subscribe_args(
            from_token, doc_ids, decode, max_events, wait_s,
            subscriber))

    def unsubscribe(self, subscriber):
        """Drop a named subscriber from the feed's lag accounting."""
        return self._call("unsubscribe", subscriber=subscriber)

    def bulk_import(self, docs):
        """Load one chunk of ``{"doc_id", "xml"}`` documents
        atomically under a single group fsync."""
        return self._call("bulk-import", docs=list(docs))

    def export(self, doc_ids=None, cursor=None, max_docs=None,
               format=None):
        """One page of a filtered, resumable corpus export."""
        args = {}
        if doc_ids is not None:
            args["doc_ids"] = list(doc_ids)
        if cursor is not None:
            args["cursor"] = cursor
        if max_docs is not None:
            args["max_docs"] = max_docs
        if format is not None:
            args["format"] = format
        return self._call("export", **args)


class StoreClient(_MethodSurface):
    """Blocking client: one request in flight at a time.

    Use as a context manager (``with StoreClient.connect(...) as c:``)
    or call :meth:`close`. Construct via :meth:`connect`. After
    :meth:`close`, every call raises ``ProtocolError("client is
    closed")``.
    """

    def __init__(self, sock, client=None):
        self._sock = sock
        self._decoder = protocol.FrameDecoder()
        self._frames = []
        self._next_id = 0
        self.client = client
        self.protocol_version = None
        self.server_info = None

    @classmethod
    def connect(cls, host=None, port=None, unix_path=None, client=None,
                timeout=None, retries=0, backoff=0.1, max_backoff=2.0):
        """Connect over TCP (``host``/``port``) or a Unix socket
        (``unix_path``) and negotiate the protocol version.

        ``retries`` extra attempts (exponential ``backoff`` seconds
        between them, capped at ``max_backoff``) absorb bootstrap
        races — a cluster node dialing a peer that is still binding
        should wait it out, not surface a raw
        ``ConnectionRefusedError``. The *last* failure is re-raised
        when every attempt fails.
        """
        if unix_path is None and (host is None or port is None):
            raise ProtocolError("connect needs host+port or unix_path")
        delays = _backoff_delays(retries, backoff, max_backoff)
        while True:
            try:
                if unix_path is not None:
                    sock = socket.socket(socket.AF_UNIX,
                                         socket.SOCK_STREAM)
                    sock.settimeout(timeout)
                    try:
                        sock.connect(unix_path)
                    except BaseException:
                        sock.close()
                        raise
                else:
                    sock = socket.create_connection((host, port),
                                                    timeout=timeout)
            except (ConnectionError, FileNotFoundError, TimeoutError,
                    socket.timeout):
                delay = next(delays, None)
                if delay is None:
                    raise
                time.sleep(delay)
                continue
            instance = cls(sock, client=client)
            try:
                instance._hello()
            except BaseException:
                sock.close()
                raise
            return instance

    def _hello(self):
        self._adopt_hello(self._roundtrip(protocol.hello_request(
            self._take_id(), client=self.client)))

    def _take_id(self):
        self._next_id += 1
        return self._next_id

    def _call(self, op, **args):
        trace = self._outbound_trace(args.pop("_trace", None))
        return self._roundtrip(protocol.request(
            self._take_id(), op, args, trace=trace))

    def _roundtrip(self, message):
        # one read of the socket: a close() from another thread (a
        # replica sync being stopped) then fails the call with the
        # closed socket's OSError instead of pulling it from under it
        sock = self._sock
        if sock is None:
            raise ProtocolError("client is closed")
        sock.sendall(protocol.encode_frame(
            message, self.protocol_version or 1))
        while not self._frames:
            data = sock.recv(64 * 1024)
            if not data:
                raise ConnectionLostError(
                    "server closed the connection mid-response")
            self._frames.extend(self._decoder.feed(data))
        response_id, result = protocol.parse_response(
            self._frames.pop(0))
        if response_id != message["id"]:
            raise ProtocolError(
                "response id {!r} does not match request id "
                "{!r}".format(response_id, message["id"]))
        return result

    def subscribe(self, doc_ids=None, from_token=None, decode=True,
                  subscriber=None, wait_s=5.0, max_events=None):
        """Stream change events as a generator: ``for event in
        client.subscribe(doc_ids=["d1"]): ...``.

        Starts at the live tail unless ``from_token`` resumes an
        earlier position; long-polls ``wait_s`` seconds per round trip
        and runs until the caller stops iterating. Every yielded event
        carries its own resume ``token`` (the position *after* it) —
        persist the last one to survive a disconnect. Typed failures
        propagate: ``SubscriptionLaggedError`` when the resume point
        fell out of the backlog, ``ResumeExpiredError`` after a
        failover changed the stream epoch (re-bootstrap from
        :meth:`export` and resume from its token).
        """
        token = from_token
        while True:
            page = self.subscribe_once(
                from_token=token, doc_ids=doc_ids, decode=decode,
                max_events=max_events, wait_s=wait_s,
                subscriber=subscriber)
            token = page["token"]
            for event in page["events"]:
                yield event

    @property
    def closed(self):
        return self._sock is None

    def close(self):
        """Close the connection (idempotent). Calls after this raise
        ``ProtocolError("client is closed")``."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class AsyncStoreClient(_MethodSurface):
    """Asyncio client with request pipelining.

    Every command coroutine writes its frame immediately and awaits its
    own response future, so N concurrent calls put N requests on the
    wire without waiting for each other — the server executes them in
    order per connection, and the background reader resolves each
    future as its response arrives.
    """

    def __init__(self, reader, writer, client=None):
        self._reader = reader
        self._writer = writer
        self._decoder = protocol.FrameDecoder()
        self._pending = {}
        self._next_id = 0
        self._reader_task = None
        self._closed = False
        self.client = client
        self.protocol_version = None
        self.server_info = None

    @classmethod
    async def connect(cls, host=None, port=None, unix_path=None,
                      client=None, retries=0, backoff=0.1,
                      max_backoff=2.0):
        """Connect over TCP or a Unix socket and negotiate.

        ``retries``/``backoff``/``max_backoff`` behave as on
        :meth:`StoreClient.connect` (the sleeps are ``await``\\ ed, so
        the loop stays responsive)."""
        if unix_path is None and (host is None or port is None):
            raise ProtocolError("connect needs host+port or unix_path")
        delays = _backoff_delays(retries, backoff, max_backoff)
        while True:
            try:
                if unix_path is not None:
                    reader, writer = await asyncio.open_unix_connection(
                        unix_path)
                else:
                    reader, writer = await asyncio.open_connection(
                        host, port)
                break
            except (ConnectionError, FileNotFoundError,
                    TimeoutError):
                delay = next(delays, None)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
        instance = cls(reader, writer, client=client)
        try:
            await instance._hello()
        except BaseException:
            writer.close()
            raise
        instance._reader_task = asyncio.ensure_future(
            instance._read_responses())
        return instance

    async def _hello(self):
        """Negotiate before the reader task exists (strict
        request/response, nothing else is in flight yet)."""
        message = protocol.hello_request(self._take_id(),
                                         client=self.client)
        self._writer.write(protocol.encode_frame(message))
        await self._writer.drain()
        frames = []
        while not frames:
            data = await self._reader.read(64 * 1024)
            if not data:
                raise ProtocolError(
                    "server closed the connection during negotiation")
            frames.extend(self._decoder.feed(data))
        __, result = protocol.parse_response(frames.pop(0))
        if frames:
            raise ProtocolError(
                "server sent frames before any request was made")
        self._adopt_hello(result)

    def _take_id(self):
        self._next_id += 1
        return self._next_id

    async def _call(self, op, **args):
        if self._closed:
            raise ProtocolError("client is closed")
        trace = self._outbound_trace(args.pop("_trace", None))
        request_id = self._take_id()
        # frame before registering the future: an unframeable request
        # (oversized payload) must not leave an orphan in _pending
        frame = protocol.encode_frame(
            protocol.request(request_id, op, args, trace=trace),
            self.protocol_version or 1)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise ConnectionLostError(
                "connection lost while sending {!r}: {}".format(
                    op, exc)) from exc
        return await future

    async def _read_responses(self):
        """Resolve pending futures as responses arrive, in any order
        of completion (the server answers in request order; ids keep
        the correlation explicit anyway)."""
        failure = ConnectionLostError("server closed the connection")
        try:
            while True:
                data = await self._reader.read(64 * 1024)
                if not data:
                    break
                for message in self._decoder.feed(data):
                    self._dispatch_response(message)
        except (ConnectionError, OSError) as exc:
            failure = ConnectionLostError(
                "connection lost: {}".format(exc))
        except ProtocolError as exc:
            failure = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    def _dispatch_response(self, message):
        response_id = message.get("id")
        future = self._pending.pop(response_id, None)
        if future is None or future.done():
            return
        try:
            __, result = protocol.parse_response(message)
        except Exception as error:
            future.set_exception(error)
        else:
            future.set_result(result)

    async def subscribe(self, doc_ids=None, from_token=None,
                        decode=True, subscriber=None, wait_s=5.0,
                        max_events=None):
        """Stream change events as an async iterator: ``async for
        event in client.subscribe(doc_ids=["d1"]): ...``.

        Semantics match :meth:`StoreClient.subscribe`: starts at the
        live tail unless ``from_token`` is given, long-polls ``wait_s``
        per round trip, yields events carrying their own resume
        ``token``, and raises the typed lag/epoch errors."""
        token = from_token
        while True:
            page = await self.subscribe_once(
                from_token=token, doc_ids=doc_ids, decode=decode,
                max_events=max_events, wait_s=wait_s,
                subscriber=subscriber)
            token = page["token"]
            for event in page["events"]:
                yield event

    @property
    def closed(self):
        return self._closed

    async def aclose(self):
        """Close the connection (idempotent); in-flight requests fail
        and calls after this raise ``ProtocolError("client is
        closed")``."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    ProtocolError("client is closed"))
        self._pending.clear()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info):
        await self.aclose()
