"""The asyncio network front end: many connections, one store.

:class:`StoreServer` listens on TCP and/or a Unix socket and multiplexes
every connection onto one :class:`~repro.store.store.DocumentStore`
through the shared :class:`~repro.api.dispatch.StoreDispatcher`. The
store's locking already serializes what must be serial (per-document
flushes) and keeps the rest concurrent (submissions), so every
command that can wait on a lock runs on a small thread pool — the
event loop never blocks on a flush, and two clients flushing different
documents genuinely overlap. Reads that only pin a published version
(:data:`repro.api.ops.LOCK_FREE_OPS`) cannot wait on anything, and
when their input is small (:data:`INLINE_MAX_NODES`) they run right on
the loop, in the callback that received them: the thread hop would
cost more than the read.

Each connection is one :class:`asyncio.Protocol` — no reader task, no
worker task, no queue:

* the first frame must be the ``hello`` negotiation (see
  :mod:`repro.api.protocol`); it also carries the connection's *client
  identity*, which stamps every submission that does not name an
  explicit client — so the store's per-client coalescing (sequential
  chains per client, parallel merge across clients) sees network
  sessions exactly like it sees local producers. The frames after it
  decode under the agreed codec, even when they came in one write;
* requests are **pipelined**: ``data_received`` decodes what arrived
  and answers the loop-route prefix of the backlog in place, writing
  its responses with one ``transport.write``; the first request that
  needs a pool hands the requests after it to one executor hop
  (:meth:`StoreServer._execute_many`), and the backlog waits for that
  hop;
* backpressure both ways: past :attr:`StoreServer.max_pipeline`
  decoded-but-unanswered requests the transport stops reading — TCP
  flow control then pushes back on the client — and while the
  transport's write buffer is over its high-water mark
  (``pause_writing``) nothing is executed, so neither a fire-hose
  client nor one that never reads its answers can balloon server
  memory;
* responses go out in request order, so a client may correlate by
  order as well as by ``id``;
* a malformed frame (bad length, undecodable payload, EOF mid-frame)
  kills only that connection — framing is lost and cannot be
  resynchronized — after a best-effort error frame; other connections
  and the store are untouched. A peer that closes or resets the
  connection still has every request it sent executed; nothing more
  is written to it.

Shutdown is *drain-first*: ``SIGTERM`` (or :meth:`StoreServer.aclose`)
stops accepting, answers every request the connections have received,
flushes all pending submissions (with a durable store they reach the
write-ahead log), and only then closes the store.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import functools
import os
import signal
import socket
import stat
import sys

from repro.api import ops, protocol
from repro.api.dispatch import StoreDispatcher
from repro.errors import ProtocolError, ReproError
from repro.obs import SIZE_BUCKETS
from repro.xquery.parser import MAX_CACHED_PATH_CHARS

#: optional capabilities advertised in the hello result; a client only
#: uses a feature (e.g. sending trace ids) when the server lists it,
#: so old peers on either side are unaffected
SERVER_FEATURES = ("trace", "metrics")

#: default bound on decoded-but-unanswered requests per connection
DEFAULT_MAX_PIPELINE = 32

#: a lock-free read runs on the event loop only against a document of
#: at most this many nodes (and with a path of at most
#: ``MAX_CACHED_PATH_CHARS``). While it runs no other connection is
#: served, so it may cost what a pool neighbour already costs them and
#: no more: one interpreter switch interval (5 ms — beside a pooled
#: walker query a small query waits p50 5.6 / p90 8.2 / p99 15 ms).
#: The costliest plain walk measured, ``//*//*//*`` with its result
#: serialized, takes 9-12 us per node: 4.6 ms at this limit (it was
#: 1024 first: 8.6-11.7 ms, and the neighbour's p90 rose from 8.2 to
#: 14.3 ms). Inlined unconditionally, a 264 ms query on 21k nodes held
#: every other connection for its whole length
INLINE_MAX_NODES = 512


def _bind_unix_socket(path):
    """Bind a fresh Unix listener at ``path``, reclaiming a provably
    dead predecessor's socket first."""
    _unlink_stale_unix_socket(path)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(path)
        # listen *here*, not later in the event loop: a bound-but-not-
        # listening socket answers ECONNREFUSED, which a concurrently
        # starting server's staleness probe would read as "dead inode,
        # reclaim it" — the window must be instructions, not awaits
        sock.listen(100)
    except BaseException:
        sock.close()
        raise
    return sock


def _unlink_stale_unix_socket(path):
    """Remove a dead Unix socket left by a killed predecessor.

    A SIGKILLed server never unlinks its socket path, and binding over
    the corpse fails with ``Address already in use`` — so probe it: a
    connect that is *refused* proves nothing is listening, and the stale
    inode can go. A live listener (connect succeeds) and a path that is
    not a socket at all (somebody else's file) are both left untouched,
    so the ordinary bind error still surfaces.
    """
    try:
        if not stat.S_ISSOCK(os.stat(path).st_mode):
            return
    except OSError:
        return  # no such path: nothing to clean
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(path)
    except ConnectionRefusedError:
        # only a *refusal* proves nothing is listening; a timeout may
        # just be a live server with a full accept backlog, and
        # unlinking it would silently split the deployment in two
        try:
            os.unlink(path)
        except OSError:
            pass
    except OSError:
        pass  # inconclusive (timeout, perms, ...): let bind report it
    else:
        pass  # a live server owns the path: let bind fail loudly
    finally:
        probe.close()


def _answer(request_id, thunk):
    """Run one planned request; its response frame either way."""
    try:
        return protocol.ok_response(request_id, thunk())
    except Exception as error:
        return protocol.error_response(request_id, error)


def _answer_all(planned):
    """A pool hop: ``(request_id, thunk)`` pairs answered in order."""
    return [_answer(request_id, thunk) for request_id, thunk in planned]


def _raise(error):
    """The thunk of a request that failed to plan."""
    raise error


class StoreServer:
    """Serve one :class:`DocumentStore` to many network clients.

    Parameters
    ----------
    store:
        The (possibly durable) store to serve. The server owns it from
        :meth:`start` on: :meth:`aclose` drains and closes it.
    host / port:
        TCP listen address; ``port=0`` picks an ephemeral port
        (re-read it from :attr:`tcp_address`). ``host=None`` disables
        TCP.
    unix_path:
        Unix-domain socket path (``None`` disables the Unix listener).
    max_pipeline:
        Bound on decoded-but-unanswered requests per connection: past
        it the connection stops reading (backpressure). Also the most
        requests answered per write.
    executor_workers:
        Threads executing the store commands that can block on a lock
        or do unbounded work — every write, ``docs``/``stats`` (store
        lock), and reads of large documents; the event loop must not,
        and runs only small lock-free reads itself.
    """

    #: ``op -> (dispatcher method, required args, optional args)``,
    #: derived from the operation registry (:mod:`repro.api.ops`), the
    #: same declaration the v2 op codes and the generated docs use.
    DISPATCH = ops.dispatch_table()

    def __init__(self, store, host=None, port=0, unix_path=None,
                 max_pipeline=DEFAULT_MAX_PIPELINE, executor_workers=8,
                 metrics_listen=None):
        if host is None and unix_path is None:
            raise ReproError(
                "StoreServer needs a TCP host/port or a unix_path to "
                "listen on")
        if max_pipeline < 1:
            # a connection would pause reading at its first request —
            # refusing is better than a server that never answers
            raise ReproError(
                "max_pipeline must be >= 1, got {}".format(max_pipeline))
        self.dispatcher = StoreDispatcher(store)
        self.store = store
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_pipeline = max_pipeline
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="store-server")
        # long-polls (`subscribe` with wait_s) park a thread for
        # seconds at a time; on the shared pool, enough followers would
        # occupy every worker and stall each write until a poll
        # deadline expired — so polls get their own pool and the write
        # path never queues behind a parked follower
        self._poll_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(executor_workers, 16),
            thread_name_prefix="store-server-poll")
        #: how long reads may hold the loop before it runs the other
        #: connections: what the interpreter grants a pool thread
        self._loop_slice_s = sys.getswitchinterval()
        self._servers = []
        self._connections = set()   # open _ServerProtocol instances
        self._sessions = 0
        self._closed = False
        #: ``(host, port)`` of the opt-in Prometheus HTTP endpoint
        #: (``None`` disables it); serves ``GET /metrics``
        self.metrics_listen = metrics_listen
        self._metrics_server = None
        #: the store's observability facade
        self.obs = store.obs
        self._m_connections = self.obs.gauge(
            "repro_server_connections", "Open client connections")
        self._m_connections_total = self.obs.counter(
            "repro_server_connections_total", "Connections accepted")
        self._m_frames_in = self.obs.counter(
            "repro_server_frames_in_total", "Request frames decoded")
        self._m_frames_out = self.obs.counter(
            "repro_server_frames_out_total", "Response frames written")
        self._m_pipeline = self.obs.histogram(
            "repro_server_pipeline_batch",
            "Requests decoded per received chunk",
            buckets=SIZE_BUCKETS)
        self._m_route = {
            route: self.obs.counter(
                "repro_server_requests_total",
                "Requests executed, by where they ran", route=route)
            for route in ("loop", "pool")}

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the listeners; returns ``self``."""
        loop = asyncio.get_running_loop()
        factory = functools.partial(_ServerProtocol, self)
        if self.host is not None:
            self._servers.append(await loop.create_server(
                factory, host=self.host, port=self.port))
        if self.unix_path is not None:
            # bound by hand: asyncio's path= would silently unlink
            # whatever sits at the path — even a *live* server's
            # socket. Probing first steals only provably dead inodes.
            self._servers.append(await loop.create_unix_server(
                factory, sock=_bind_unix_socket(self.unix_path)))
        if self.metrics_listen is not None:
            host, port = self.metrics_listen
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, host=host, port=port)
        return self

    @property
    def tcp_address(self):
        """``(host, port)`` actually bound, or ``None`` without TCP."""
        unix_family = getattr(socket, "AF_UNIX", None)
        for server in self._servers:
            for sock in server.sockets or ():
                if sock.family != unix_family:
                    return sock.getsockname()[:2]
        return None

    @property
    def metrics_http_address(self):
        """``(host, port)`` of the Prometheus HTTP endpoint, or
        ``None`` when ``metrics_listen`` was not configured."""
        if self._metrics_server is None:
            return None
        for sock in self._metrics_server.sockets or ():
            return sock.getsockname()[:2]
        return None

    async def _handle_metrics_http(self, reader, writer):
        """One-shot HTTP/1.1 handler: ``GET /metrics`` answers the
        Prometheus text exposition, everything else 404. Deliberately
        minimal — no keep-alive, no chunking — because scrapers issue
        exactly this request shape."""
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:   # drain headers; the request has no body
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if path.split("?", 1)[0] == "/metrics":
                body = self.store.metrics_text().encode("utf-8")
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"not found (try /metrics)\n"
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
            writer.write((
                "HTTP/1.1 {}\r\nContent-Type: {}\r\n"
                "Content-Length: {}\r\nConnection: close\r\n\r\n"
                .format(status, ctype, len(body))).encode("latin-1"))
            writer.write(body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve_forever(self, handle_signals=True):
        """Run until ``SIGTERM``/``SIGINT`` (drain-first), then close."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.aclose()

    async def aclose(self, drain=True):
        """Stop accepting, answer the requests already received, drain
        the store's pending submissions (``drain=True``) and close it."""
        if self._closed:
            return
        self._closed = True
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for server in self._servers:
            server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.shutdown()
        # wait for the connections to write their final responses and
        # close — leaving them running would race the store close below
        await asyncio.gather(*(connection.finished
                               for connection in connections))
        for server in self._servers:
            await server.wait_closed()
        try:
            # a replica holds no pending submissions (writes bounce
            # with not-leader), so its drain would only raise; role is
            # read at shutdown time because promote may have flipped it
            if drain and self.store.role != "replica":
                loop = asyncio.get_running_loop()
                try:
                    await loop.run_in_executor(self._executor,
                                               self.store.flush_all)
                except ReproError as error:
                    # every healthy document flushed, the failure
                    # reported
                    sys.stderr.write(
                        "store-server: drain failed: {}\n".format(error))
        finally:
            self.store.close()
            self._executor.shutdown(wait=True)
            # parked long-polls time out on their own; don't block
            # shutdown on a follower's wait_s window
            self._poll_executor.shutdown(wait=False)

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info):
        await self.aclose()

    # -- request execution ---------------------------------------------------

    def _route(self, client, message, queued):
        """Plan one decoded request of the connection named ``client``
        now that its turn has come; returns ``(request_id, executor,
        thunk)``. The thunk is the store call, the executor the pool it
        may block in — ``None`` to answer it here, on the loop: a
        lock-free read with a short path of a document that fits
        (:meth:`_fits_the_loop`), when nothing of its connection is
        ``queued`` for the pool ahead of it. A request that fails to
        plan is a thunk raising the failure, answered where it stands:
        here, or in the hop it would have joined."""
        request_id = message.get("id")
        try:
            request_id, op, args = protocol.parse_request(message)
            spec = self.DISPATCH.get(op)
            if spec is None:
                raise ProtocolError("unknown op {!r}".format(op))
            method_name, required, optional = spec
            unknown = [name for name in args
                       if name not in required and name not in optional]
            if unknown:
                raise ProtocolError("op {!r} does not take {}".format(
                    op, ", ".join(sorted(unknown))))
            missing = [name for name in required if name not in args]
            if missing:
                raise ProtocolError("op {!r} needs {}".format(
                    op, ", ".join(missing)))
        except Exception as error:
            return (request_id, self._executor if queued else None,
                    functools.partial(_raise, error))
        call_args = dict(args)
        if op in ("submit", "submit_xquery"):
            call_args.setdefault("client", client)
        thunk = functools.partial(getattr(self.dispatcher, method_name),
                                  **call_args)
        trace = message.get("trace")
        if isinstance(trace, str) and trace:
            # the traced thunk runs synchronously wherever it runs
            # (worker hop or loop), so the contextvar set by
            # run_traced propagates through dispatch -> store ->
            # durability
            thunk = functools.partial(self.obs.run_traced, trace, op,
                                      thunk)
        path = args.get("path", "")
        if op in ops.POLL_OPS:
            executor = self._poll_executor
        elif (op in ops.LOCK_FREE_OPS and not queued
                and isinstance(path, str)
                and len(path) <= MAX_CACHED_PATH_CHARS
                and self._fits_the_loop(args["doc_id"])):
            executor = None
        else:
            executor = self._executor
        self._m_route["loop" if executor is None else "pool"].inc()
        return request_id, executor, thunk

    def _fits_the_loop(self, doc_id):
        """Whether a lock-free read of ``doc_id`` as it is published
        *now* is bounded below what a pool neighbour already costs the
        other connections — decided from what the server can see,
        never from a setting. A document that is not resident does
        not fit: what a queued ``open`` will bring is unknown, and the
        hop costs a refusal nothing that matters."""
        try:
            return len(self.store.document(doc_id)) <= INLINE_MAX_NODES
        except (ReproError, TypeError):     # absent, or no doc id at all
            return False

    def _execute_many(self, client, messages, responses):
        """Answer the requests at the head of ``messages`` — one
        connection's pipelined backlog, consumed from the left — in
        request order, appending their responses to ``responses``.

        The head-of-line cost of the naive loop is the per-request
        event-loop <-> worker-thread handoff: depth-8 pipelining paid
        8 executor round trips plus 8 writes. Here a lock-free read
        pays no hop at all when nothing of its connection is queued
        ahead of it and its document, as published at that moment, is
        small (:meth:`_route`): it is answered right here, in the
        callback that received it, with no ``await`` between the size
        check and the read. The first request that needs a pool takes
        every consecutive request after it into ONE executor hop
        (sequentially in the worker, preserving per-connection order),
        reads included — the work ahead may be the ``open`` or
        ``flush`` that decides how large the document is, and the hop
        is already paid — so a read neither overtakes its own
        connection's writes nor runs here against a document nobody
        has measured. A long poll (:data:`repro.api.ops.POLL_OPS`,
        which parks its thread) hops alone.

        Takes at most :attr:`max_pipeline` requests, and stops early
        once the reads answered here have held the loop for one
        interpreter switch interval. Returns ``None`` when what it took
        is answered — the caller lets the other connections in before
        it comes back for what is left, or before the connection's
        next request when this turn held the loop for the interval —
        or the future of the hop that answers the rest of what it took.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._loop_slice_s
        run = []      # (request_id, thunk) for the hop
        hop = None    # the pool they hop to
        for __ in range(min(len(messages), self.max_pipeline)):
            if run and messages[0].get("op") in ops.POLL_OPS:
                break
            request_id, executor, thunk = self._route(
                client, messages.popleft(), bool(run))
            if executor is None:
                responses.append(_answer(request_id, thunk))
                if loop.time() > deadline:
                    break
                continue
            run.append((request_id, thunk))
            hop = executor
            if executor is self._poll_executor:
                break
        if not run:
            return None
        return loop.run_in_executor(hop, _answer_all, run)

    def _next_session_name(self):
        self._sessions += 1
        return "conn-{}".format(self._sessions)


class _ServerProtocol(asyncio.Protocol):
    """One client connection: the hello, then pipelined requests
    answered in order — in the callback that received them where the
    route allows it, otherwise by one pool hop at a time, which the
    rest of the backlog waits for."""

    def __init__(self, server):
        self.server = server
        self.transport = None
        self.decoder = protocol.FrameDecoder()
        #: the identity the hello gave this connection
        self.client = None
        #: done once the connection is closed and owes nothing
        self.finished = asyncio.get_running_loop().create_future()
        self._backlog = collections.deque()   # decoded, not yet run
        self._unanswered = 0     # decoded requests without a response
        self._busy = None        # the pool hop or the deferred turn
        self._held = False       # the last turn held the loop a slice
        self._refusal = None     # the protocol error owed at the end
        self._eof = False        # no more requests will be read
        self._over = False       # no more responses will be written
        self._reading_paused = False
        self._writing_paused = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport):
        self.transport = transport
        self.server._connections.add(self)
        self.server._m_connections.inc()
        self.server._m_connections_total.inc()

    def data_received(self, data):
        server = self.server
        if self.client is None:
            if not self._hello(data):
                return
            data = b""
        try:
            frames = self.decoder.feed(data)
        except ProtocolError:
            frames = []
        if self.decoder.error is not None and self._refusal is None:
            # framing is lost: the requests ahead of the damage are
            # answered first, then this, and the connection closes
            self._refusal = protocol.error_response(None,
                                                    self.decoder.error)
            self._stop_reading()
        if frames:
            server._m_frames_in.inc(len(frames))
            server._m_pipeline.observe(len(frames))
            self._backlog.extend(frames)
            self._unanswered += len(frames)
        self._pump()
        if self._unanswered > server.max_pipeline and not (
                self._reading_paused or self._eof):
            self._reading_paused = True
            self.transport.pause_reading()

    def eof_received(self):
        if not self.decoder.at_boundary() and self._refusal is None:
            self._refusal = protocol.error_response(None, ProtocolError(
                "connection closed mid-frame ({} trailing bytes)".format(
                    self.decoder.pending_bytes)))
        self._eof = True
        self._settle()
        return True     # half-closed: the answers still go out

    def connection_lost(self, exc):
        # a reset peer is gone like a closed one: what it sent is still
        # executed, and nothing more is written
        self.transport = None
        self._eof = self._over = True
        self._writing_paused = False    # nobody will resume it now
        self._pump()

    def pause_writing(self):
        self._writing_paused = True

    def resume_writing(self):
        self._writing_paused = False
        self._pump()

    def shutdown(self):
        """Server-initiated close: stop reading; the requests already
        received are answered, then the connection closes."""
        self._stop_reading()
        self._settle()

    # -- negotiation ---------------------------------------------------------

    def _hello(self, data):
        """Take the mandatory hello frame out of ``data`` and answer it;
        ``True`` once the session is open. The bytes after the hello
        stay in the decoder for the codec it agrees on."""
        try:
            frames = self.decoder.feed(data, limit=1)
        except ProtocolError as error:
            self._close_with(protocol.error_response(None, error))
            return False
        if not frames:
            return False
        self.server._m_frames_in.inc()
        (message,) = frames
        request_id = message.get("id")
        try:
            request_id, op, args = protocol.parse_request(message)
            if op != "hello":
                raise ProtocolError(
                    "the first request must be \"hello\", got "
                    "{!r}".format(op))
            version = protocol.negotiate_version(
                args.get("versions", ()))
            client = args.get("client")
            if client is not None and not isinstance(client, str):
                raise ProtocolError("hello \"client\" must be a string")
        except ProtocolError as error:
            self._close_with(protocol.error_response(request_id, error))
            return False
        self.client = client or self.server._next_session_name()
        # the hello response itself always travels as JSON (the
        # client cannot know the outcome before reading it); both
        # sides switch codecs right after this frame
        self._send([protocol.ok_response(request_id, {
            "version": version, "server": "repro-store",
            "client": self.client,
            "features": list(SERVER_FEATURES)})])
        self.decoder.use_version(version)
        return True

    # -- execution -----------------------------------------------------------

    def _pump(self):
        """Take the next turn of the backlog, unless a hop is out or the
        peer is not reading its answers; then settle."""
        if self._backlog and self._busy is None and \
                not self._writing_paused:
            loop = asyncio.get_running_loop()
            if self._held:
                # the last turn held the loop for a switch interval and
                # this connection's next request is ready again: the
                # others that became ready meanwhile go first (epoll
                # reports the socket just read ahead of them)
                self._held = False
                self._busy = loop.call_soon(self._next_turn)
                return
            responses = []
            start = loop.time()
            hop = self.server._execute_many(self.client, self._backlog,
                                            responses)
            self._answered(responses)
            if hop is not None:
                self._busy = hop
                hop.add_done_callback(self._hop_done)
            elif self._backlog:
                # a switch interval or a pipeline's worth was answered:
                # the other connections go first
                self._busy = loop.call_soon(self._next_turn)
            else:
                self._held = loop.time() - start >= \
                    self.server._loop_slice_s
        self._settle()

    def _hop_done(self, hop):
        self._busy = None
        self._answered(hop.result())
        self._pump()

    def _next_turn(self):
        self._busy = None
        self._pump()

    def _answered(self, responses):
        self._unanswered -= len(responses)
        self._send(responses)
        if self._reading_paused and not self._eof and \
                self._unanswered <= self.server.max_pipeline:
            self._reading_paused = False
            self.transport.resume_reading()

    def _settle(self):
        """Close the connection once it owes nothing: no more requests
        coming, none waiting, no hop out."""
        if not self._eof or self._busy is not None or self._backlog:
            return
        if self.transport is not None:
            if self._refusal is not None:
                self._send([self._refusal])
                self._refusal = None
            self._over = True
            self.transport.close()     # connection_lost follows
        elif not self.finished.done():
            self.server._connections.discard(self)
            self.server._m_connections.dec()
            self.finished.set_result(None)

    def _stop_reading(self):
        self._eof = True
        if self.transport is not None:
            self.transport.pause_reading()

    def _close_with(self, response):
        """Refuse the hello: ``response``, then close."""
        self._refusal = response
        self._stop_reading()
        self._settle()

    # -- writing -------------------------------------------------------------

    def _frame(self, message):
        """``message`` framed in the connection's codec (JSON for the
        hello exchange, the negotiated version after it). A result
        that cannot be framed — too large (`text` of a >MAX_FRAME
        document), or refused by the codec itself (a lone surrogate in
        a document an older log let in) — degrades to an error
        response instead of killing the connection with an unhandled
        exception; ``None`` when not even that can be framed."""
        try:
            return protocol.encode_frame(message, self.decoder.version)
        except Exception as error:
            if not message.get("ok"):
                return None
            if not isinstance(error, ProtocolError):
                error = ProtocolError(
                    "result cannot be encoded: {}".format(error))
            return self._frame(protocol.error_response(
                message.get("id"), error))

    def _send(self, messages):
        """Write ``messages`` with one ``transport.write``. A response
        that cannot be framed at all ends the answers there: the
        connection closes once it has executed what it received."""
        if self._over or not messages:
            return
        frames = []
        for message in messages:
            frame = self._frame(message)
            if frame is None:
                self._over = True
                self._stop_reading()
                break
            frames.append(frame)
        self.transport.write(b"".join(frames))
        self.server._m_frames_out.inc(len(frames))
