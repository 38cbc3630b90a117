"""The asyncio network front end: many connections, one store.

:class:`StoreServer` listens on TCP and/or a Unix socket and multiplexes
every connection onto one :class:`~repro.store.store.DocumentStore`
through the shared :class:`~repro.api.dispatch.StoreDispatcher`. The
store's locking already serializes what must be serial (per-document
flushes) and keeps the rest concurrent (submissions), so connection
handlers run every command that can wait on a lock on a small thread
pool — the event loop never blocks on a flush, and two clients
flushing different documents genuinely overlap. Reads that only pin a
published version (:data:`repro.api.ops.LOCK_FREE_OPS`) cannot wait on
anything, and when their input is small (:data:`INLINE_MAX_NODES`)
they run right on the loop that decoded them: the thread hop would
cost more than the read.

Per-connection behaviour:

* the first frame must be the ``hello`` negotiation (see
  :mod:`repro.api.protocol`); it also carries the connection's *client
  identity*, which stamps every submission that does not name an
  explicit client — so the store's per-client coalescing (sequential
  chains per client, parallel merge across clients) sees network
  sessions exactly like it sees local producers;
* requests are **pipelined**: the reader keeps accepting frames while
  earlier commands execute, queueing them on a bounded per-connection
  queue (:attr:`StoreServer.max_pipeline`). A full queue stops the
  reader — TCP flow control then pushes back on the client — so a
  fire-hose client cannot balloon server memory;
* responses go out in request order (one worker per connection), so a
  client may correlate by order as well as by ``id``;
* a malformed frame (bad length, undecodable payload, EOF mid-frame)
  kills only that connection — framing is lost and cannot be
  resynchronized — after a best-effort error frame; other connections
  and the store are untouched.

Shutdown is *drain-first*: ``SIGTERM`` (or :meth:`StoreServer.aclose`)
stops accepting, lets every already-queued pipelined request finish,
flushes all pending submissions (with a durable store they reach the
write-ahead log), and only then closes the store.
"""

from __future__ import annotations

import asyncio
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

#: default bound on queued-but-unexecuted requests per connection
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

_READ_CHUNK = 64 * 1024

#: queue sentinel: no more requests will arrive
_EOF = object()


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


class _ReaderFailure:
    """Queue item: the reader lost framing; send this and stop."""

    __slots__ = ("response",)

    def __init__(self, response):
        self.response = response


def _answer(request_id, thunk):
    """Run one planned request; its response frame either way."""
    try:
        return protocol.ok_response(request_id, thunk())
    except Exception as error:
        return protocol.error_response(request_id, error)


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
        Bound on queued requests per connection (backpressure).
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
            # Queue(maxsize=0) means *unbounded* — silently dropping
            # the documented backpressure is worse than refusing
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
        self._connections = {}   # _Connection -> its handler task
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
            "Requests executed per pipelined batch",
            buckets=SIZE_BUCKETS)
        self._m_route = {
            route: self.obs.counter(
                "repro_server_requests_total",
                "Requests executed, by where they ran", route=route)
            for route in ("loop", "pool")}

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the listeners; returns ``self``."""
        if self.host is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port))
        if self.unix_path is not None:
            # bound by hand: asyncio's path= would silently unlink
            # whatever sits at the path — even a *live* server's
            # socket. Probing first steals only provably dead inodes.
            self._servers.append(await asyncio.start_unix_server(
                self._handle_connection,
                sock=_bind_unix_socket(self.unix_path)))
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
        """Stop accepting, finish queued requests, drain the store's
        pending submissions (``drain=True``) and close it."""
        if self._closed:
            return
        self._closed = True
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        connections = list(self._connections.items())
        for connection, __ in connections:
            await connection.shutdown()
        # wait for the handlers to flush their final responses and
        # close their writers — leaving them running would race the
        # store close below (and leak noisy cancelled tasks)
        tasks = [task for __, task in connections if task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
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

    def _plan(self, client, op, args):
        """Validate one parsed request of the connection named
        ``client``; returns ``(executor, thunk)`` where the thunk is
        the store call and the executor the pool it may block in —
        ``None`` for a lock-free read with a short path, whose route
        :meth:`_execute_many` picks when its turn comes."""
        spec = self.DISPATCH.get(op)
        if spec is None:
            raise ProtocolError("unknown op {!r}".format(op))
        method_name, required, optional = spec
        unknown = set(args) - set(required) - set(optional)
        if unknown:
            raise ProtocolError("op {!r} does not take {}".format(
                op, ", ".join(sorted(unknown))))
        missing = [name for name in required if name not in args]
        if missing:
            raise ProtocolError("op {!r} needs {}".format(
                op, ", ".join(missing)))
        call_args = {name: value for name, value in args.items()
                     if isinstance(name, str)}
        if op in ("submit", "submit_xquery"):
            call_args.setdefault("client", client)
        method = getattr(self.dispatcher, method_name)
        path = args.get("path", "")
        if op in ops.POLL_OPS:
            executor = self._poll_executor
        elif (op in ops.LOCK_FREE_OPS and isinstance(path, str)
                and len(path) <= MAX_CACHED_PATH_CHARS):
            executor = None
        else:
            executor = self._executor
        return executor, functools.partial(method, **call_args)

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

    async def _execute_many(self, client, messages):
        """Execute a contiguous pipelined run; responses in request
        order.

        The head-of-line cost of the naive loop is the per-request
        event-loop <-> worker-thread handoff: depth-8 pipelining paid
        8 executor round trips plus 8 drains. Here consecutive
        shared-executor commands run in ONE executor hop (sequentially
        in the worker, preserving per-connection order). A lock-free
        read pays no hop at all when nothing of its connection is
        queued ahead of it and its document, as published at that
        moment, is small (:meth:`_fits_the_loop`): it runs here, with
        no ``await`` between the size check and the read. Behind
        queued pool work it joins that hop instead — the work may be
        the ``open`` or ``flush`` that decides how large the document
        is, and the hop is already paid — so a read neither overtakes
        its own connection's writes nor runs here against a document
        nobody has measured. Long-poll ops
        (:data:`repro.api.ops.POLL_OPS`, which park their thread) and
        planning failures break the run.
        """
        loop = asyncio.get_running_loop()
        responses = []
        run = []   # (request_id, thunk) pending for the shared hop
        held_s = 0.0   # spent in reads on the loop since it last ran

        async def flush_run():
            if not run:
                return
            batch = run[:]
            del run[:]
            responses.extend(await loop.run_in_executor(
                self._executor,
                lambda: [_answer(*planned) for planned in batch]))

        for message in messages:
            request_id = message.get("id")
            try:
                request_id, op, args = protocol.parse_request(message)
                executor, thunk = self._plan(client, op, args)
            except Exception as error:
                await flush_run()
                responses.append(protocol.error_response(request_id,
                                                         error))
                continue
            trace = message.get("trace")
            if isinstance(trace, str) and trace:
                # the traced thunk runs synchronously wherever it runs
                # (worker hop or loop), so the contextvar set by
                # run_traced propagates through dispatch -> store ->
                # durability
                thunk = functools.partial(self.obs.run_traced, trace,
                                          op, thunk)
            if executor is None and (
                    run or not self._fits_the_loop(args["doc_id"])):
                executor = self._executor
            self._m_route["loop" if executor is None else "pool"].inc()
            if executor is self._executor:
                run.append((request_id, thunk))
                continue
            if executor is not None:
                await flush_run()
                responses.append(await loop.run_in_executor(
                    executor, _answer, request_id, thunk))
                continue
            started = loop.time()
            responses.append(_answer(request_id, thunk))
            held_s += loop.time() - started
            if held_s > self._loop_slice_s:
                # a pipelined run of reads at the size limit: let the
                # other connections in as often as a pool thread would
                await asyncio.sleep(0)
                held_s = 0.0
        await flush_run()
        return responses

    async def _handle_connection(self, reader, writer):
        connection = _Connection(self, reader, writer)
        self._connections[connection] = asyncio.current_task()
        self._m_connections.inc()
        self._m_connections_total.inc()
        try:
            await connection.run()
        finally:
            self._connections.pop(connection, None)
            self._m_connections.dec()

    def _next_session_name(self):
        self._sessions += 1
        return "conn-{}".format(self._sessions)


class _Connection:
    """One client connection: negotiation, reader, ordered worker."""

    def __init__(self, server, reader, writer):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.decoder = protocol.FrameDecoder()
        self.queue = asyncio.Queue(maxsize=server.max_pipeline)
        #: the identity the hello gave this connection
        self.client = None
        self._frames = []
        self._reader_task = None
        self._worker_task = None

    async def run(self):
        try:
            if not await self._negotiate():
                return
            self._worker_task = asyncio.ensure_future(self._work())
            self._reader_task = asyncio.ensure_future(self._read())
            await asyncio.wait({self._reader_task})
            await self.queue.put(_EOF)
            await self._worker_task
        finally:
            for task in (self._reader_task, self._worker_task):
                if task is not None and not task.done():
                    task.cancel()
            await self._close_writer()

    async def shutdown(self):
        """Server-initiated close: stop reading; ``run`` then finishes
        the already-queued requests and flushes their responses out."""
        if self._reader_task is not None and not self._reader_task.done():
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            except Exception:
                pass
        elif self._reader_task is None:
            # still negotiating: the handler is blocked reading the
            # hello frame, and only closing the transport unblocks it
            # (otherwise a silent pre-hello connection parks aclose
            # forever)
            try:
                self.writer.close()
            except (ConnectionError, OSError):
                pass

    # -- negotiation ---------------------------------------------------------

    async def _negotiate(self):
        """Handle the mandatory hello frame; ``False`` closes the
        connection (an error response was already sent best-effort)."""
        try:
            message = await self._next_frame()
        except ProtocolError as error:
            await self._send(protocol.error_response(None, error))
            return False
        if message is None:
            return False
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
            await self._send(protocol.error_response(request_id, error))
            return False
        self.client = client or self.server._next_session_name()
        # the hello response itself always travels as JSON (the
        # client cannot know the outcome before reading it); both
        # sides switch codecs right after this frame
        sent = await self._send(protocol.ok_response(request_id, {
            "version": version, "server": "repro-store",
            "client": self.client,
            "features": list(SERVER_FEATURES)}))
        self.decoder.use_version(version)
        return sent

    # -- reader / worker -----------------------------------------------------

    async def _read(self):
        """Feed well-formed requests into the bounded queue."""
        while True:
            try:
                message = await self._next_frame()
            except ProtocolError as error:
                # framing is gone: the worker sends this after every
                # already-queued request and the connection closes
                await self.queue.put(_ReaderFailure(
                    protocol.error_response(None, error)))
                return
            if message is None:
                return
            await self.queue.put(message)

    async def _work(self):
        """Execute queued requests in order; the only writer.

        Pipelined requests already sitting in the queue are drained
        into one batch, executed in a single worker hop
        (:meth:`StoreServer._execute_many`) and answered with one
        write + drain — the per-request handoff and flush latency is
        what capped the pipelining speedup (see api/README.md).
        """
        while True:
            item = await self.queue.get()
            if item is _EOF:
                return
            if isinstance(item, _ReaderFailure):
                await self._send(item.response)
                return
            batch = [item]
            tail = None
            while tail is None:
                try:
                    item = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _EOF or isinstance(item, _ReaderFailure):
                    tail = item
                else:
                    batch.append(item)
            self.server._m_pipeline.observe(len(batch))
            responses = await self.server._execute_many(
                self.client, batch)
            if not await self._send_many(responses):
                return
            if tail is _EOF:
                return
            if tail is not None:
                await self._send(tail.response)
                return

    async def _next_frame(self):
        """One decoded frame, or ``None`` on EOF at a frame boundary.

        EOF mid-frame is a torn trailing frame: reported as a
        :class:`ProtocolError` (the peer died mid-send), never a crash.
        """
        while True:
            if self._frames:
                return self._frames.pop(0)
            if self.decoder.error is not None:
                # the damage arrived in one read with the requests
                # ahead of it; those are queued, now report it
                raise self.decoder.error
            try:
                data = await self.reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                # an abrupt peer death (RST, not FIN) reads the same as
                # EOF: the connection is simply over
                return None
            if not data:
                if not self.decoder.at_boundary():
                    raise ProtocolError(
                        "connection closed mid-frame ({} trailing "
                        "bytes)".format(self.decoder.pending_bytes))
                return None
            decoded = self.decoder.feed(data)
            if decoded:
                self.server._m_frames_in.inc(len(decoded))
                self._frames.extend(decoded)

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

    async def _send(self, message):
        """Write one frame; ``False`` when the peer is gone."""
        return await self._send_many([message])

    async def _send_many(self, messages):
        """Write a batch of frames with one write and one flush;
        ``False`` when the peer is gone or a frame could not be
        made."""
        frames = []
        for message in messages:
            frame = self._frame(message)
            if frame is None:
                break
            frames.append(frame)
        try:
            self.writer.write(b"".join(frames))
            await self.writer.drain()
        except (ConnectionError, OSError):
            return False
        self.server._m_frames_out.inc(len(frames))
        return len(frames) == len(messages)

    async def _close_writer(self):
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
