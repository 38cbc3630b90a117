"""In-process cluster harness: StoreServers on their own threads.

Each node runs a real asyncio :class:`StoreServer` on a dedicated
thread and event loop, listening on an ephemeral localhost port — the
same isolation a separate process gives, minus the fork cost — so
cluster tests exercise genuine sockets, the real long-poll path and
real cross-thread wakeups.
"""

import asyncio
import threading
import time

from repro.api.server import StoreServer


def wait_until(predicate, timeout=30.0, interval=0.05):
    """Poll ``predicate`` until it holds or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class ServerThread:
    """One cluster node: a store served on its own thread and loop."""

    def __init__(self, store, max_pipeline=32):
        self.store = store
        self._max_pipeline = max_pipeline
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.address = None        # "host:port" once running
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:      # noqa: BLE001 — re-raised
            self.error = exc
        finally:
            self._ready.set()

    async def _main(self):
        server = StoreServer(self.store, host="127.0.0.1", port=0,
                             max_pipeline=self._max_pipeline)
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.address = "{}:{}".format(*server.tcp_address)
        self._ready.set()
        await self._stop.wait()
        await server.aclose(drain=False)

    def start(self):
        self._thread.start()
        self._ready.wait()
        if self.error is not None:
            self._thread.join()
            raise self.error
        return self

    def stop(self):
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass
        self._thread.join(timeout=60)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
