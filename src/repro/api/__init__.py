"""The store's network API: wire protocol, server, clients.

The asyncio :class:`StoreServer` (TCP + Unix sockets, versioned
length-prefixed frames: a JSON hello, binary ever after) is the store's
one front door; it hosts the command core, :class:`StoreDispatcher`. The
clients — blocking :class:`StoreClient` and pipelining
:class:`AsyncStoreClient` — share one method surface and raise
reconstructed :class:`~repro.errors.ReproError` subclasses. See this
package's README for the frame layout, version negotiation and the
error-code table.
"""

from repro.api.client import AsyncStoreClient, StoreClient
from repro.api.dispatch import StoreDispatcher
from repro.api.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameDecoder,
    encode_frame,
)
from repro.api.server import StoreServer

__all__ = [
    "AsyncStoreClient",
    "FrameDecoder",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "StoreClient",
    "StoreDispatcher",
    "StoreServer",
    "encode_frame",
]
