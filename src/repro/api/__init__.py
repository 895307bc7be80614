"""The public front door: connections, transactional sessions, streaming cursors.

``repro.connect(database)`` opens a thread-safe :class:`Connection` that
owns the prepared-query service and plan cache; ``Connection.session()``
scopes transactional work with ``begin``/``commit``/``rollback`` over an
undo journal; ``Connection.cursor()`` hands out DB-API-flavoured cursors
whose fetches stream rows off the live operator pipeline.

``repro.aconnect(database)`` is the same surface for asyncio programs: an
:class:`AsyncConnection` wrapping the thread-safe connection, whose cursors
drain pinned-snapshot pipelines through a thread pool without blocking the
event loop.
"""

from repro.api.connection import Connection, connect
from repro.api.cursor import Column, Cursor
from repro.api.session import Session

__all__ = [
    "AsyncConnection",
    "AsyncCursor",
    "AsyncSession",
    "Column",
    "Connection",
    "Cursor",
    "Session",
    "aconnect",
    "connect",
]

#: Exported lazily (PEP 562): the asyncio front door — and with it
#: ``asyncio``, ``ssl`` and ``socket`` — loads on first use, not for
#: programs that never await.
ASYNC_EXPORTS = frozenset({"AsyncConnection", "AsyncCursor", "AsyncSession", "aconnect"})


def __getattr__(name: str):
    if name in ASYNC_EXPORTS:
        from repro.api import aio

        return getattr(aio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
