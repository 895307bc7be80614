"""The public front door: connections, transactional sessions, streaming cursors.

``repro.connect(database)`` opens a thread-safe :class:`Connection` that
owns the prepared-query service and plan cache; ``Connection.session()``
scopes transactional work with ``begin``/``commit``/``rollback`` over an
undo journal; ``Connection.cursor()`` hands out DB-API-flavoured cursors
whose fetches stream rows off the live operator pipeline.

An asyncio program needs nothing more: a connection cursor reads a pinned
snapshot and holds no lock between fetches, so ``await
asyncio.to_thread(cursor.fetchall)`` keeps the event loop free.
"""

from repro.api.connection import Connection, connect
from repro.api.cursor import Column, Cursor
from repro.api.session import Session

__all__ = [
    "Column",
    "Connection",
    "Cursor",
    "Session",
    "connect",
]
