"""repro — a reproduction of the PASCAL/R query processing system.

Jarke & Schmidt, *Query Processing Strategies in the PASCAL/R Relational
Database Management System*, ACM SIGMOD 1982.

The most common entry points:

>>> from repro import build_university_database, connect
>>> db = build_university_database(scale=1)
>>> with connect(db) as connection:
...     cursor = connection.execute('''
...         [<e.ename> OF EACH e IN employees: (e.estatus = professor)]
...     ''')
...     rows = cursor.fetchall()
>>> len(rows) > 0
True

``connect`` returns a thread-safe :class:`Connection` owning the plan cache;
``Connection.session()`` scopes transactional mutations
(begin/commit/rollback over an undo journal) and ``Connection.cursor()``
streams results row by row off the operator pipeline.  Passing ``connect`` a
directory *path* instead of a database object opens a disk-resident database
with write-ahead logging and crash recovery:

>>> import repro, tempfile, os                          # doctest: +SKIP
>>> path = os.path.join(tempfile.mkdtemp(), "db")       # doctest: +SKIP
>>> with repro.connect(path, durability=repro.DURABILITY_COMMIT) as conn:
...     ...                                             # doctest: +SKIP
"""

from repro.api import Connection, Cursor, Session, connect
from repro.config import (
    DURABILITY_CHECKPOINT,
    DURABILITY_COMMIT,
    DURABILITY_MODES,
    DURABILITY_OFF,
    ServiceOptions,
    StrategyOptions,
)
from repro.engine.evaluator import QueryEngine, QueryResult, execute_naive
from repro.errors import (
    ConnectionClosedError,
    CursorError,
    RecoveryError,
    SnapshotError,
    TransactionError,
)
from repro.lang.parser import parse_formula, parse_selection
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.service import PreparedQuery, QueryService
from repro.storage.recovery import RecoveryReport
from repro.workloads.bibliography import (
    IngestReport,
    bibliography_database,
    build_bibliography_database,
    load_dblp_xml,
)
from repro.workloads.university import build_university_database, figure1_database

__version__ = "1.4.0"

__all__ = [
    "Connection",
    "ConnectionClosedError",
    "Cursor",
    "CursorError",
    "DURABILITY_CHECKPOINT",
    "DURABILITY_COMMIT",
    "DURABILITY_MODES",
    "DURABILITY_OFF",
    "Database",
    "IngestReport",
    "PreparedQuery",
    "QueryEngine",
    "QueryResult",
    "QueryService",
    "RecoveryError",
    "RecoveryReport",
    "Relation",
    "ServiceOptions",
    "Session",
    "SnapshotError",
    "StrategyOptions",
    "TransactionError",
    "__version__",
    "bibliography_database",
    "build_bibliography_database",
    "build_university_database",
    "connect",
    "execute_naive",
    "figure1_database",
    "load_dblp_xml",
    "parse_formula",
    "parse_selection",
]
