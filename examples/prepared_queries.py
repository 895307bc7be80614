"""The prepared-query service layer: prepare once, execute many times.

Run with::

    PYTHONPATH=src python examples/prepared_queries.py

Shows the full service lifecycle on the parameterized running query:

1. ``repro.connect`` opens the connection owning the service and plan cache;
2. ``Connection.prepare`` compiles the text once — parse, type check,
   Lemma 1, standard form, Strategies 3-4 — and caches the plan;
3. ``PreparedQuery.execute`` late-binds parameter values and runs only the
   collection / combination / construction phases (``Cursor.execute`` with
   the same bindings streams instead);
4. repeated ``prepare`` calls hit the LRU plan cache (watch the hit/miss
   counters);
5. a catalog change bumps the database's schema version and invalidates
   the cached plans;
6. ``QueryService.execute_batch`` (and ``Cursor.executemany``, its cursor
   face) runs one request after another through the per-binding memos: in a
   repeated batch only the selections, which have no collection phase to
   memoize, read their relation again.
"""

from repro import build_university_database, connect
from repro.workloads.queries import (
    RUNNING_QUERY_PARAM_TEXT,
    STATUS_PARAM_TEXT,
    TEACHES_AT_LEVEL_PARAM_TEXT,
)


def main() -> None:
    database = build_university_database(scale=2)
    connection = connect(database)
    service = connection.service

    print("The parameterized running query:")
    print(RUNNING_QUERY_PARAM_TEXT.strip())
    print()

    # -- prepare once ---------------------------------------------------------
    prepared = connection.prepare(RUNNING_QUERY_PARAM_TEXT)
    print(f"prepared: parameters {prepared.parameter_names}")
    print("transformations recorded at prepare time:")
    print(prepared.trace.describe())
    print()

    # -- execute with different bindings --------------------------------------
    # A streaming cursor late-binds the values into the cached plan; the
    # same text hits the plan cache on every execution.
    for values in (
        {"status": "professor", "year": 1977, "level": "sophomore"},
        {"status": "student", "year": 1975, "level": "senior"},
        {"status": "professor", "year": 1982, "level": "freshman"},
    ):
        cursor = connection.execute(RUNNING_QUERY_PARAM_TEXT, values)
        names = sorted(record.ename.strip() for record in cursor)
        print(f"  {values} -> {cursor.rowcount} element(s): {names}")
    print()

    # -- the plan cache --------------------------------------------------------
    service.prepare(RUNNING_QUERY_PARAM_TEXT)   # same text: cache hit
    service.prepare("  " + RUNNING_QUERY_PARAM_TEXT + "  {a comment}")  # same tokens
    print(f"plan cache after re-preparing twice: {service.cache_info()}")

    database.create_index("employees", "enr")   # catalog change...
    service.prepare(RUNNING_QUERY_PARAM_TEXT)   # ...so this recompiles
    print(f"plan cache after a catalog change:   {service.cache_info()}")
    print()

    # -- batch execution -------------------------------------------------------
    requests = [
        (STATUS_PARAM_TEXT, {"status": "professor"}),
        (STATUS_PARAM_TEXT, {"status": "student"}),
        (TEACHES_AT_LEVEL_PARAM_TEXT, {"level": "sophomore"}),
        (RUNNING_QUERY_PARAM_TEXT, {"status": "professor", "year": 1977, "level": "sophomore"}),
    ]
    print("a batch is one request after another through the memos:")
    for round_name in ("first", "repeated"):
        batch = service.execute_batch(requests)
        scans = {
            name: counters["scans"]
            for name, counters in batch[-1].statistics["relations"].items()
        }
        sizes = [len(result) for result in batch]
        print(f"  {round_name} batch: {sizes} element(s), relation scans {scans}")
    print()

    # -- executemany: the cursor face of execute_batch --------------------------
    cursor = connection.executemany(
        STATUS_PARAM_TEXT, [{"status": "professor"}, {"status": "student"}]
    )
    print(f"executemany over two bindings: {cursor.rowcount} row(s) total")
    connection.close()


if __name__ == "__main__":
    main()
