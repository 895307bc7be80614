"""The query service: a thread-safe prepare/execute/execute_batch facade.

:class:`QueryService` is the front door a long-running deployment would
expose.  It wraps a :class:`~repro.engine.evaluator.QueryEngine` with:

* **plan caching** — ``prepare`` keys compiled plans on the query's *shape*
  (its lexemes with the constants lifted out), the strategy options and the
  database's ``schema_version``, and validates a hit against the emptiness
  of the relations the plan ranges over (see :mod:`repro.service.cache`), so
  a thousand texts that differ only in their constants are parsed, type
  checked and transformed once;
* **parameterized execution** — ``execute(text, {"year": 1977})`` late-binds
  values into the cached plan instead of recompiling;
* **batch execution** — ``execute_batch`` groups queries that range over the
  same relations and pays each Strategy 1 relation scan once per batch
  (:mod:`repro.service.batch`);
* **thread safety** — the cache takes its own lock, and executions are
  serialized over the engine's database (whose access statistics, buffer
  pool and intermediate bookkeeping are deliberately unsynchronized hot
  paths), so concurrent callers see consistent results and counters.
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, Iterable, Mapping, Sequence

from repro.calculus.ast import Selection
from repro.calculus.typecheck import TypeChecker
from repro.config import ServiceOptions, StrategyOptions
from repro.engine.evaluator import QueryEngine, QueryResult
from repro.errors import PascalRError, PlanError
from repro.lang.lexer import PLACEHOLDERS, scan_shape, tokenize
from repro.lang.parser import Parser
from repro.service.batch import execute_plans_batched
from repro.service.cache import BoundedLRU, PlanCache, emptiness_signature
from repro.service.prepared import PreparedQuery
from repro.transform.pipeline import prepare_query

__all__ = ["QueryService"]


class QueryService:
    """Prepared-query service over one database."""

    def __init__(
        self,
        database,
        options: StrategyOptions | None = None,
        cache_capacity: int | None = None,
        service_options: ServiceOptions | None = None,
        *,
        engine: QueryEngine | None = None,
        execution_lock: threading.RLock | None = None,
        cache: PlanCache | None = None,
        _internal: bool = False,
    ) -> None:
        if not _internal:
            # Direct construction is the pre-connection surface.  The shim
            # keeps it working but routes it through the database's default
            # connection: the deprecated service shares that connection's
            # engine and execution lock, so old and new callers serialize in
            # one domain instead of racing each other.
            warnings.warn(
                "constructing QueryService directly is deprecated; use "
                "repro.connect(database, ...) — the Connection owns the service "
                "(reach it as connection.service)",
                DeprecationWarning,
                stacklevel=2,
            )
            from repro.api.connection import default_connection

            shared = default_connection(database).service
            engine = engine or shared.engine
            execution_lock = execution_lock or shared._execution_lock
        self.database = database
        self.options = options or StrategyOptions()
        self.service_options = service_options or ServiceOptions()
        if cache_capacity is not None:
            self.service_options = self.service_options.with_(
                plan_cache_capacity=cache_capacity
            )
        cache_capacity = self.service_options.plan_cache_capacity
        self.engine = engine if engine is not None else QueryEngine(database, self.options)
        self.cache = (
            cache
            if cache is not None
            else PlanCache(cache_capacity, statistics=database.statistics)
        )
        self._execution_lock = (
            execution_lock if execution_lock is not None else threading.RLock()
        )
        # Raw text -> (cache key, literal values).  Repeated executions of the
        # *same string* skip the scan; texts that differ only in trivia or in
        # constants still meet at the shape.  ``None`` for the literals marks
        # a text keyed as written (see ``prepare``).
        self._text_keys = BoundedLRU(max(cache_capacity * 4, 16))
        # The schema version the cached plans belong to; a catalog change
        # makes every entry permanently unreachable (keys embed the version),
        # so they are dropped eagerly instead of lingering until evicted.
        # Emptiness transitions do NOT purge: those entries become reachable
        # again when the signature flips back.
        self._cache_schema_version: int | None = None
        self._epoch_lock = threading.Lock()

    def derive(
        self,
        options: StrategyOptions | None = None,
        service_options: ServiceOptions | None = None,
    ) -> "QueryService":
        """A sibling service with different defaults over the same machinery.

        Shares this service's engine, execution lock and plan cache (cache
        keys embed the strategy options, so entries never cross over), which
        is how per-session :class:`~repro.config.StrategyOptions` /
        :class:`~repro.config.ServiceOptions` overrides work without opening
        a second serialization domain.
        """
        return QueryService(
            self.database,
            options=options or self.options,
            service_options=service_options or self.service_options,
            engine=self.engine,
            execution_lock=self._execution_lock,
            cache=self.cache,
            _internal=True,
        )

    # -- cache keys --------------------------------------------------------------------

    def _text_key(self, text: str) -> tuple:
        entry = self._text_keys.get(text)
        if entry is None:
            entry = scan_shape(text)
            self._text_keys.put(text, entry)
        return entry

    def _schema_epoch(self) -> int:
        """The schema version cached plans are keyed on.

        A catalog change makes every existing entry permanently dead, so the
        cache is purged eagerly instead of letting those plans pin memory
        until LRU eviction.  Emptiness transitions are NOT part of the key:
        a cache hit is instead validated against the plan's own restricted
        emptiness signature (``PreparedQuery.is_stale``), so flipping an
        unrelated relation neither misses nor duplicates entries.
        """
        schema_version = self.database.schema_version
        with self._epoch_lock:
            if schema_version != self._cache_schema_version:
                if self._cache_schema_version is not None:
                    self.cache.invalidate()
                    # Whether a literal fits its component is the catalog's word.
                    self._text_keys.clear()
                self._cache_schema_version = schema_version
        # A concurrent catalog change can still slip a store in under the
        # old version; that entry is merely unreachable until LRU-evicted.
        return schema_version

    # -- prepare / execute -------------------------------------------------------------

    def _admit(
        self,
        query: str | Selection | "PreparedQuery",
        options: StrategyOptions | None,
    ) -> "PreparedQuery":
        """Resolve a request into a PreparedQuery, rejecting conflicting options."""
        if isinstance(query, PreparedQuery):
            if options is not None and options != query.options:
                raise PlanError(
                    "a PreparedQuery carries its own strategy options; "
                    "prepare the query again to execute under different options"
                )
            return query
        return self.prepare(query, options)

    def prepare(
        self, query: str | Selection, options: StrategyOptions | None = None
    ) -> PreparedQuery:
        """Compile ``query`` once (or fetch it from the plan cache).

        The returned :class:`PreparedQuery` captures the type-checked AST,
        the transformation trace and the strategy configuration; execute it
        repeatedly with different parameter bindings.

        A text is keyed by its *shape*: texts that differ only in their
        constants — numbers, strings, enumeration labels — share one plan,
        compiled with each constant lifted to a positional parameter, and
        the handle returned for a text binds that text's constants by itself.
        When compiling or binding the lifted form fails, for whatever reason,
        the text is compiled as written, under a key that keeps its
        constants: that compilation raises what the text deserves (the type
        error of a constant outside its subrange, not a binding error about
        a parameter nobody wrote) or answers for a text the shape scan
        misjudged.  Errors are not cached, so a text with a bad constant
        neither replaces nor evicts the entry its shape shares.
        """
        options = options or self.options
        epoch = self._schema_epoch()
        if not isinstance(query, str):
            return self._prepare_as_written(query, query, options, epoch)
        key, literals = self._text_key(query)
        if literals is not None:
            try:
                return self._prepare_shape(query, key, literals, options, epoch)
            except PascalRError:
                pass
            key = tuple((token.type, token.value) for token in tokenize(query))
            self._text_keys.put(query, (key, None))
        return self._prepare_as_written(query, key, options, epoch)

    def _lookup(self, cache_key: tuple) -> PreparedQuery | None:
        # A stale hit (a referenced relation flipped empty <-> non-empty
        # since the plan was compiled) counts as a miss: the recompiled plan
        # overwrites the entry under the same key.
        return self.cache.lookup(cache_key, validate=lambda entry: not entry.is_stale())

    def _prepare_shape(
        self, text: str, shape: tuple, literals: tuple, options: StrategyOptions, epoch: int
    ) -> PreparedQuery:
        cache_key = (shape, options, epoch)
        shared = self._lookup(cache_key)
        if shared is None:
            tokens = tokenize(text)
            parser = Parser(tokens, lift=True)
            parsed = parser.parse_selection()
            # What a constant is, is the parser's decision; the scan guessed.
            guessed = [i for i, lexeme in enumerate(shape) if lexeme in PLACEHOLDERS]
            if parser.lifted != guessed or len(tokens) != len(shape) + 1:
                raise PlanError("the shape scan and the parser disagree on the constants")
            selection = TypeChecker.for_database(self.database).resolve(parsed)
            shared = self._compile(selection, options, text, lifted=len(guessed))
            self.cache.store(cache_key, shared)
        return shared.for_text(text, literals) if literals else shared

    def _prepare_as_written(
        self, query: str | Selection, key: object, options: StrategyOptions, epoch: int
    ) -> PreparedQuery:
        cache_key = (key, options, epoch)
        prepared = self._lookup(cache_key)
        if prepared is None:
            text = query if isinstance(query, str) else None
            prepared = self._compile(self.engine._admit(query), options, text)
            self.cache.store(cache_key, prepared)
        return prepared

    def _compile(
        self, selection: Selection, options: StrategyOptions, text: str | None, lifted: int = 0
    ) -> PreparedQuery:
        # Deferring restricted-range adaptation is what makes the plan
        # cacheable: compilation then reads the data only through
        # whole-relation emptiness (validated on every cache hit), and an
        # empty restricted range at execution takes the runtime fallback.
        plan = prepare_query(
            selection, self.database, options, resolve=False, defer_restricted_ranges=True
        )
        return PreparedQuery(
            engine=self.engine,
            plan=plan,
            options=options,
            text=text,
            schema_version=self.database.schema_version,
            collection_cache_size=self.service_options.collection_cache_size,
            lock=self._execution_lock,
            reopt_qerror_threshold=self.service_options.reopt_qerror_threshold,
            lifted=lifted,
        )

    def execute(
        self,
        query: str | Selection | PreparedQuery,
        parameters: Mapping[str, Any] | None = None,
        options: StrategyOptions | None = None,
    ) -> QueryResult:
        """Prepare (or reuse) and execute ``query`` with ``parameters``.

        Statistics are reset before the plan-cache lookup, so the snapshot on
        the returned result shows this request's ``plan_cache_hits`` /
        ``plan_cache_misses`` next to its access counters.
        """
        with self._execution_lock:
            self.database.reset_statistics()
            prepared = self._admit(query, options)
            return prepared.execute(parameters, reset_statistics=False)

    def execute_streaming(
        self,
        query: str | Selection | PreparedQuery,
        parameters: Mapping[str, Any] | None = None,
        options: StrategyOptions | None = None,
    ) -> QueryResult:
        """Prepare (or reuse) ``query`` and start a *streaming* execution.

        Compilation, binding and the collection/combination pipeline set-up
        run here (under the execution lock); the construction dereference is
        deferred to the returned result's
        :attr:`~repro.engine.evaluator.QueryResult.row_iterator`.  Cursors
        are the intended consumer — they re-acquire the execution lock around
        every fetch, so open streams interleave safely with other requests.
        """
        with self._execution_lock:
            self.database.reset_statistics()
            prepared = self._admit(query, options)
            return prepared.execute_streaming(parameters, reset_statistics=False)

    def execute_streaming_snapshot(
        self,
        query: str | Selection | PreparedQuery,
        parameters: Mapping[str, Any] | None = None,
        options: StrategyOptions | None = None,
    ) -> QueryResult:
        """Start a streaming execution over a pinned snapshot — lock-free.

        The unserialized read path: prepare/bind run against the shared plan
        cache (thread-safe on its own locks), then the bound plan executes on
        a :class:`~repro.relational.mvcc.DatabaseSnapshot` pinned from the
        committed state — never inside the execution lock, so any number of
        readers run concurrently with each other and with one writer
        session.  Reads are accounted to the snapshot's private statistics
        and merged into the database's shared tracker when the stream is
        drained or closed (which also releases the pin).

        A cached plan is only valid for the snapshot when it was compiled
        against the same catalog and the same restricted emptiness
        signature; a mismatch (a DDL or emptiness race with a writer)
        recompiles a transient plan against the snapshot itself.

        Collection structures are memoized under a *relation-granular*
        version token — every relation the query ranges over, at the
        contents version the snapshot captured.  Two snapshots agreeing on
        those versions hold identical contents for exactly the relations
        the collection phase read, so the memo survives writer traffic to
        unrelated relations (where the live path's global ``data_version``
        guard would discard it).
        """
        # Unlike the live path there is no reset of the shared tracker: this
        # path runs outside the execution lock, and a reset here would race
        # (and clobber) an in-flight serialized execution's counters.  The
        # snapshot accounts its reads privately and merges them at release.
        prepared = self._admit(query, options)
        snapshot = self.database.pin_snapshot()
        try:
            engine = QueryEngine(snapshot, prepared.options)
            fits = (
                prepared.schema_version == snapshot.schema_version
                and emptiness_signature(snapshot) & prepared.referenced_relations
                == prepared.prepared_emptiness
            )
            if not fits:
                transient = PreparedQuery(
                    engine=engine,
                    plan=prepare_query(
                        prepared.selection,
                        snapshot,
                        prepared.options,
                        resolve=False,
                        defer_restricted_ranges=True,
                    ),
                    options=prepared.options,
                    text=prepared.text,
                    schema_version=snapshot.schema_version,
                    collection_cache_size=0,
                )
                plan = transient.bind(parameters)
                result = engine.execute_plan_streaming(
                    plan, prepared.options, reset_statistics=False
                )
            else:
                coerced = prepared._coerce_bindings(parameters)
                key = prepared._bindings_key(coerced)
                plan = prepared._bound_plan(coerced, key)
                memoizable = key is not None and prepared._cache_size > 0
                token = (
                    snapshot.schema_version,
                    tuple(
                        (name, snapshot.relation_versions.get(name, -1))
                        for name in sorted(prepared.referenced_relations)
                    ),
                )
                collection = None
                if memoizable:
                    cached = prepared._snapshot_collections.get(key)
                    if cached is not None and cached[0] == token:
                        collection = cached[1]
                computed: list = []
                result = engine.execute_plan_streaming(
                    plan,
                    prepared.options,
                    reset_statistics=False,
                    collection=collection,
                    collection_sink=computed.append,
                )
                if (
                    memoizable
                    and collection is None
                    and computed
                    and not result.used_strategy3_fallback
                ):
                    prepared._snapshot_collections.put(key, (token, computed[0]))
        except BaseException:
            snapshot.release()
            raise
        return self._attach_snapshot_release(result, snapshot)

    def _attach_snapshot_release(
        self, result: QueryResult, snapshot
    ) -> QueryResult:
        """Release the pin (and merge statistics) when the stream finishes."""
        rows = result.row_iterator
        database = self.database

        def releasing():
            try:
                yield from rows
            finally:
                snapshot.release()
                database.statistics.merge(snapshot.statistics)

        result.row_iterator = releasing()
        return result

    # -- batch execution ---------------------------------------------------------------

    def execute_batch(
        self,
        requests: Iterable[
            str | Selection | PreparedQuery | tuple | Sequence
        ],
        options: StrategyOptions | None = None,
    ) -> list[QueryResult]:
        """Execute many queries, sharing collection-phase scans where possible.

        Each request is a query (text, selection or :class:`PreparedQuery`)
        or a ``(query, parameters)`` pair.  Queries whose plans range over
        the same relations under the same options are grouped so every
        Strategy 1 scan is paid once per batch; results come back in request
        order and each equals what individual execution would return.
        """
        with self._execution_lock:
            self.database.reset_statistics()
            items = []
            for request in requests:
                if isinstance(request, (tuple, list)):
                    query, parameters = request
                else:
                    query, parameters = request, None
                prepared = self._admit(query, options)
                prepared.ensure_fresh()
                items.append((prepared.bind(parameters), prepared.options))
            if not self.service_options.batching:
                results = [
                    self.engine.execute_plan(plan, options, reset_statistics=False)
                    for plan, options in items
                ]
                # Same contract as the batched path: every result carries
                # one uniform end-of-batch statistics snapshot.
                snapshot = self.database.statistics.as_dict()
                for result in results:
                    result.statistics = snapshot
                return results
            return execute_plans_batched(self.engine, items, reset_statistics=False)

    # -- maintenance -------------------------------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop all cached plans.

        This empties the service's own cache only.  Held
        :class:`PreparedQuery` handles keep their per-binding memos, which
        are guarded by ``schema_version`` / ``data_version`` — after a data
        mutation that bypassed the tracked relation operations, call
        :meth:`Database.bump_schema_version` instead: it invalidates the
        cache keys *and* makes every held handle refuse to execute.
        """
        self.cache.invalidate()

    def cache_info(self) -> dict:
        """Plan-cache occupancy and hit/miss counters."""
        return self.cache.info()
