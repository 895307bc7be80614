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
* **batch execution** — ``execute_batch`` runs many requests one after
  another, each through the same prepared handle and per-binding memos a
  single ``execute`` uses;
* **thread safety** — every execution reads a pinned snapshot with private
  counters (:mod:`repro.relational.mvcc`), and the cache and memos take
  their own locks, so concurrent callers need no lock of the service's.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.calculus.ast import Selection
from repro.config import ServiceOptions, StrategyOptions
from repro.engine.evaluator import QueryEngine, QueryResult, on_pin, resolve_query
from repro.errors import BindingError, PascalRError, PlanError
from repro.lang.lexer import PLACEHOLDERS, scan_shape, tokenize
from repro.lang.parser import Parser
from repro.service.cache import BoundedLRU, PlanCache
from repro.service.prepared import PreparedQuery
from repro.transform.pipeline import prepare_query

__all__ = ["QueryService"]


def _check_request(query, parameters) -> None:
    """Reject what is no query or no binding set, before anything is pinned or compiled."""
    if not isinstance(query, (str, Selection, PreparedQuery)):
        raise PlanError(
            "a query is a text, a Selection or a PreparedQuery, "
            f"not {type(query).__name__}"
        )
    if parameters is not None and not isinstance(parameters, Mapping):
        raise BindingError(
            "parameters are a mapping of names to values (or None), "
            f"not {type(parameters).__name__}"
        )


def _check_batch(requests) -> list[tuple]:
    """Each request of a batch as a checked ``(query, parameters)`` pair — all
    of them before the first is compiled."""
    if not isinstance(requests, Iterable):
        raise PlanError(f"a batch is an iterable of requests, not {type(requests).__name__}")
    pairs = []
    for request in requests:
        if isinstance(request, (tuple, list)):
            if len(request) != 2:
                raise PlanError(
                    "a batch request is a query or a (query, parameters) pair, "
                    f"not a {type(request).__name__} of {len(request)}"
                )
            query, parameters = request
        else:
            query, parameters = request, None
        _check_request(query, parameters)
        pairs.append((query, parameters))
    return pairs


class QueryService:
    """Prepared-query service over one database."""

    def __init__(
        self,
        database,
        options: StrategyOptions | None = None,
        service_options: ServiceOptions | None = None,
        *,
        engine: QueryEngine | None = None,
        cache: PlanCache | None = None,
    ) -> None:
        self.database = database
        self.options = options or StrategyOptions()
        self.service_options = service_options or ServiceOptions()
        cache_capacity = self.service_options.plan_cache_capacity
        self.engine = engine if engine is not None else QueryEngine(database, self.options)
        self.cache = cache if cache is not None else PlanCache(cache_capacity)
        # Raw text -> (cache key, literal values).  Repeated executions of the
        # *same string* skip the scan; texts that differ only in trivia or in
        # constants still meet at the shape.  ``None`` for the literals marks
        # a text keyed as written (see ``prepare``); stored on its second sighting.
        self._text_keys = BoundedLRU(max(cache_capacity * 4, 16), second_sighting=True)
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

        Shares this service's engine and plan cache (cache keys embed the
        strategy options, so entries never cross over), which is how
        per-session :class:`~repro.config.StrategyOptions` /
        :class:`~repro.config.ServiceOptions` overrides work without a second
        cache.  The shared cache keeps its capacity,
        so an override asking for another ``plan_cache_capacity`` is a
        :class:`~repro.errors.PlanError`, not silently ignored.
        """
        capacity = self.cache.capacity
        if service_options is not None and service_options.plan_cache_capacity != capacity:
            raise PlanError(
                f"plan_cache_capacity={service_options.plan_cache_capacity} cannot be "
                f"overridden: this service shares a plan cache of capacity {capacity} "
                "(set it on the connection)"
            )
        return QueryService(
            self.database,
            options=options or self.options,
            service_options=service_options or self.service_options,
            engine=self.engine,
            cache=self.cache,
        )

    # -- cache keys --------------------------------------------------------------------

    def _text_key(self, text: str) -> tuple:
        entry = self._text_keys.get(text)
        if entry is None:
            entry = scan_shape(text)
            self._text_keys.put(text, entry)
        return entry

    def _follow_catalog(self) -> None:
        """Purge the cached plans when the live ``schema_version`` has moved.

        Keys embed the catalog version of what a plan was compiled against,
        so a catalog change makes every existing entry permanently dead; the
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
        # A concurrent catalog change can still slip a store in under the old
        # version, as a pin older than the change does; that entry is merely
        # unreachable until LRU-evicted.

    # -- prepare / execute -------------------------------------------------------------

    def _admit(
        self,
        query: str | Selection | "PreparedQuery",
        options: StrategyOptions | None,
        source=None,
    ) -> "PreparedQuery":
        """Resolve a request into a PreparedQuery that fits ``source``: prepared
        against it, or — a handle the caller held — refused when stale for it."""
        if isinstance(query, PreparedQuery):
            if options is not None and options != query.options:
                raise PlanError(
                    "a PreparedQuery carries its own strategy options; "
                    "prepare the query again to execute under different options"
                )
            query.ensure_fresh(source)
            return query
        return self.prepare(query, options, source)

    def prepare(
        self, query: str | Selection, options: StrategyOptions | None = None, source=None
    ) -> PreparedQuery:
        """Compile ``query`` once (or fetch it from the plan cache).

        The returned :class:`PreparedQuery` captures the type-checked AST,
        the transformation trace and the strategy configuration; execute it
        repeatedly with different parameter bindings.

        ``source`` is the state the plan will run on — a pinned snapshot; when
        omitted, the engine door's pin (:meth:`Database._door_pin`), released
        after the compile: its catalog version keys the lookup, a hit is
        validated against its emptiness, a miss is compiled against it, and
        its tracker counts the hit or miss, so a plan is never prepared
        against one state and run on another.

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
        if source is None:
            with self.engine._reading() as pin:
                return self.prepare(query, options, pin)
        self._follow_catalog()
        if not isinstance(query, str):
            return self._prepare_as_written(query, query, options, source)
        key, literals = self._text_key(query)
        if literals is not None:
            try:
                return self._prepare_shape(query, key, literals, options, source)
            except PascalRError:
                pass
            key = tuple((token.type, token.value) for token in tokenize(query))
            self._text_keys.put(query, (key, None))
        return self._prepare_as_written(query, key, options, source)

    def _lookup(self, cache_key: tuple, source) -> PreparedQuery | None:
        # A stale hit (a referenced relation flipped empty <-> non-empty
        # since the plan was compiled) counts as a miss: the recompiled plan
        # overwrites the entry under the same key.
        return self.cache.lookup(
            cache_key,
            validate=lambda entry: not entry.is_stale(source),
            statistics=source.statistics,
        )

    def _prepare_shape(
        self, text: str, shape: tuple, literals: tuple, options: StrategyOptions, source
    ) -> PreparedQuery:
        cache_key = (shape, options, source.schema_version)
        shared = self._lookup(cache_key, source)
        if shared is None:
            tokens = tokenize(text)
            parser = Parser(tokens, lift=True)
            parsed = parser.parse_selection()
            # What a constant is, is the parser's decision; the scan guessed.
            guessed = [i for i, lexeme in enumerate(shape) if lexeme in PLACEHOLDERS]
            if parser.lifted != guessed or len(tokens) != len(shape) + 1:
                raise PlanError("the shape scan and the parser disagree on the constants")
            selection = resolve_query(parsed, source)
            shared = self._compile(selection, options, text, source, lifted=len(guessed))
            self.cache.store(cache_key, shared)
        return shared.for_text(text, literals) if literals else shared

    def _prepare_as_written(
        self, query: str | Selection, key: object, options: StrategyOptions, source
    ) -> PreparedQuery:
        cache_key = (key, options, source.schema_version)
        prepared = self._lookup(cache_key, source)
        if prepared is None:
            text = query if isinstance(query, str) else None
            prepared = self._compile(resolve_query(query, source), options, text, source)
            self.cache.store(cache_key, prepared)
        return prepared

    def _compile(
        self, selection: Selection, options: StrategyOptions, text: str | None, source,
        lifted: int = 0,
    ) -> PreparedQuery:
        # Deferring restricted-range adaptation is what makes the plan
        # cacheable: compilation then reads the data only through
        # whole-relation emptiness (validated on every cache hit), and an
        # empty restricted range at execution takes the runtime fallback.
        plan = prepare_query(
            selection, source, options, resolve=False, defer_restricted_ranges=True
        )
        return PreparedQuery(
            engine=self.engine,
            plan=plan,
            options=options,
            text=text,
            source=source,
            collection_cache_size=self.service_options.collection_cache_size,
            lifted=lifted,
        )

    def execute(
        self,
        query: str | Selection | PreparedQuery,
        parameters: Mapping[str, Any] | None = None,
        options: StrategyOptions | None = None,
    ) -> QueryResult:
        """Prepare (or reuse) and execute ``query`` with ``parameters`` — eagerly.

        :meth:`start` on a pin of the committed state, drained: the result
        is finished and its pin released.  Its statistics are this request's
        own, the plan-cache hit or miss next to the access counters.
        """
        return self.start(query, parameters, options).drain()

    def start(
        self,
        query: str | Selection | PreparedQuery,
        parameters: Mapping[str, Any] | None = None,
        options: StrategyOptions | None = None,
        journal=None,
    ) -> QueryResult:
        """Prepare (or reuse) ``query`` and start one execution of it, lazily.

        The one way in.  Compilation, binding, the collection phase and the
        combination pipeline's set-up run here; the rows flow through
        ``result.row_iterator``, and ``result.close()`` ends the execution
        wherever it stands.

        It runs on a :class:`~repro.relational.mvcc.DatabaseSnapshot` and
        takes no lock: of the committed state, or, when ``journal`` is the
        open transaction's own, of that transaction's writes up to this
        call.  The pin comes first, so the plan is admitted against the state
        it runs on and the pin's tracker counts the plan-cache lookup too;
        when the rows end, however they end, the pin is released (merging
        those counters) once.  The pin is this execution's alone, so its
        tracker is the stamp: ``result.statistics`` renders it on first read.
        """
        _check_request(query, parameters)
        source = self.database.pin_snapshot(journal)
        result = on_pin(source, lambda: self._admit(query, options, source).start(parameters, source))
        result._own_tracker = True
        return result

    # -- batch execution ---------------------------------------------------------------

    def execute_batch(
        self,
        requests: Iterable[str | Selection | PreparedQuery | tuple | Sequence],
        options: StrategyOptions | None = None,
        journal=None,
    ) -> list[QueryResult]:
        """Execute many queries eagerly, one after another.

        Each request is a query (text, selection or :class:`PreparedQuery`)
        or a ``(query, parameters)`` pair; every request is checked before
        the first is compiled.  Each runs as :meth:`start` would, on a pin
        of its own (``journal`` as there), drained, through its handle's
        per-binding memos.  Results come back in request order, each with
        its own statistics.
        """
        pairs = _check_batch(requests)
        return [
            self.start(query, parameters, options, journal).drain()
            for query, parameters in pairs
        ]

    # -- maintenance -------------------------------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop all cached plans.

        This empties the service's own cache only.  Held
        :class:`PreparedQuery` handles keep their per-binding memos, which
        are guarded by the catalog version and the contents versions of the
        relations they read — after a data
        mutation that bypassed the tracked relation operations, call
        :meth:`Database.bump_schema_version` instead: it invalidates the
        cache keys *and* makes every held handle refuse to execute.
        """
        self.cache.invalidate()

    def cache_info(self) -> dict:
        """Plan-cache occupancy and hit/miss counters."""
        return self.cache.info()
