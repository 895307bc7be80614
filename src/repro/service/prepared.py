"""The service-level prepared query: compile once, execute many times.

A :class:`PreparedQuery` captures everything the compile-time pipeline
produced for one (possibly parameterized) query:

* the resolved, type-checked calculus :class:`~repro.calculus.ast.Selection`,
* the compiled :class:`~repro.transform.pipeline.QueryPlan` with its
  :class:`~repro.transform.pipeline.TransformationTrace`,
* the :class:`~repro.config.StrategyOptions` the plan was prepared under, and
* the declared parameters with their resolved scalar types.

Each :meth:`start` call late-binds a set of parameter values into the plan
(:func:`~repro.service.binding.bind_plan` — a structural substitution, no
re-transformation) and hands the bound plan to
:meth:`~repro.engine.evaluator.QueryEngine.execute_plan`, which starts
directly at the collection phase on the pinned snapshot it is given.

Texts that differ only in their constants share one compiled plan: the
service compiles a text with its literals lifted to positional parameters
and hands out, per text, a handle made by :meth:`PreparedQuery.for_text` —
the same object in everything but its text, the literal values it binds by
itself and the parameters it shows (the ``$names`` the text wrote).
"""

from __future__ import annotations

import copy
import weakref
from typing import Any, Mapping, Sequence

from repro.calculus.ast import Selection
from repro.config import StrategyOptions
from repro.engine.evaluator import QueryEngine, QueryResult
from repro.errors import BindingError, PlanError
from repro.relational.mvcc import version_token
from repro.service.binding import (
    UNBOUND,
    bind_plan,
    check_bindings,
    collect_parameters,
    referenced_relations,
)
from repro.service.cache import BoundedLRU
from repro.transform.pipeline import QueryPlan

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """A compiled query ready for repeated execution with parameter bindings."""

    def __init__(
        self,
        engine: QueryEngine,
        plan: QueryPlan,
        options: StrategyOptions,
        source,
        text: str | None = None,
        collection_cache_size: int = 32,
        lifted: int = 0,
    ) -> None:
        self._engine = engine
        self._plan = plan
        self.options = options
        self.text = text
        # ``lifted`` literals of the text were compiled as the positional
        # parameters "0".."lifted-1"; ``parameters`` are the ``$names`` the
        # text declares.  With literals lifted this object is the shape the
        # plan cache holds, and the service hands out ``for_text`` handles,
        # which bind their ``_literals`` by themselves.
        self.parameters = collect_parameters(plan)
        self._positional = {
            name: self.parameters.pop(name) for name in map(str, range(lifted))
        }
        self._literals: dict[str, Any] = {}
        self._as_written: QueryPlan | None = None
        # ``source`` is what the plan was compiled against: the pin of the
        # request that missed the plan cache, or the door's pin of a prepare.
        self.schema_version = source.schema_version
        # The Lemma 1 adaptation baked into the plan depends on which of the
        # relations *this query ranges over* were empty at prepare time;
        # record just those so staleness covers exactly the
        # empty <-> non-empty transitions that can change the plan, and no
        # others (clearing an unrelated relation must not break this handle).
        self.referenced_relations = referenced_relations(plan.selection)
        self._referenced_sorted = tuple(sorted(self.referenced_relations))
        self.prepared_emptiness = self._empty_relations(source)
        # Per-binding memos, LRU-bounded.  ``_bound_plans`` skips the
        # substitution walk for bindings seen before; ``_collections`` reuses
        # whole collection-phase results while every relation the query
        # ranges over provably holds what it held (``version_token`` of them:
        # the memo survives writes to relations the query never reads).
        # Both store a binding on its second sighting: one sent once evicts nothing.
        # BoundedLRU is thread-safe, and what hangs off a memoized
        # collection result (reference ids, the combination plan, its
        # operands' hash tables) is published complete and then only
        # read, so concurrent pinned executions may share one entry.
        self._cache_size = collection_cache_size
        self._bound_plans = BoundedLRU(self._cache_size, second_sighting=True)
        self._collections = BoundedLRU(self._cache_size, second_sighting=True)
        # Literal values -> the ``for_text`` handle binding them, so a text
        # prepared again (in any spelling of its trivia) gets the handle it
        # got before, as a literal-free text gets the one cached object.
        # Weak: a handle holds this map too (it is a copy), and a strong one
        # would tie every handle — and through its engine the database —
        # into a cycle only the garbage collector could free.
        self._handles: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def for_text(self, text: str, literals: Sequence[Any]) -> "PreparedQuery":
        """The handle of one text of this shape: ``literals`` are its constants.

        Shares the compiled plan and the memos with this object; differs in
        its text and in binding ``literals`` (in source order, coerced here
        through the compared components' types) by itself.  Raises
        :class:`~repro.errors.BindingError` when a literal is no value of its
        component's type — the caller then compiles the text as written for
        the error a user should see.
        """
        literals = tuple(literals)
        handle = self._handles.get(literals)
        if handle is None:
            handle = copy.copy(self)
            handle.text = text
            handle._literals = check_bindings(
                self._positional, dict(zip(self._positional, literals))
            )
            self._handles[literals] = handle
        return handle

    # -- introspection ----------------------------------------------------------------

    @property
    def plan(self) -> QueryPlan:
        """The compiled plan as this text wrote it.

        For the handle of a text with lifted literals that is the shared plan
        with the literals bound — they read as constants, the ``$names`` stay
        parameters — derived on first use.
        """
        if not self._literals:
            return self._plan
        if self._as_written is None:
            values = dict.fromkeys(self.parameters, UNBOUND)
            values.update(self._literals)
            self._as_written = bind_plan(self._plan, values, self._positional)
        return self._as_written

    @property
    def selection(self) -> Selection:
        """The resolved selection (its lifted literals constants again)."""
        return self.plan.selection

    @property
    def trace(self):
        """The transformation trace recorded at prepare time."""
        return self.plan.trace

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Declared parameter names, sorted."""
        return tuple(sorted(self.parameters))

    def access_paths(self) -> dict[str, str]:
        """The access path each variable's range would use on the engine door now.

        The selector reads the catalog and the cardinalities, never a
        compared value, so a literal and a bound ``$param`` take the same
        path, which may change once the data moves.  Here the plan is
        unbound: a ``$parameter`` shows up in the probe description as
        ``$name``.
        """
        from repro.engine.access import select_access_path  # cycle-free, lazy

        with self._engine._reading() as source:
            return {
                var: select_access_path(
                    source, var, self.plan.range_of(var), self.options
                ).describe()
                for var in self.plan.variables
            }

    def is_parameterized(self) -> bool:
        return bool(self.parameters)

    def is_stale(self, source=None) -> bool:
        """Whether this plan does not fit ``source`` (default: the engine door's pin).

        True after a catalog change (``schema_version``) and after one of the
        relations this query ranges over transitioned between empty and
        non-empty (the compiled plan baked in the Lemma 1 adaptation for the
        emptiness observed at prepare time).  One rule for the live database
        and for a pinned snapshot: a plan runs only on a state it was, or
        could have been, compiled against.
        """
        if source is None:
            with self._engine._reading() as pin:
                return self.is_stale(pin)
        if source.schema_version != self.schema_version:
            return True
        return self._empty_relations(source) != self.prepared_emptiness

    def _empty_relations(self, source) -> frozenset[str]:
        """Which of the relations this query ranges over are empty in ``source``
        — the only data property its compiled plan depends on."""
        relation = source.relation
        return frozenset(name for name in self._referenced_sorted if not len(relation(name)))

    def ensure_fresh(self, source=None) -> None:
        """Raise :class:`PlanError` when :meth:`is_stale` — re-prepare instead
        (``source`` as there)."""
        if source is None:
            with self._engine._reading() as pin:
                return self.ensure_fresh(pin)
        if self.is_stale(source):
            raise PlanError(
                "prepared query is stale: the database catalog or a relation's "
                "emptiness changed since it was prepared "
                f"(schema version {self.schema_version} -> "
                f"{source.schema_version}); prepare the query again"
            )

    # -- execution --------------------------------------------------------------------

    def _coerce_bindings(self, values: Mapping[str, Any] | None) -> dict[str, Any]:
        """Validate and coerce ``values``; the text's own literals ride along.

        Checked against the declared ``$names`` only, so no message names a
        positional parameter and no binding can reach one.
        """
        values = dict(values or {})
        if not self.parameters:
            if values:
                raise BindingError(
                    "query declares no parameters but bindings were supplied: "
                    + ", ".join(f"${name}" for name in sorted(values))
                )
            return dict(self._literals)
        coerced = check_bindings(self.parameters, values)
        coerced.update(self._literals)
        return coerced

    def bind(self, values: Mapping[str, Any] | None = None) -> QueryPlan:
        """The plan with ``values`` substituted for the declared parameters.

        Validates the bindings (missing, unknown, ill-typed values raise
        :class:`~repro.errors.BindingError`), coerces each value through the
        scalar type recorded at resolution time, and serves repeat binding
        sets from the per-binding memo — the plan :meth:`start` would run.
        """
        coerced = self._coerce_bindings(values)
        return self._bound_plan(coerced, self._bindings_key(coerced))

    # -- per-binding memos --------------------------------------------------------------

    @staticmethod
    def _bindings_key(values: Mapping[str, Any] | None) -> tuple | None:
        """A hashable memo key for one binding set, or ``None`` when unkeyable."""
        try:
            key = tuple(sorted((values or {}).items()))
            hash(key)
            return key
        except TypeError:
            return None

    def _bound_plan(self, coerced: Mapping[str, Any], key: tuple | None) -> QueryPlan:
        """The bound plan for already-validated, coerced values."""
        shared = self._plan
        if not coerced:
            return shared
        if key is None or self._cache_size == 0:
            return bind_plan(shared, coerced, self._positional)
        plan = self._bound_plans.get(key)
        if plan is None:
            plan = bind_plan(shared, coerced, self._positional)
            self._bound_plans.put(key, plan)
        return plan

    def execute(self, values: Mapping[str, Any] | None = None) -> QueryResult:
        """:meth:`start` on a pin of the committed state, drained, the pin released.

        Raises :class:`~repro.errors.PlanError` when the catalog changed since
        this query was prepared — re-prepare through the service (its cache
        keys on the schema version, so that is cheap).
        """
        with self._engine.database.pin_snapshot() as source:
            self.ensure_fresh(source)
            return self.start(values, source, drain=True)

    def start(
        self,
        values: Mapping[str, Any] | None,
        source,
        drain: bool = False,
    ) -> QueryResult:
        """Bind ``values`` and start one execution on ``source`` — the one body.

        Late binding: the parameter values are substituted into the cached
        plan structure, and execution starts at the collection phase; the
        rows are pulled through the result's ``row_iterator``
        (:meth:`QueryEngine.execute_plan`), or all at once with ``drain``.
        ``source`` is a pinned snapshot this plan fits (the caller has
        checked :meth:`ensure_fresh`); it is private to its reader, so no
        lock is taken, and its tracker keeps counting what the caller
        charged before.

        While the relations the query ranges over hold what they held, the
        collection-phase structures for a binding set are reused from its
        third execution on; the collection phase runs before this returns,
        so the memo fills whether or not a row is ever fetched — except from a
        transaction's statement pin, which reads the memo and publishes
        nothing to it (its contents may yet be rolled back).
        """
        # Validate/coerce BEFORE consulting the memos, and key on the
        # coerced values: a hash-equal but type-invalid binding (1977.0 for
        # a subrange) must fail identically whether or not the memo is warm.
        coerced = self._coerce_bindings(values)
        key = self._bindings_key(coerced)
        plan = self._bound_plan(coerced, key)
        memo = collection = None
        if key is not None and self._cache_size > 0 and plan.constant is None:
            # (A constant matrix collects nothing: its plan keeps what it decides.)
            memo = self._collections
            # Read before execution, which builds only untracked result
            # relations and so cannot move a version itself.
            token = version_token(source, self._referenced_sorted)
            cached = memo.get(key)
            if cached is not None and cached[0] == token:
                collection = cached[1]
        computed: list = []
        result = self._engine.execute_plan(
            plan,
            self.options,
            reset_statistics=False,
            collection=collection,
            collection_sink=computed.append,
            source=source,
        )
        # The sink is only called with a collection computed for this very plan.
        publish = computed and not (result.used_strategy3_fallback or source.in_transaction)
        if memo is not None and publish:
            memo.put(key, (token, computed[0]))
        if drain:
            result.drain()
        return result

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        parameters = ", ".join(f"${name}" for name in self.parameter_names) or "none"
        return f"PreparedQuery(parameters=[{parameters}], options={self.options.describe()!r})"
