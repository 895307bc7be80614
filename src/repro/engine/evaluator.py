"""The query engine: the public entry point of the reproduction.

:class:`QueryEngine` ties the whole system together:

* it accepts queries either as textual PASCAL/R-style selections or as
  calculus :class:`~repro.calculus.ast.Selection` objects,
* it runs the transformation pipeline (standard form, Lemma 1 adaptation,
  Strategies 3 and 4) according to the configured
  :class:`~repro.config.StrategyOptions`,
* it executes the three-phase evaluation procedure (collection, combination,
  construction) with Strategies 1 and 2 applied inside the collection phase —
  the combination and construction phases run as one streaming operator
  pipeline, planned either as the streamed plan (only pipeline breakers
  buffer reference tuples) or as the literal Section 3.3 procedure
  (``StrategyOptions.plan``),
* it falls back gracefully when the non-empty-range assumption behind
  Strategy 3 fails at runtime, and
* it returns a :class:`QueryResult` bundling the result relation with the
  access statistics, phase sizes, and the transformation trace — the raw
  material of every figure and example reproduced in ``benchmarks/``.

A :func:`execute_naive` companion runs the direct, transformation-free
interpretation used as ground truth.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro.calculus.ast import Selection
from repro.calculus.typecheck import resolve_selection
from repro.config import StrategyOptions
from repro.engine.access import (
    AccessPath, access_chunks, decide_access, decided_path, iter_access, select_access_path,
)
from repro.engine.collection import CollectionPhase, CollectionResult, ExtendedRangeEmptyError
from repro.engine.combination import CombinationPhase, CombinationResult
from repro.engine.construction import ConstructionPhase
from repro.engine.naive import evaluate_selection_naive, range_elements
from repro.engine.result import result_schema_for
from repro.engine.stream import CHUNK_ROWS
from repro.lang.parser import parse_selection
from repro.relational.algebra import chunk_getter
from repro.relational.database import Database
from repro.relational.mvcc import version_token
from repro.relational.record import values_of
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.transform.pipeline import QueryPlan, prepare_query

__all__ = ["QueryResult", "QueryEngine", "execute_naive"]


def _selection_chunks(
    source, paths: list[AccessPath], project, key_covered: bool, result: Relation
) -> Iterator[list]:
    """The result records of a TRUE matrix, chunk by chunk: a pipeline with one
    kind of source and no joins.

    The first free variable's range streams in ramped chunks against the
    product of the others', read whole when the first chunk is pulled, in
    nested-loop order; a chunk is multiplied in slices that keep it under
    twice ``CHUNK_ROWS`` (plus one row's partners), as a hash join's fan-out.
    ``project`` maps concatenated elements to result rows; ``result`` — a set
    keyed on all components — keeps the first witness of each, and exactly
    the rows it did not hold yet are handed on (rows that carry every range's
    key, ``key_covered``, are distinct by construction: no duplicate pass).
    """
    insert = result.insert_rows if key_covered else result.insert_new_rows
    others = [
        [row for _, records in access_chunks(source, path, path.var) for row in values_of(records)]
        for path in paths[1:]
    ]
    rests = [sum(rest, ()) for rest in itertools.product(*others)]
    step = max(1, CHUNK_ROWS // max(len(rests), 1))
    for _, records in access_chunks(source, paths[0], paths[0].var):
        outer = list(values_of(records))
        for start in range(0, len(outer), step):
            rows = outer[start : start + step]
            if others:
                rows = [row + rest for row in rows for rest in rests]
            fresh = insert(project(rows))
            if fresh:
                yield fresh


def resolve_query(query: str | Selection, database) -> Selection:
    """Parse ``query`` when it is a text, and resolve it against ``database``'s catalog."""
    return resolve_selection(parse_selection(query) if isinstance(query, str) else query, database)


def _result_relation(prepared: QueryPlan, source) -> Relation:
    """An empty result relation for ``prepared``, its schema derived once per
    compiled plan and catalog version (``QueryPlan.result_schema``), not per execution."""
    version, schema = prepared.result_schema
    if version != source.schema_version:
        schema = result_schema_for(prepared.selection, source)
        prepared.result_schema[:] = source.schema_version, schema
    return Relation(schema.name, schema)


def on_pin(pin, execute) -> "QueryResult":
    """``execute()``, an execution reading ``pin``: the pin is released when
    the result's rows end, or at once when the execution fails to start."""
    try:
        result = execute()
    except BaseException:
        pin.release()
        raise
    result.on_close(pin.release)
    return result


def _ending(chunks: Iterator[list], result: "QueryResult") -> Iterator[list]:
    """``chunks``, telling ``result`` when they end: exhausted, failed, or closed once started."""
    try:
        yield from chunks
    finally:
        result._ended()


@dataclass
class QueryResult:
    """The outcome of executing one query."""

    relation: Relation
    prepared: QueryPlan
    statistics: dict
    collection: CollectionResult | None = None
    combination: CombinationResult | None = None
    elapsed_seconds: float = 0.0
    used_strategy3_fallback: bool = False
    subqueries: int = 1
    access_paths: dict[str, str] = field(default_factory=dict)
    """Per variable: the access path actually used (scan or index probe),
    for EXPLAIN ANALYZE."""

    selection_paths: list[AccessPath] = field(default_factory=list, repr=False)
    """Of a constant TRUE matrix: the free ranges' access paths as executed,
    the streamed outer range first (EXPLAIN ANALYZE reports from here)."""

    row_iterator: Iterator[list] | None = field(default=None, repr=False, compare=False)
    """The result records, lazily and in chunks — non-empty lists of records
    (:meth:`QueryEngine.execute_plan`): each step reads a chunk of a selection's
    range, or dereferences a chunk of the combination phase's reference tuples,
    and :attr:`relation` fills as a side effect; an execution that could not
    stream hands out its finished relation as one chunk.  Cursors take their
    fetches from the chunk in hand and pull the next, :meth:`drain` pulls to
    the end."""

    tracker: AccessStatistics | None = field(default=None, repr=False, compare=False)
    """What this execution counts on (a pin's own counters or the database's);
    :attr:`statistics` is its stamp, taken when the rows end."""

    _closers: list = field(default_factory=list, repr=False, compare=False)

    #: The tracker is this execution's alone (the service's pin): stamped on first read.
    _own_tracker = False

    def on_close(self, callback) -> None:
        """Run ``callback`` once when the rows end: exhausted, failed, or closed
        at any point before, the first fetch included.  The engine stamps the
        final statistics here, the service releases a pinned snapshot."""
        self._closers.append(callback)

    def drain(self) -> "QueryResult":
        """Pull every remaining row: the eager spelling of any execution."""
        for _ in self.row_iterator or ():
            pass
        return self

    def close(self) -> None:
        """End the execution wherever it stands; closing twice is a no-op.

        A started pipeline unwinds through its operators' ``finally`` clauses
        (breaker state), which ends the rows; closing a fresh
        generator runs none of its code, so that end is declared here.
        """
        if self.row_iterator is not None:
            self.row_iterator.close()
        self._ended()

    def _ended(self) -> None:
        # One at a time: a callback that raises leaves the later ones due.
        while self._closers:
            self._closers.pop(0)()

    @property
    def rows(self) -> list:
        """The result records as a defensive copy.

        Always a fresh list: callers may sort, slice or mutate it freely
        without touching the backing relation (the regression suite pins
        this).  Use :meth:`__iter__` to stream over the records instead.
        """
        return list(self.relation)

    def __iter__(self) -> Iterator:
        """Iterate over the result records (insertion order)."""
        return iter(self.relation)

    def __getitem__(self, index):
        """The ``index``-th result record (or a slice of the row list)."""
        return self.relation.elements()[index]

    def __len__(self) -> int:
        return len(self.relation)

    def describe(self) -> str:
        """A compact report: trace, phase sizes and access counters."""
        lines = [f"result: {len(self.relation)} element(s)"]
        lines.append("transformations:")
        lines.append(self.prepared.trace.describe())
        if self.combination is not None:
            lines.append(
                "combination: conjunction sizes "
                f"{self.combination.conjunction_sizes}, union {self.combination.union_size}, "
                f"after quantifiers {self.combination.after_quantifiers_size}"
            )
        relations = self.statistics.get("relations", {})
        for name, counters in relations.items():
            lines.append(
                f"  {name}: scans={counters['scans']} elements={counters['elements_read']} "
                f"probes={counters['index_probes']}"
            )
        lines.append(
            f"  intermediate tuples={self.statistics.get('intermediate_tuples', 0)}"
        )
        return "\n".join(lines)


def _rendered(slot: str, render) -> property:
    """A field read through ``slot``, where ``None`` means ``render(result)``, on first read."""
    def get(result):
        if getattr(result, slot) is None:
            setattr(result, slot, render(result))
        return getattr(result, slot)
    return property(get, lambda result, value: setattr(result, slot, value))


# After the decorator, so both stay ``__init__`` fields.  The stamp is ``{}``
# while the rows flow; a constant matrix's paths are described when asked.
QueryResult.statistics = _rendered("_statistics", lambda result: result.tracker.as_dict())
QueryResult.access_paths = _rendered(
    "_access_paths", lambda result: {path.var: path.describe() for path in result.selection_paths}
)


class QueryEngine:
    """Phase-structured evaluation of PASCAL/R selections over a database."""

    def __init__(self, database, options: StrategyOptions | None = None) -> None:
        self.database = database
        self.options = options or StrategyOptions()

    # -- query admission ------------------------------------------------------------

    def parse(self, text: str) -> Selection:
        """Parse and resolve a textual selection."""
        return resolve_query(text, self.database)

    def prepare(self, query: str | Selection, options: StrategyOptions | None = None) -> QueryPlan:
        """Run only the transformation pipeline (used by EXPLAIN and tests)."""
        with self._reading() as source:
            return self._compile(query, options, source)

    def _reading(self):
        """The engine door's pin of this engine's database for one statement
        (:meth:`Database._door_pin`), or the snapshot the engine was built over."""
        database = self.database
        return database._door_pin() if isinstance(database, Database) else nullcontext(database)

    def _compile(self, query, options: StrategyOptions | None, source) -> QueryPlan:
        selection = resolve_query(query, source)
        return prepare_query(selection, source, options or self.options, resolve=False)

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        query: str | Selection,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
    ) -> QueryResult:
        """Compile ``query`` as written, evaluate it and return the finished result.

        The engine-level spelling: no plan cache, no lifted constants, no
        lock — which makes it the reference for rows *and order* that the
        equivalence suites compare the service and the cursors against.
        It compiles against the engine door's pin and runs on it.
        Application code should prefer :func:`repro.connect`.
        """
        if reset_statistics:
            self.database.reset_statistics()
        with self._reading() as source:
            plan = self._compile(query, options, source)
            return self.execute_plan(plan, reset_statistics=False, source=source).drain()

    def execute_plan(
        self,
        plan: QueryPlan,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
        collection: CollectionResult | None = None,
        collection_sink=None,
        source=None,
    ) -> QueryResult:
        """Evaluate an already-transformed :class:`QueryPlan` — the one executor.

        The run-time half of the prepare/execute split: the compile-time
        pipeline (lexing, type checking, the Section 2-3 transformations) was
        paid when ``plan`` was built; only the collection, combination and
        construction phases run here.  ``plan`` must be fully bound (no free
        parameters) and prepared with ``options`` (default: the options
        recorded on the plan) against ``source`` — what the phases read: this
        engine's database when omitted, or a snapshot pinned from it.  A
        :class:`Database` is never read live: the engine door pins it
        (:meth:`Database._door_pin`) and releases the pin when the rows end —
        close a result that is not drained.

        The construction phase is always deferred: when this returns the
        collection phase has run and the combination pipeline is wired; the
        rows flow through :attr:`QueryResult.row_iterator`, filling the
        relation as they are pulled, and statistics and elapsed time are
        stamped once, when the rows end (``QueryResult.tracker`` counts until
        then).  ``.drain()`` is the eager spelling.  A constant TRUE matrix is
        such a pipeline too — access chunks, projection, distinct — with its
        extended quantifier ranges checked here, eagerly.  Separated
        conjunctions materialise here and hand out the finished relation as
        one chunk.

        ``collection`` supplies a previously collected
        :class:`CollectionResult` for this exact plan (the service layer's
        per-binding memo), skipping the collection phase; ``collection_sink``
        is called with the collection result actually computed for the plan,
        so the caller can memoize it.  Neither applies to the constant-matrix
        or separated-conjunction paths, and the Strategy 3 runtime fallback
        always re-collects and re-optimizes for its re-planned query.
        """
        if source is None:
            source = self.database
        options = options or plan.options
        if reset_statistics:
            source.reset_statistics()
        if isinstance(source, Database):
            pin = source._door_pin()
            return on_pin(pin, lambda: self.execute_plan(
                plan, options, False, collection, collection_sink, pin))
        started = time.perf_counter()
        try:
            if options.separate_existential_conjunctions and self._separable(plan):
                result = self._execute_separated(source, plan, options)
            else:
                result = self._execute_prepared(source, plan, options, collection, collection_sink)
        except ExtendedRangeEmptyError:
            fallback_options = options.with_(extended_ranges=False)
            replanned = prepare_query(plan.selection, source, fallback_options, resolve=False)
            replanned.trace.add(
                "runtime adaptation",
                "an extended range was empty; re-planned without Strategy 3",
            )
            result = self._execute_prepared(source, replanned, fallback_options)
            result.used_strategy3_fallback = True
        result.tracker = statistics = source.statistics

        def stamp() -> None:
            result.statistics = None if result._own_tracker else statistics.as_dict()
            result.elapsed_seconds = time.perf_counter() - started

        chunks = result.row_iterator
        if chunks is None:
            # Could not stream: the numbers are final now.  Hand out the
            # finished relation as one chunk, so every consumer sees one interface.
            stamp()
            chunks = iter([result.relation.elements()] if len(result.relation) else ())
        else:
            result.on_close(stamp)
        result.row_iterator = _ending(chunks, result)
        return result

    def _execute_prepared(
        self,
        source,
        prepared: QueryPlan,
        options: StrategyOptions,
        collection: CollectionResult | None = None,
        collection_sink=None,
    ) -> QueryResult:
        if prepared.constant is not None:
            # The constant-matrix shortcut still relies on the non-empty-range
            # assumption behind Strategy 3: verify it before skipping the
            # phases, and fall back like the collection phase would.
            self._check_extended_prefix_ranges(source, prepared, options)
            relation = _result_relation(prepared, source)
            if not prepared.constant:
                # FALSE matrix: nothing is enumerated, no paths.
                return QueryResult(relation=relation, prepared=prepared, statistics={})
            paths, (project, key_covered) = self._plan_selection(source, prepared, options)
            return QueryResult(
                relation=relation,
                prepared=prepared,
                statistics={},
                access_paths=None,
                row_iterator=_selection_chunks(source, paths, project, key_covered, relation),
                selection_paths=paths,
            )
        selection = prepared.selection
        if collection is None:
            collection = CollectionPhase(prepared, source, options).run()
            if collection_sink is not None:
                collection_sink(collection)
        combination = CombinationPhase(prepared, source, collection, options).run()
        # Defer the construction dereference: the caller pulls rows through
        # QueryResult.row_iterator and the relation fills as a side effect —
        # nothing downstream of the combination pipeline materialises before
        # it is fetched.
        relation = _result_relation(prepared, source)
        return QueryResult(
            relation=relation,
            prepared=prepared,
            statistics={},
            collection=collection,
            combination=combination,
            access_paths=dict(collection.access_paths),
            row_iterator=ConstructionPhase(selection, source).stream_into(combination, relation),
        )

    def _check_extended_prefix_ranges(
        self, database, prepared: QueryPlan, options: StrategyOptions
    ) -> None:
        """Raise :class:`ExtendedRangeEmptyError` when an extended quantifier range is empty.

        Each range is read up to its first element: a probe by its access
        path, a scan by :func:`range_elements`, charged what it read.
        """
        for spec in prepared.prefix:
            if spec.range.restriction is None:
                continue
            relation = database.relation(spec.range.relation)
            if len(relation) == 0:
                continue
            path = select_access_path(database, spec.var, spec.range, options)
            if path.index is None:
                elements = range_elements(database, spec.range, spec.var)
            else:
                elements = iter_access(database, path, spec.var)
            if next(elements, None) is None:
                raise ExtendedRangeEmptyError(spec.var, spec.range.relation)

    def _plan_selection(self, source, prepared: QueryPlan, options: StrategyOptions):
        """The access paths and the projection of a TRUE matrix's free ranges.

        This is the path every Strategy 3 point query takes (the monadic
        restriction moved into the range, the matrix collapsed to TRUE), so
        what does not depend on the binding is decided once per compiled plan
        and kept on it (``QueryPlan.selection_plan``), under its catalog
        version and the ranges' contents versions: the projection and whether
        it holds every range's key, and which conjunct probes which index or
        scans, at what estimate.  An execution applies the decisions to its
        binding and pin; ones that are not settled are taken again each
        time, as the selector takes them — while a pin passes over or builds
        an index view.  The engine door's pin and a cursor's price a probe by
        one rule, so a settled decision serves both.  A statement pin reads
        what is kept and keeps nothing (its versions may be rolled back).
        """
        bindings = prepared.bindings
        token = version_token(source, [b.range.relation for b in bindings])
        cell, keep = prepared.selection_plan, not source.in_transaction
        held = cell[0]
        if held is None or held[0] != token:
            # Resolved once: where in the concatenated elements of one
            # combination each projected component sits.
            places, offset = {}, 0
            for b in bindings:
                schema = source.relation(b.range.relation).schema
                places[b.var] = (offset, schema)
                offset += len(schema.fields)
            columns = prepared.selection.columns
            # Every range's key projected: the rows are distinct by construction.
            key_covered = {(c.var, c.field) for c in columns} >= {
                (var, name) for var, (_, schema) in places.items() for name in schema.key}
            held = (token, None, (chunk_getter([
                places[column.var][0] + places[column.var][1].field_position(column.field)
                for column in columns
            ]), key_covered))
            if keep:
                cell[0] = held
        # The decisions kept are the plan's own policy's; another decides for itself.
        decisions = held[1] if options is prepared.options else None
        if decisions is None:
            decisions = [decide_access(source, b.var, b.range, options) for b in bindings]
            if keep and options is prepared.options and all(d.settled for d in decisions):
                cell[0] = (token, decisions, held[2])
        paths = [decided_path(source, b.var, b.range, d) for b, d in zip(bindings, decisions)]
        return paths, held[2]

    # -- separate evaluation of existential conjunctions -----------------------------------------

    def _separable(self, prepared: QueryPlan) -> bool:
        if prepared.constant is not None:
            return False
        if any(spec.kind == "ALL" for spec in prepared.prefix):
            return False
        return len(prepared.conjunctions) > 1

    def _execute_separated(
        self, source, prepared: QueryPlan, options: StrategyOptions
    ) -> QueryResult:
        """Evaluate each conjunction as an independent sub-query and union the results."""
        total: Relation | None = None
        last: QueryResult | None = None
        combined: CombinationResult | None = None
        for position, conjunction in enumerate(prepared.conjunctions):
            used_vars = set()
            for literal in conjunction:
                variables = getattr(literal, "variables", None)
                if callable(variables):
                    used_vars.update(variables())
            # Quantifiers over unused variables are redundant for a non-empty
            # base range; extended ranges stay so the collection phase can
            # verify the non-empty assumption (Strategy 3 fallback).
            sub_prefix = tuple(
                s
                for s in prepared.prefix
                if s.var in used_vars or s.range.restriction is not None
            )
            sub = QueryPlan(
                selection=prepared.selection,
                bindings=prepared.bindings,
                prefix=sub_prefix,
                conjunctions=(conjunction,),
                options=options,
                trace=prepared.trace,
            )
            partial = self._execute_prepared(source, sub, options).drain()
            last = partial
            combined = self._merge_combination(combined, partial.combination, position)
            if total is None:
                total = partial.relation
            else:
                # Set union: inserting an element ``total`` holds is a no-op.
                total.insert_all(partial.relation)
        assert total is not None and last is not None
        return QueryResult(
            relation=total,
            prepared=prepared,
            statistics={},
            collection=last.collection,
            combination=combined,
            subqueries=len(prepared.conjunctions),
        )

    @staticmethod
    def _merge_combination(
        combined: CombinationResult | None,
        partial: CombinationResult | None,
        position: int,
    ) -> CombinationResult | None:
        """Fold one sub-query's combination report into the whole query's.

        Each sub-query evaluates exactly one conjunction of the original
        matrix, so its recorded ``conjunction_indexes`` (always ``[0]``) are
        re-based to ``position`` — keeping EXPLAIN's conjunction numbering
        aligned with the prepared matrix.  The scalar sizes are per-sub-query
        sums (the sub-queries never form one combined union relation).
        """
        if partial is None:
            return combined
        if combined is None:
            combined = CombinationResult(tuples=partial.tuples, plan=partial.plan)
        combined.tuples = partial.tuples
        combined.conjunction_sizes.extend(partial.conjunction_sizes)
        combined.conjunction_indexes.extend(position for _ in partial.conjunction_indexes)
        combined.join_orders.extend(partial.join_orders)
        combined.join_estimates.extend(partial.join_estimates)
        combined.reductions.extend(partial.reductions)
        combined.operator_notes.extend(partial.operator_notes)
        combined.union_size += partial.union_size
        combined.after_quantifiers_size += partial.after_quantifiers_size
        combined.peak_tuples = max(combined.peak_tuples, partial.peak_tuples)
        return combined

    # -- explain ----------------------------------------------------------------------------------

    def explain(
        self,
        query: str | Selection,
        options: StrategyOptions | None = None,
        analyze: bool = False,
    ) -> str:
        """A textual account of how the engine would evaluate ``query``.

        With ``analyze=True`` the query is actually executed and the report
        additionally shows what the combination phase *did*: the join order
        chosen for every conjunction and the per-structure semijoin reduction
        sizes (EXPLAIN ANALYZE, in later systems' terms).
        """
        from repro.engine.explain import (
            explain_combination,
            explain_prepared,
            explain_selection,
            explain_value_lists,
        )

        options = options or self.options
        if analyze:
            self.database.reset_statistics()
        with self._reading() as source:
            prepared = self._compile(query, options, source)
            if not analyze:
                return explain_prepared(prepared, source, options)
            # Explain the plan that actually ran: an execution may re-plan
            # via the Strategy 3 runtime fallback, and result.prepared (with
            # its trace) reflects that, keeping the static and dynamic
            # sections of the report consistent.
            result = self.execute_plan(prepared, reset_statistics=False, source=source).drain()
            effective = (
                options.with_(extended_ranges=False)
                if result.used_strategy3_fallback
                else options
            )
            report = explain_prepared(result.prepared, source, effective, result.access_paths)
            if result.selection_paths:
                report += "\n" + explain_selection(result.selection_paths, result.statistics)
            if result.collection is not None and result.collection.value_lists:
                report += "\n" + explain_value_lists(result.collection)
            if result.combination is not None:
                report += "\n" + explain_combination(result.combination)
            if result.access_paths:
                lines = ["access paths (analyzed):"]
                for var, description in result.access_paths.items():
                    lines.append(f"  {var}: {description}")
                lines.append(f"  index probes={result.statistics.get('index_probes', 0)}")
                lines.append(
                    "  max q-error="
                    f"{result.combination.worst_qerror() if result.combination else 0.0:.2f}"
                )
                report += "\n" + "\n".join(lines)
            return report


def execute_naive(database, query: str | Selection, reset_statistics: bool = True) -> Relation:
    """Evaluate ``query`` with the direct (ground truth) interpreter."""
    if reset_statistics:
        database.reset_statistics()
    return evaluate_selection_naive(resolve_query(query, database), database)
