"""The query engine: the public entry point of the reproduction.

:class:`QueryEngine` ties the whole system together:

* it accepts queries either as textual PASCAL/R-style selections or as
  calculus :class:`~repro.calculus.ast.Selection` objects,
* it runs the transformation pipeline (standard form, Lemma 1 adaptation,
  Strategies 3 and 4) according to the configured
  :class:`~repro.config.StrategyOptions`,
* it executes the three-phase evaluation procedure (collection, combination,
  construction) with Strategies 1 and 2 applied inside the collection phase —
  by default the combination and construction phases run as one streaming
  operator pipeline (``StrategyOptions.streaming_execution``), so only
  pipeline breakers buffer reference tuples,
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
import warnings
from dataclasses import dataclass, field
from typing import Iterator

from repro.calculus.analysis import has_universal_quantifier
from repro.calculus.ast import Selection
from repro.calculus.typecheck import TypeChecker
from repro.config import StrategyOptions
from repro.engine.access import iter_access, select_access_path
from repro.engine.collection import CollectionPhase, CollectionResult, ExtendedRangeEmptyError
from repro.engine.combination import CombinationPhase, CombinationResult
from repro.engine.construction import ConstructionPhase
from repro.engine.naive import evaluate_selection_naive
from repro.engine.result import result_relation_for
from repro.lang.parser import parse_selection
from repro.relational.record import Record
from repro.relational.relation import Relation
from repro.transform.pipeline import QueryPlan, prepare_query
from repro.transform.separation import can_separate
from repro.transform.normalform import to_standard_form

__all__ = ["QueryResult", "QueryEngine", "execute_naive"]


def _projected_rows(
    columns: list[tuple[int, int]], ranges: list[list[tuple]]
) -> Iterator[tuple]:
    """Result value tuples over the cross product of the free variables' ranges.

    ``ranges`` holds one list of element value tuples per free variable;
    ``columns`` names, per result component, the variable and the value
    position it projects.  Rows come in nested-loop order (the first
    variable outermost), duplicates included.
    """
    for combination in itertools.product(*ranges):
        yield tuple(combination[variable][position] for variable, position in columns)


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
    """Per variable: the access path actually used (scan / pruned scan /
    index probe), for EXPLAIN ANALYZE."""

    row_iterator: Iterator | None = field(default=None, repr=False, compare=False)
    """Lazy record iterator attached by the streaming execution entry points
    (:meth:`QueryEngine.execute_plan_streaming`); ``None`` for ordinary,
    fully materialised executions.  Cursors drain it fetch-by-fetch — the
    :attr:`relation` fills as a side effect, and :attr:`statistics` /
    :attr:`elapsed_seconds` are finalised when it is exhausted or closed."""

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


class QueryEngine:
    """Phase-structured evaluation of PASCAL/R selections over a database."""

    def __init__(self, database, options: StrategyOptions | None = None) -> None:
        self.database = database
        self.options = options or StrategyOptions()

    # -- query admission ------------------------------------------------------------

    def parse(self, text: str) -> Selection:
        """Parse and resolve a textual selection."""
        return TypeChecker.for_database(self.database).resolve(parse_selection(text))

    def _admit(self, query: str | Selection) -> Selection:
        if isinstance(query, str):
            return self.parse(query)
        return TypeChecker.for_database(self.database).resolve(query)

    def prepare(self, query: str | Selection, options: StrategyOptions | None = None) -> QueryPlan:
        """Run only the transformation pipeline (used by EXPLAIN and tests)."""
        selection = self._admit(query)
        return prepare_query(selection, self.database, options or self.options, resolve=False)

    # -- execution ---------------------------------------------------------------------

    def run(
        self,
        query: str | Selection,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
    ) -> QueryResult:
        """Evaluate ``query`` and return the result with full accounting.

        This is the engine-internal entry point (the connection, session and
        service layers all bottom out here).  Application code should prefer
        :func:`repro.connect` — a :class:`~repro.api.Connection` adds plan
        caching, transactions and streaming cursors on top.
        """
        options = options or self.options
        if reset_statistics:
            self.database.reset_statistics()
        selection = self._admit(query)
        started = time.perf_counter()
        result = self._execute_resolved(selection, options)
        result.elapsed_seconds = time.perf_counter() - started
        result.statistics = self.database.statistics.as_dict()
        return result

    def execute(
        self,
        query: str | Selection,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
    ) -> QueryResult:
        """Deprecated: evaluate ``query`` through the database's default connection.

        .. deprecated:: 1.2
            Use ``repro.connect(database)`` and its cursors — or
            :meth:`run` for engine-level experiments.  This shim keeps old
            call sites working: it emits a :class:`DeprecationWarning` and
            routes the execution through the per-database default
            :class:`~repro.api.Connection`, so legacy callers at least share
            that connection's execution serialization.
        """
        warnings.warn(
            "QueryEngine.execute is deprecated; use repro.connect(database) and "
            "cursor execute/fetch (or QueryEngine.run for engine-level work)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.api.connection import default_connection

        connection = default_connection(self.database)
        return connection.run_legacy(
            self, query, options=options, reset_statistics=reset_statistics
        )

    def execute_plan(
        self,
        plan: QueryPlan,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
        collection: CollectionResult | None = None,
        collection_sink=None,
        pinned_orders: dict[int, list[tuple[str, float]]] | None = None,
    ) -> QueryResult:
        """Evaluate an already-transformed :class:`QueryPlan`.

        This is the run-time half of the prepare/execute split used by the
        service layer: the compile-time pipeline (lexing, type checking, the
        Section 2-3 transformations) was paid when ``plan`` was built; only
        the collection/combination/construction phases run here.  ``plan``
        must be fully bound (no free parameters) and must have been prepared
        against this engine's database with ``options`` (default: the
        options recorded on the plan).

        ``collection`` supplies a previously collected
        :class:`CollectionResult` for this exact plan (the service layer's
        per-binding memo), skipping the collection phase; ``collection_sink``
        is called with the collection result actually computed for the plan,
        so the caller can memoize it.  ``pinned_orders`` replays the join
        orders (with their compile-time estimates) a prepared query pinned
        on its first execution, skipping the cost model.  None of the three
        applies to the constant-matrix or separated-conjunction paths, and
        the Strategy 3 runtime fallback always re-collects and re-optimizes
        for its re-planned query.
        """
        options = options or plan.options
        if reset_statistics:
            self.database.reset_statistics()
        started = time.perf_counter()
        result = self._execute_resolved(
            plan.selection,
            options,
            plan=plan,
            collection=collection,
            collection_sink=collection_sink,
            pinned_orders=pinned_orders,
        )
        result.elapsed_seconds = time.perf_counter() - started
        result.statistics = self.database.statistics.as_dict()
        return result

    def execute_plan_streaming(
        self,
        plan: QueryPlan,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
        collection: CollectionResult | None = None,
        collection_sink=None,
        pinned_orders: dict[int, list[tuple[str, float]]] | None = None,
    ) -> QueryResult:
        """Evaluate ``plan`` with a *lazy* construction phase.

        Identical to :meth:`execute_plan` up to the combination pipeline, but
        when the phase streams, the construction dereference is deferred: the
        returned result carries a live :attr:`QueryResult.row_iterator` and
        an (initially empty) result relation that fills as the iterator is
        drained — this is what lets a cursor hand out first rows without the
        engine materialising the full result.  Statistics and elapsed time
        are finalised when the iterator is exhausted or closed.  Plans whose
        execution cannot stream (constant matrices, separated conjunctions,
        ``streaming_execution`` off, the Strategy 3 fallback) materialise as
        usual and iterate the finished relation.
        """
        options = options or plan.options
        if reset_statistics:
            self.database.reset_statistics()
        started = time.perf_counter()
        result = self._execute_resolved(
            plan.selection,
            options,
            plan=plan,
            collection=collection,
            collection_sink=collection_sink,
            lazy=True,
            pinned_orders=pinned_orders,
        )
        return self._finalize_streaming(result, started)

    def run_streaming(
        self,
        query: str | Selection,
        options: StrategyOptions | None = None,
        reset_statistics: bool = True,
    ) -> QueryResult:
        """Parse, transform and evaluate ``query`` with a lazy construction phase.

        The ad-hoc-text pendant of :meth:`execute_plan_streaming` (and the
        engine-level backing of ``Cursor.execute``).
        """
        options = options or self.options
        if reset_statistics:
            self.database.reset_statistics()
        selection = self._admit(query)
        started = time.perf_counter()
        result = self._execute_resolved(selection, options, lazy=True)
        return self._finalize_streaming(result, started)

    def _finalize_streaming(self, result: QueryResult, started: float) -> QueryResult:
        """Attach the statistics-finalising row iterator to a lazy result."""
        result.statistics = self.database.statistics.as_dict()
        result.elapsed_seconds = time.perf_counter() - started
        if result.row_iterator is None:
            # The execution could not stream and is already materialised;
            # statistics above are final.  Iterate the finished relation so
            # cursors see one uniform interface.
            result.row_iterator = iter(result.relation.elements())
            return result
        rows = result.row_iterator

        def finalizing() -> Iterator:
            try:
                yield from rows
            finally:
                result.statistics = self.database.statistics.as_dict()
                result.elapsed_seconds = time.perf_counter() - started

        result.row_iterator = finalizing()
        return result

    def _execute_resolved(
        self,
        selection: Selection,
        options: StrategyOptions,
        plan: QueryPlan | None = None,
        collection: CollectionResult | None = None,
        collection_sink=None,
        lazy: bool = False,
        pinned_orders: dict[int, list[tuple[str, float]]] | None = None,
    ) -> QueryResult:
        prepared = plan if plan is not None else prepare_query(
            selection, self.database, options, resolve=False
        )
        try:
            if options.separate_existential_conjunctions and self._separable(prepared):
                return self._execute_separated(selection, prepared, options)
            return self._execute_prepared(
                selection,
                prepared,
                options,
                collection=collection,
                collection_sink=collection_sink,
                lazy=lazy,
                pinned_orders=pinned_orders,
            )
        except ExtendedRangeEmptyError:
            fallback_options = options.with_(extended_ranges=False)
            prepared = prepare_query(selection, self.database, fallback_options, resolve=False)
            prepared.trace.add(
                "runtime adaptation",
                "an extended range was empty; re-planned without Strategy 3",
            )
            result = self._execute_prepared(selection, prepared, fallback_options)
            result.used_strategy3_fallback = True
            return result

    def _execute_prepared(
        self,
        selection: Selection,
        prepared: QueryPlan,
        options: StrategyOptions,
        collection: CollectionResult | None = None,
        collection_sink=None,
        lazy: bool = False,
        pinned_orders: dict[int, list[tuple[str, float]]] | None = None,
    ) -> QueryResult:
        if prepared.constant is not None:
            # The constant-matrix shortcut still relies on the non-empty-range
            # assumption behind Strategy 3: verify it before skipping the
            # phases, and fall back like the collection phase would.
            self._check_extended_prefix_ranges(prepared, options)
            access_paths: dict[str, str] = {}
            relation = self._evaluate_constant_matrix(
                selection, prepared, options, access_paths
            )
            return QueryResult(
                relation=relation,
                prepared=prepared,
                statistics={},
                access_paths=access_paths,
            )
        if collection is None:
            collection = CollectionPhase(prepared, self.database, options).run()
            if collection_sink is not None:
                collection_sink(collection)
        combination = CombinationPhase(
            prepared, self.database, collection, options, pinned_orders=pinned_orders
        ).run()
        construction = ConstructionPhase(selection, self.database)
        if lazy and combination.stream is not None:
            # Defer the construction dereference: the caller pulls rows
            # through QueryResult.row_iterator and the relation fills as a
            # side effect — nothing downstream of the combination pipeline
            # materialises before it is fetched.
            relation = result_relation_for(selection, self.database)
            row_iterator = construction.stream_into(combination, relation)
        else:
            relation = construction.run(combination)
            row_iterator = None
        return QueryResult(
            relation=relation,
            prepared=prepared,
            statistics={},
            collection=collection,
            combination=combination,
            access_paths=dict(collection.access_paths),
            row_iterator=row_iterator,
        )

    def _check_extended_prefix_ranges(
        self, prepared: QueryPlan, options: StrategyOptions
    ) -> None:
        """Raise :class:`ExtendedRangeEmptyError` when an extended quantifier range is empty."""
        for spec in prepared.prefix:
            if spec.range.restriction is None:
                continue
            relation = self.database.relation(spec.range.relation)
            if len(relation) == 0:
                continue
            path = select_access_path(self.database, spec.var, spec.range, options)
            if not any(True for _ in iter_access(self.database, path, spec.var)):
                raise ExtendedRangeEmptyError(spec.var, spec.range.relation)

    def _evaluate_constant_matrix(
        self,
        selection: Selection,
        prepared: QueryPlan,
        options: StrategyOptions,
        access_paths: dict[str, str],
    ) -> Relation:
        """Evaluate a query whose matrix collapsed to TRUE or FALSE.

        This is the path every Strategy 3 point query takes (the monadic
        restriction moved into the range, the matrix collapsed to TRUE), so
        the free ranges are enumerated through the access-path selector: a
        permanent index turns the whole query into a probe plus construction.
        """
        result = result_relation_for(selection, self.database)
        if not prepared.constant:
            return result  # FALSE matrix: nothing is enumerated, no paths
        database = self.database
        paths = [
            select_access_path(database, binding.var, binding.range, options)
            for binding in prepared.bindings
        ]
        access_paths.update({path.var: path.describe() for path in paths})
        # Everything per row is resolved here, once: which free variable and
        # which value position each projected component reads.
        variables = [path.var for path in paths]
        columns = []
        for column in selection.columns:
            variable = variables.index(column.var)
            source = database.relation(paths[variable].relation_name).schema
            columns.append((variable, source.field_position(column.field)))
        ranges = [
            [record.values for _, record in iter_access(database, path, path.var)]
            for path in paths
        ]
        # The result's key is all components, so distinct rows are distinct
        # elements: dedupe on the value tuple, then insert in bulk.
        rows = dict.fromkeys(_projected_rows(columns, ranges))
        schema = result.schema
        result.bulk_insert_raw(Record.raw(schema, row) for row in rows)
        return result

    # -- separate evaluation of existential conjunctions -----------------------------------------

    def _separable(self, prepared: QueryPlan) -> bool:
        if prepared.constant is not None:
            return False
        if any(spec.kind == "ALL" for spec in prepared.prefix):
            return False
        return len(prepared.conjunctions) > 1

    def _execute_separated(
        self, selection: Selection, prepared: QueryPlan, options: StrategyOptions
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
            partial = self._execute_prepared(selection, sub, options)
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
            combined = CombinationResult(tuples=partial.tuples)
        combined.tuples = partial.tuples
        combined.streamed = combined.streamed or partial.streamed
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
        from repro.engine.explain import explain_combination, explain_prepared

        options = options or self.options
        if analyze:
            # Explain the plan that actually ran: run() may re-plan via
            # the Strategy 3 runtime fallback, and result.prepared (with its
            # trace) reflects that, keeping the static and dynamic sections
            # of the report consistent.
            result = self.run(query, options)
            effective = (
                options.with_(extended_ranges=False)
                if result.used_strategy3_fallback
                else options
            )
            report = explain_prepared(result.prepared, self.database, effective)
            if result.combination is not None:
                report += "\n" + explain_combination(result.combination)
            if result.access_paths:
                lines = ["access paths (analyzed):"]
                for var, description in result.access_paths.items():
                    lines.append(f"  {var}: {description}")
                lines.append(
                    "  index probes="
                    f"{result.statistics.get('index_probes', 0)}, "
                    f"pages skipped={result.statistics.get('pages_skipped', 0)}, "
                    "index maintenance ops="
                    f"{result.statistics.get('index_maintenance_ops', 0)}"
                )
                lines.append(
                    "  histogram rebuilds="
                    f"{result.statistics.get('histogram_rebuilds', 0)}, "
                    "reoptimizations="
                    f"{result.statistics.get('reoptimizations', 0)}, "
                    "max q-error="
                    f"{result.statistics.get('estimation_qerror_max', 0.0):.2f}"
                )
                report += "\n" + "\n".join(lines)
            return report
        prepared = self.prepare(query, options)
        return explain_prepared(prepared, self.database, options)


def execute_naive(database, query: str | Selection, reset_statistics: bool = True) -> Relation:
    """Evaluate ``query`` with the direct (ground truth) interpreter."""
    if reset_statistics:
        database.reset_statistics()
    if isinstance(query, str):
        selection = parse_selection(query)
    else:
        selection = query
    resolved = TypeChecker.for_database(database).resolve(selection)
    return evaluate_selection_naive(resolved, database)
