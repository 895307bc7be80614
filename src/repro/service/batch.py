"""Batch execution: several prepared queries, one collection phase.

Strategy 1 ("parallel evaluation of subexpressions") evaluates all join
terms over a relation during a single scan of that relation — *within one
query*.  Batch execution extends the same idea *across queries*: bound plans
that range over the same relations are grouped, their plan structures are
merged into one synthetic :class:`~repro.transform.pipeline.QueryPlan`, and
a single :class:`~repro.engine.collection.CollectionPhase` run services
every query in the group.  Each base relation is scanned once per group
instead of once per query, identical single lists / indirect joins /
Strategy 4 value lists are built once and shared, and only the (per-query)
combination and construction phases run separately.

The batch is *one collection phase feeding per-member pipelines*: the
shared scan materialises the Figure 2 structures once, and each member's
combination/construction then runs as a pull-based operator pipeline over
its slice of those structures — no intermediate n-tuple relation is
materialised for any member, and each member's ``QueryResult.combination``
carries its own streamed/materialized operator annotations.

Grouping is conservative: two plans land in the same group only when they
were prepared under the same :class:`~repro.config.StrategyOptions` and
their variable names map to identical (possibly extended) range
expressions, so the merged plan is a well-formed union of the member plans.
Plans the group optimizer cannot serve — constant-matrix shortcuts,
separated-conjunction execution, or a group whose merged collection trips
the Strategy 3 empty-range fallback — are executed individually through
:meth:`~repro.engine.evaluator.QueryEngine.execute_plan`, which preserves
the engine's usual re-planning behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calculus.ast import RangeExpr
from repro.config import StrategyOptions
from repro.engine.collection import CollectionPhase, CollectionResult, ExtendedRangeEmptyError
from repro.engine.combination import CombinationPhase
from repro.engine.construction import ConstructionPhase
from repro.engine.evaluator import QueryEngine, QueryResult
from repro.transform.pipeline import QueryPlan, TransformationTrace

__all__ = ["execute_plans_batched"]


@dataclass
class _Group:
    """Plans that can share one collection phase."""

    options: StrategyOptions
    members: list[tuple[int, QueryPlan]] = field(default_factory=list)
    var_ranges: dict[str, RangeExpr] = field(default_factory=dict)

    def try_add(self, position: int, plan: QueryPlan) -> bool:
        """Add ``plan`` unless one of its variables conflicts with the group."""
        added: dict[str, RangeExpr] = {}
        for var in plan.variables:
            range_expr = plan.range_of(var)
            known = self.var_ranges.get(var)
            if known is not None and known != range_expr:
                return False
            added[var] = range_expr
        self.var_ranges.update(added)
        self.members.append((position, plan))
        return True


def _merge_plans(group: _Group) -> QueryPlan:
    """One synthetic plan whose collection phase covers every member plan.

    The collection phase only consumes ``variables`` / ``range_of`` /
    ``conjunctions`` / ``derived_predicates()``, so the merged plan unions
    the member bindings and prefixes (each variable once — grouping
    guarantees identical ranges) and concatenates the matrices.  Members
    later slice the merged :class:`CollectionResult` by conjunction offset.
    """
    seen: set[str] = set()
    bindings = []
    prefix = []
    conjunctions: list[tuple[object, ...]] = []
    for _, plan in group.members:
        for binding in plan.bindings:
            if binding.var not in seen:
                seen.add(binding.var)
                bindings.append(binding)
    for _, plan in group.members:
        for spec in plan.prefix:
            if spec.var not in seen:
                seen.add(spec.var)
                prefix.append(spec)
        conjunctions.extend(plan.conjunctions)
    first_plan = group.members[0][1]
    return QueryPlan(
        selection=first_plan.selection,
        bindings=tuple(bindings),
        prefix=tuple(prefix),
        conjunctions=tuple(conjunctions),
        options=group.options,
        trace=TransformationTrace(),
    )


def _run_group(engine: QueryEngine, group: _Group) -> list[tuple[int, QueryResult]]:
    """Execute one group over a single shared collection phase."""
    database = engine.database
    options = group.options
    merged = _merge_plans(group)
    collection = CollectionPhase(merged, database, options).run()

    results = []
    offset = 0
    for position, plan in group.members:
        count = len(plan.conjunctions)
        view = CollectionResult(
            range_refs=collection.range_refs,
            conjunctions=collection.conjunctions[offset : offset + count],
            scans_performed=collection.scans_performed,
            structures_built=collection.structures_built,
            access_paths=dict(collection.access_paths),
        )
        offset += count
        # Per-member pipeline over the shared structures: the combination
        # phase hands ConstructionPhase a live RowStream and the member's
        # tuples are dereferenced as they flow.
        combination = CombinationPhase(plan, database, view, options).run()
        relation = ConstructionPhase(plan.selection, database).run(combination)
        results.append(
            (
                position,
                QueryResult(
                    relation=relation,
                    prepared=plan,
                    statistics={},
                    collection=view,
                    combination=combination,
                    access_paths=dict(view.access_paths),
                ),
            )
        )
    return results


def _batchable(plan: QueryPlan, options: StrategyOptions) -> bool:
    if plan.constant is not None:
        return False
    if options.separate_existential_conjunctions:
        return False
    return True


def execute_plans_batched(
    engine: QueryEngine,
    items: list[tuple[QueryPlan, StrategyOptions]],
    reset_statistics: bool = True,
) -> list[QueryResult]:
    """Execute bound plans, sharing collection-phase scans within groups.

    Results come back in input order.  The access counters accumulate over
    the whole batch (that is the point — the per-relation scan counts show
    the shared scans), and every result carries the same end-of-batch
    statistics snapshot.
    """
    if reset_statistics:
        engine.database.reset_statistics()

    groups: list[_Group] = []
    results: list[QueryResult | None] = [None] * len(items)
    for position, (plan, options) in enumerate(items):
        if not _batchable(plan, options):
            results[position] = engine.execute_plan(
                plan, options, reset_statistics=False
            ).drain()
            continue
        for group in groups:
            if group.options == options and group.try_add(position, plan):
                break
        else:
            group = _Group(options=options)
            group.try_add(position, plan)
            groups.append(group)

    for group in groups:
        try:
            for position, result in _run_group(engine, group):
                results[position] = result
        except ExtendedRangeEmptyError:
            # A shared extended range was empty at runtime.  Fall back to
            # individual execution: the engine re-plans each affected query
            # without Strategy 3, exactly as non-batched execution would.
            for position, plan in group.members:
                results[position] = engine.execute_plan(
                    plan, group.options, reset_statistics=False
                ).drain()

    # Every result carries the same end-of-batch snapshot, including members
    # executed individually (whose execute_plan call stamped a mid-batch
    # snapshot) — the documented contract for scan-sharing assertions.
    snapshot = engine.database.statistics.as_dict()
    for position, result in enumerate(results):
        assert result is not None, f"batch position {position} was never executed"
        result.statistics = snapshot
    return results
