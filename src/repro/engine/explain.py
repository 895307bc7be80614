"""EXPLAIN: a textual account of a prepared query.

Shows what the examples and the paper's worked derivations show: the
transformation trace, the (possibly extended) ranges, the quantifier prefix,
the matrix conjunctions with their join terms and derived predicates, and the
collection-phase scan order.  :func:`explain_combination` extends the report
with execution-time facts — the combination-phase join order and the
semijoin reducer's per-structure before/after sizes — and is what
``QueryEngine.explain(..., analyze=True)`` appends.
"""

from __future__ import annotations

from repro.calculus.ast import BoolConst, Comparison
from repro.calculus.printer import format_formula, format_range, format_selection
from repro.config import StrategyOptions
from repro.engine.access import PROBE, AccessPath, select_access_path
from repro.engine.combination import CombinationResult, OperatorNote, qerror
from repro.transform.pipeline import QueryPlan
from repro.transform.quantifier_pushdown import DerivedPredicate

__all__ = ["explain_prepared", "explain_selection", "explain_combination", "explain_value_lists"]


def explain_prepared(
    prepared: QueryPlan, database, options: StrategyOptions, taken: dict[str, str] | None = None
) -> str:
    """Render a multi-line EXPLAIN report for ``prepared``.

    ``taken`` are the access paths an execution took (EXPLAIN ANALYZE); without
    it the selector is asked what it would decide on ``database`` now.
    """

    def path_of(var: str) -> str:
        if taken and var in taken:
            return taken[var]
        return select_access_path(database, var, prepared.range_of(var), options).describe()

    lines: list[str] = []
    lines.append("query:")
    lines.append("  " + format_selection(prepared.selection))
    lines.append(f"strategies: {options.describe()}")
    lines.append("transformations:")
    for step in prepared.trace.steps:
        lines.append(f"  - {step.name}: {step.detail}")

    lines.append("free variables:")
    for binding in prepared.bindings:
        lines.append(f"  EACH {binding.var} IN {format_range(binding.range, binding.var)}")
    if prepared.prefix:
        lines.append("quantifier prefix:")
        for spec in prepared.prefix:
            lines.append(f"  {spec.kind} {spec.var} IN {format_range(spec.range, spec.var)}")
    else:
        lines.append("quantifier prefix: (empty)")

    lines.append("matrix:")
    for index, conjunction in enumerate(prepared.conjunctions):
        lines.append(f"  conjunction {index + 1}:")
        for literal in conjunction:
            if isinstance(literal, Comparison):
                lines.append(f"    join term {format_formula(literal)}")
            elif isinstance(literal, DerivedPredicate):
                lines.append(f"    derived    {literal.describe()}")
            elif isinstance(literal, BoolConst):
                lines.append(f"    constant   {'TRUE' if literal.value else 'FALSE'}")
            else:  # pragma: no cover - defensive
                lines.append(f"    literal    {literal!r}")

    if prepared.constant is None:
        order = []
        for var in reversed(prepared.variables):
            relation = prepared.range_of(var).relation
            if relation not in order:
                order.append(relation)
        lines.append("collection-phase scan order: " + ", ".join(order))
        lines.append("access paths:")
        for var in prepared.variables:
            lines.append(f"  {var}: {path_of(var)}")
        cardinalities = database.cardinalities()
        lines.append(
            "relation cardinalities: "
            + ", ".join(f"{name}={count}" for name, count in cardinalities.items())
        )
    else:
        lines.append(
            "matrix is constant "
            + ("TRUE — the result is the projection of the free ranges" if prepared.constant
               else "FALSE — the result is empty")
        )
        if prepared.constant:
            lines.append("access paths:")
            for binding in prepared.bindings:
                lines.append(f"  {binding.var}: {path_of(binding.var)}")
    return "\n".join(lines)


def explain_selection(paths: list[AccessPath], statistics: dict) -> str:
    """What a constant TRUE matrix's execution did: per free range the path it
    took with estimated against actual elements read (ranges over one relation
    share its count), then the operators, as :func:`explain_combination` prints."""
    lines, notes = ["selection pipeline:"], []
    for position, path in enumerate(paths):
        estimate = path.estimated_cost if path.kind == PROBE else path.scan_cost
        actual = statistics["relations"].get(path.relation_name, {}).get("elements_read", 0)
        lines.append(
            f"  {path.var}: {path.kind} of {path.relation_name}, elements read est "
            f"{estimate:.0f}, actual {actual}, q-error {qerror(estimate, actual):.2f}"
        )
        notes.append(OperatorNote(
            None, f"range of {path.var}", "materialized" if position else "streamed",
            "read whole at the first fetch: an inner side of the product" if position
            else "(keys, records) chunks of 1, 2, 4, ... rows off the access path",
        ))
    notes.append(OperatorNote(
        None, "projection", "streamed",
        "distinct on arrival: the result relation keeps a row's first witness",
    ))
    return "\n".join(lines + ["  operators:"] + [f"    {note.describe()}" for note in notes])


def explain_value_lists(collection) -> str:
    """One line per derived predicate of a collection result: its value list
    built (from how many inner elements) or reused (at which versions) — why
    an inner relation may show ``elements_read = 0``."""
    lines = ["value lists:"]
    for predicate, elements, versions in collection.value_lists:
        if versions is None:
            note = f"built from {elements} element(s)"
        else:
            note = "reused @ versions (" + ", ".join(f"{n}={v}" for n, v in versions.items()) + ")"
        lines.append(f"  {predicate.describe()}: value list {note}")
    return "\n".join(lines)


def explain_combination(combination: CombinationResult) -> str:
    """Render the combination phase's recorded join orders and reductions.

    Conjunction numbers match the ``matrix:`` section of
    :func:`explain_prepared` — dropped conjunctions keep their position.
    Each operator is annotated ``streamed`` or ``materialized`` with the
    pipeline-breaker reason, so ``EXPLAIN ANALYZE`` shows exactly where
    tuples were buffered; the plan's policy names the execution and what
    its peak counts.
    """
    literal = combination.plan is not None and combination.plan.literal
    mode = "literal Section 3.3 procedure, streamed" if literal else "streaming pipeline"
    lines: list[str] = [
        "combination phase:",
        f"  execution: {mode}",
        f"  combination plan: {'reused' if combination.plan_reused else 'built'}",
    ]
    # conjunction_indexes, join_orders and reductions are appended in
    # lockstep by CombinationPhase — index directly so a broken invariant
    # fails loudly instead of mislabelling conjunctions.
    for position, order in enumerate(combination.join_orders):
        number = combination.conjunction_indexes[position] + 1
        lines.append(f"  conjunction {number} join order:")
        for step, (description, size) in enumerate(order):
            prefix = "start with" if step == 0 else "then join"
            lines.append(f"    {prefix} {description} ({size} tuples)")
        estimates = (
            combination.join_estimates[position]
            if position < len(combination.join_estimates)
            else []
        )
        rows = [entry for entry in estimates if entry[1] is not None]
        if rows:
            lines.append(f"  conjunction {number} cardinality estimates:")
            for description, est, actual in rows:
                lines.append(
                    f"    {description}: est {est:.0f}, actual {actual}, "
                    f"q-error {qerror(est, actual):.2f}"
                )
        reductions = combination.reductions[position]
        reduced = [r for r in reductions if r[1] != r[2]]
        if reduced:
            lines.append(f"  conjunction {number} semijoin reductions:")
            for description, before, after in reduced:
                lines.append(f"    {description}: {before} -> {after} tuples")
        elif reductions:
            lines.append(f"  conjunction {number} semijoin reductions: (nothing removed)")
    if combination.operator_notes:
        lines.append("  operators:")
        for note in combination.operator_notes:
            lines.append(f"    {note.describe()}")
    peak_label = "peak n-tuples" if literal else "peak live tuples"
    lines.append(
        f"  conjunction sizes: {combination.conjunction_sizes}, "
        f"union {combination.union_size}, "
        f"after quantifiers {combination.after_quantifiers_size}, "
        f"{peak_label} {combination.peak_tuples}"
    )
    return "\n".join(lines)
