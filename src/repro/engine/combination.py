"""The combination phase (Section 3.3, step 2), its optimizer, and the pipeline.

"The COMBINATION PHASE manipulates only reference relations; it evaluates
logical operators and quantifiers in three steps:

* each conjunction is evaluated by combining the single lists and indirect
  joins obtained in the collection phase into n-tuples of references where n
  is the number of variables in the selection expression (join or Cartesian
  product of reference relations);
* the full disjunctive form is evaluated by a union operation on all these
  sets of n-tuples;
* quantifiers are evaluated from right to left, using projection for
  existential quantification and division for universal quantification."

The phase is one pull-based operator pipeline of
:class:`~repro.engine.stream.RowStream` values: per conjunction a chain of
the streaming kernels of :mod:`repro.relational.algebra` (scan, joins, range
extensions, a closing projection), a union over the chains, the quantifier
operators right to left, and the construction phase dereferencing straight
from the last stream.  Its cost — the size of the n-tuple relations the
procedure above builds — is the quantity Strategies 3 and 4 attack, and it
is reported through the shared
:class:`~repro.relational.statistics.AccessStatistics`.

``plan`` (:class:`~repro.config.StrategyOptions`) selects what that one
pipeline is planned to compute:

* **``"streamed"`` — the streamed plan.**  The innermost run of SOME
  quantifiers is eliminated *inside* each conjunction's chain (projection
  distributes over union), which lets a join whose new columns are all
  SOME-bound short-circuit into a semijoin — each witness is emitted once
  and the partner group is never enumerated — and turns an unmentioned
  SOME-bound range into a non-emptiness test; the union deduplicates only when an
  outer operator does not; runs of SOME become one dedup projection.  Only
  pipeline breakers (division group tables, union/projection dedup state)
  buffer tuples, so ``peak_tuples`` reports the live-tuple high-water mark.
* **``"literal"`` — the literal plan**, the procedure quoted above: every
  chain builds n-tuples over all n variables (an unmentioned variable is
  extended by its full range), the conjunctions are unioned two at a time
  with deduplication, and every quantifier is its own operator — one dedup
  projection per SOME, one division per ALL.  Each of those operators'
  outputs is one of the procedure's n-tuple relations: it counts as an
  intermediate relation, and ``peak_tuples`` is the largest of them.

Two combination-phase optimizations (switchable through the same options)
attack that cost *inside* the phase, under either plan:

* ``join_order`` — ``"written"`` joins structures in textual
  first-connected order; ``"uniform"`` and ``"histogram"`` start from the
  smallest structure and greedily join the connected structure with the
  smallest estimated join cardinality (``|L| * |R| / max(distinct join
  values)``, the first step from join-key sketches under ``"histogram"``);
  Cartesian products are taken only as a last resort, smallest first.
* ``semijoin_reduction`` — before any n-tuple join, a reducer pass
  semijoin-filters each conjunct structure against every other structure of
  the conjunction sharing a variable column (Bernstein & Chiu's technique,
  which the paper relates to its collection-phase quantifier evaluation), so
  dyadic structures shrink before they ever enter a join.

The pipeline computes on **dense reference ids**, not on
:class:`~repro.relational.reference.Ref` objects: the collection phase
interns each relation's element keys as it reads them, so every conjunct
structure and every range arrives as int tuples and becomes a
:class:`~repro.engine.stream.Rows` as it is; the reducer filters those rows
against key sets, the kernels run over them, ``CombinationResult.tuples``
records them as they are, and the construction phase decodes ids to keys
through the collection result's intern tables.  Ids are a bijective
renaming, so every operator keeps its plain set semantics.

Every decision above is a function of the collection result, so it is taken
once per collection result (what depends on the query's shape alone — the
id relations' schemas — once per prepared shape, on the plan every binding
of it shares): the first execution over one **plans** — reduces
the operands, orders the joins, picks each step's operator — and publishes
the :class:`CombinationPlan` on it; that execution and every later one
**wire** the plan into their own generators, counters and report, and a hash
table is built when a wire first probes it and stays on its operand.  A
repeated query over unchanged relations pays for its probes, not for its
plan.  The chosen join order, the per-structure reduction sizes and a
streamed/materialized annotation per operator are recorded on
:class:`CombinationResult` so ``explain(..., analyze=True)`` can show them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.calculus.analysis import QuantifierSpec
from repro.calculus.ast import ALL, SOME
from repro.config import StrategyOptions
from repro.engine.collection import CollectionResult, ConjunctStructure
from repro.engine.stream import Demand, LiveTupleTracker, Rows, RowStream
from repro.errors import EvaluationError
from repro.relational.algebra import (
    Kernel,
    divide_kernel,
    match_getter,
    natural_join_kernel,
    project_kernel,
    semijoin_kernel,
    union_kernel,
    value_rows,
)
from repro.relational.histogram import ColumnSketch, estimate_join
from repro.relational.refrelation import ReferenceType, ref_field_name
from repro.relational.statistics import COMBINATION, estimate_join_cardinality
from repro.transform.pipeline import QueryPlan
from repro.types.schema import Field, RelationSchema

__all__ = [
    "CombinationResult", "CombinationPhase", "CombinationPlan", "OperatorNote",
    "qerror", "stream_join_estimate",
]


@dataclass
class OperatorNote:
    """One operator of the combination pipeline, annotated for EXPLAIN.

    ``mode`` is ``"streamed"`` for operators that pass tuples through without
    materialising a result relation, ``"materialized"`` for operators that
    buffer their whole input (the division pipeline breaker); ``reason``
    says why.
    """

    conjunction: int | None
    op: str
    mode: str
    reason: str

    def describe(self) -> str:
        scope = f"[conjunction {self.conjunction + 1}] " if self.conjunction is not None else ""
        return f"{scope}{self.op}: {self.mode} — {self.reason}"


@dataclass
class CombinationResult:
    """The outcome of the combination phase."""

    tuples: Rows | None
    """The distinct reference-id rows over the free variables that satisfy
    the query, appended a chunk at a time while :attr:`stream` is consumed
    (normally by the construction phase); all of them once it is exhausted.
    ``None`` in a separated execution's merged report: each sub-query's ids
    index its own intern tables, so no one list of id rows is the query's."""

    stream: RowStream | None = None
    """The live pipeline producing the free-variable reference-id tuples.  The
    construction phase consumes it; every row it yields is also recorded
    into :attr:`tuples`, and a complete drain sets it to ``None``."""

    plan: CombinationPlan | None = None
    """The plan this execution wired; its policy (:attr:`CombinationPlan.literal`)
    says what :attr:`peak_tuples` measures."""

    conjunction_sizes: list[int] = field(default_factory=list)
    """Per evaluated conjunction: the number of rows its pipeline emitted
    into the union stage, filled in when that pipeline closes."""

    union_size: int = 0
    after_quantifiers_size: int = 0
    peak_tuples: int = 0
    """Under the streamed plan, the live-tuple high-water mark of
    pipeline-breaker state (division group tables, union/projection dedup
    sets); under the literal plan, the largest n-tuple relation of Section
    3.3 — the largest output of any join, extension, conjunction projection,
    union or quantifier operator.  Finalised as the stream drains."""

    conjunction_indexes: list[int] = field(default_factory=list)
    """Positions (0-based, into the prepared matrix) of the conjunctions
    actually evaluated — dropped conjunctions leave gaps, and the entries of
    ``conjunction_sizes``/``join_orders``/``reductions`` align with this."""

    join_orders: list[list[tuple[str, int]]] = field(default_factory=list)
    """Per evaluated conjunction: ``(structure description, cardinality)`` in
    the order the structures were joined (post-reduction sizes)."""

    reductions: list[list[tuple[str, int, int]]] = field(default_factory=list)
    """Per evaluated conjunction: ``(structure description, size before,
    size after)`` for every structure touched by the semijoin reducer."""

    join_estimates: list[list[list]] = field(default_factory=list)
    """Per evaluated conjunction, per join-chain step: a mutable
    ``[description, estimated rows, actual rows]`` triple.  The estimate is
    what the active cost model predicted when it chose the step (``None``
    when no cost model ran — ``join_order="written"``); the actual is the
    step's true output cardinality, filled when the step's operator closes.
    ``explain(analyze=True)`` renders these as est-vs-actual rows with their
    q-error."""

    operator_notes: list[OperatorNote] = field(default_factory=list)
    """Every operator applied, annotated streamed/materialized with reason."""

    plan_reused: bool = False
    """Whether this execution wired a :class:`CombinationPlan` an earlier one
    had published on the collection result — it then ran no reducer and no
    cost model — instead of planning first."""

    def worst_qerror(self) -> float:
        """The largest :func:`qerror` over the join steps that carry an
        estimate and an actual count; 0.0 when none does."""
        return max(
            (qerror(est, actual) for steps in self.join_estimates
             for _, est, actual in steps if est is not None and actual is not None),
            default=0.0,
        )


def qerror(est: float, actual: float) -> float:
    """``max(est/actual, actual/est)``, +1-smoothed so empty sides stay finite."""
    return max((est + 1.0) / (actual + 1.0), (actual + 1.0) / (est + 1.0))


# ============================================================== the join-order policy
#
# Value-agnostic and free of phase state: a pick reads only the operands'
# schemas, sizes and join-column summaries.


def _join_summary(operand: Rows, shared, sketch: bool):
    """The distinct count, or the join-key sketch, of ``operand``'s ``shared`` columns.

    Kept on the operand (beside its build sides) for as long as it lives.
    """
    memo = operand.memo
    key = ("sketch" if sketch else "distinct", tuple(shared))
    summary = memo.get(key)
    if summary is None:
        values = map(match_getter(operand.schema, shared), value_rows(operand))
        summary = memo[key] = ColumnSketch(values) if sketch else len(set(values))
    return summary


def stream_join_estimate(left_size: float, joined, operand, shared) -> float:
    """Estimated rows of joining ``operand`` to a stream of about ``left_size`` rows.

    The stream's rows have not flowed, but what it can hold is known: a
    covered column carries no more distinct values than any operand
    ``joined`` so far that has it (every join filters it), several shared
    columns no more than the product, and never more than the stream has
    rows.  With that for the stream side, the uniform formula gives
    ``carried * |R| / max(min(carried, bound), d_R)``.
    """
    carried = max(int(left_size), 1) if left_size > 0 else 0
    bound = 1
    for column in shared:
        if bound >= carried:
            break
        held = [_join_summary(o, (column,), False) for o in joined if column in o.schema]
        bound *= min(held, default=carried)
    return estimate_join_cardinality(
        carried, len(operand), min(carried, bound), _join_summary(operand, shared, False)
    )


def pick_next(
    joined: list[Rows],
    left_size: float,
    covered: set[str],
    pending: list[Rows],
    join_order: str,
) -> tuple[int, float | None]:
    """Position of the next operand to join, plus that join's estimated size.

    ``joined`` holds the operands joined so far, the chain's start structure
    first; ``pending`` the operands still to join; ``covered`` the component
    names joined so far.  ``"written"`` takes the literal Section 3.3
    reading — the first connected operand, else the first one (a Cartesian
    product) — and no estimate.  The other policies take the connected
    operand with the smallest estimated join result, Cartesian products only
    as a last resort, smallest first.  The estimate is
    :func:`stream_join_estimate` over ``joined``, except that
    ``"histogram"`` joins the sketches of both sides' shared columns while
    the start structure is still the whole left side: the only one whose
    rows exist before the chain runs.
    """
    if join_order == "written":
        for position, operand in enumerate(pending):
            if not covered.isdisjoint(operand.schema.field_names):
                return position, None
        return 0, None
    best_connected: int | None = None
    best_connected_cost = 0.0
    best_disconnected: int | None = None
    best_disconnected_size = 0
    for position, operand in enumerate(pending):
        shared = [f for f in operand.schema.field_names if f in covered]
        if not shared:
            size = len(operand)
            if best_disconnected is None or size < best_disconnected_size:
                best_disconnected, best_disconnected_size = position, size
            continue
        if join_order == "histogram" and len(joined) == 1:
            cost = estimate_join(
                _join_summary(joined[0], shared, True), _join_summary(operand, shared, True)
            )
        else:
            cost = stream_join_estimate(left_size, joined, operand, shared)
        if best_connected is None or cost < best_connected_cost:
            best_connected, best_connected_cost = position, cost
    if best_connected is not None:
        return best_connected, best_connected_cost
    assert best_disconnected is not None
    return best_disconnected, left_size * best_disconnected_size


@dataclass
class ConjunctionPlan:
    """One conjunction's share of a :class:`CombinationPlan`."""

    operands: list[Rows]
    """The structures as id operands, semijoin-reduced, in structure order."""
    reductions: list[tuple[str, int, int]]
    order: list[tuple[str, int]] = field(default_factory=list)
    source: Rows | None = None
    """The operand the streaming chain scans."""
    steps: list[tuple] = field(default_factory=list)
    """The chain, ``(kernel, description, estimate, actual)`` per operator,
    scan first; ``actual`` is ``None`` where only the execution knows it.
    Steps planning already settled (an existence or range gate, a skipped
    extension) leave a note and no kernel."""
    last: Kernel | None = None
    """The projection to the kept columns; its output is the conjunction's size."""
    empty: bool = False
    """A gate found an empty operand: the conjunction yields nothing."""


@dataclass
class CombinationPlan:
    """What the phase derives from a collection result alone, kept on it.

    A pure function of the collection result, the query plan and ``key``
    (the ``join_order`` / ``semijoin_reduction`` / ``plan`` values it was
    planned under).  That includes the pipeline's whole *shape* — every
    operator as a prepared :class:`~repro.relational.algebra.Kernel`
    (getters, build sides; the id relations' schemas are the shape's), the
    decode tables and the operator notes — so an execution wires
    generators, estimate slots and counters and nothing else.  Built
    privately and published on
    :attr:`CollectionResult.combination_plan` by one assignment; executions
    sharing it — concurrently, on pins — only read it.
    """

    key: tuple
    free_schema: RelationSchema
    """Of the free-variable reference-id tuples (``CombinationResult.tuples``)."""
    tables: list
    """Per free column: the intern table (id -> key) construction decodes with."""
    ranges: dict[str, Rows] = field(default_factory=dict)
    """Per variable: its range as an id operand (extensions, divisors), each
    made when first asked for."""
    conjunctions: list[ConjunctionPlan | None] = field(default_factory=list)
    kept_schema: RelationSchema | None = None
    """Of what the conjunction pipelines emit: under the streamed plan no
    innermost-SOME column, under the literal plan every variable's."""
    union: Kernel | None = None
    """``None`` when no conjunction is satisfiable: the pipeline is empty."""
    tail: list[Kernel] = field(default_factory=list)
    """The quantifiers the union leaves, right to left; the last one leaves
    exactly the free variables, in binding order."""
    notes: list[OperatorNote] = field(default_factory=list)

    @property
    def literal(self) -> bool:
        """The policy: planned as the literal Section 3.3 procedure
        (``plan="literal"``) rather than as the streamed plan."""
        return self.key[2] == "literal"


class CombinationPhase:
    """Combines collection-phase structures into free-variable reference-id tuples."""

    def __init__(
        self,
        prepared: QueryPlan,
        database,
        collection: CollectionResult,
        options: StrategyOptions | None = None,
    ) -> None:
        self.prepared = prepared
        self.database = database
        self.collection = collection
        self.options = options if options is not None else prepared.options
        self.statistics = database.statistics
        self._ranges: dict[str, Rows] = {}

    # -- public API ------------------------------------------------------------------

    def run(self, demand: Demand | None = None) -> CombinationResult:
        """Wire the collection result's plan (made here by the first
        execution over it); execution happens when the pipeline is drained.

        ``join_orders``/``reductions`` and the operator annotations are
        complete on return, but no tuple flows until the returned
        :attr:`CombinationResult.stream` is consumed — normally by the
        construction phase — and the sizes and ``peak_tuples`` are
        finalised as it drains.  Its sources cut chunks as ``demand`` asks.
        """
        with self.statistics.phase(COMBINATION):
            plan, reused = self._plan()
            result = CombinationResult(
                tuples=Rows(plan.free_schema, [], "free_tuples"), plan=plan,
                plan_reused=reused, operator_notes=list(plan.notes),
            )
            # The literal plan measures its operators' outputs, the streamed
            # plan the state its breakers hold.
            measured = result if plan.literal else None
            live = None if plan.literal else LiveTupleTracker()
            stats = self.statistics
            members: list[RowStream] = []
            for index, conjunction in enumerate(plan.conjunctions):
                if conjunction is None:
                    continue
                result.conjunction_indexes.append(index)
                result.conjunction_sizes.append(0)
                members.append(self._conjunction_stream(
                    index, conjunction, plan.kept_schema, result, measured, demand
                ))
            if plan.union is None:
                result.stream = RowStream.empty(plan.free_schema, label="free_tuples")
                return result
            # Section 3.3 unions the conjunctions' relations two at a time.
            while measured is not None and len(members) > 2:
                members[:2] = [plan.union(members[:2], stats, live, self._operator(None, measured))]
            pipeline = plan.union(members, stats, live, self._operator(
                partial(setattr, result, "union_size"), measured if len(members) > 1 else None
            ))
            for kernel in plan.tail:
                pipeline = kernel(pipeline, stats, live, self._operator(None, measured), demand)
            result.stream = self._finalized(pipeline, result, live)
            return result

    # ============================================================ operands over reference ids

    def _schema(self, name: str, variables) -> RelationSchema:
        """The schema of an id relation with one reference column per variable:
        built once per prepared shape, in the cache its bound plans share."""
        schemas = self.prepared.combination_schemas
        key = (name, *variables)
        schema = schemas.get(key)
        if schema is None:
            schema = schemas[key] = RelationSchema(name, [
                Field(ref_field_name(var), ReferenceType(self._relation_of(var)))
                for var in variables
            ], key=None)
        return schema

    def _reduce_structures(self, entries: list[Rows]) -> list[tuple[str, int, int]]:
        """Semijoin-filter each structure against its connected neighbours.

        Repeats passes until no structure shrinks (bounded by the number of
        structures, which suffices for acyclic join graphs — a full reducer
        in the sense of Bernstein & Chiu; cyclic graphs still only shrink,
        never change the join result).  Plain set-semantics semijoins over
        id rows: a structure's rows are filtered against the key set of the
        neighbour's shared columns, one comparison per row probed.
        """
        originals = [len(entry) for entry in entries]
        links: dict[tuple[int, int], tuple] = {}
        for i, left in enumerate(entries):
            for j, right in enumerate(entries):
                shared = [f for f in right.schema.field_names if f in left.schema]
                if i != j and shared:
                    links[i, j] = (
                        match_getter(left.schema, shared),
                        match_getter(right.schema, shared),
                    )
        # Key sets by link, valid while the neighbour still holds the very
        # row list they were built from (the entry pins it, so ``is`` is safe).
        key_sets: dict[tuple[int, int], tuple[list, set]] = {}
        stats = self.statistics
        changed = True
        passes = 0
        while changed and passes <= len(entries):
            changed = False
            passes += 1
            for (i, j), (left_key, right_key) in links.items():
                left, right = entries[i], entries[j]
                before = len(left.rows)
                if not before:
                    continue
                cached = key_sets.get((i, j))
                if cached is None or cached[0] is not right.rows:
                    cached = key_sets[i, j] = (right.rows, set(map(right_key, right.rows)))
                keys = cached[1]
                stats.record_comparison(before)
                kept = [row for row in left.rows if left_key(row) in keys]
                if len(kept) != before:
                    left.rows = kept
                    stats.record_reduction(before - len(kept))
                    changed = True
        return [
            (entry.name, original, len(entry)) for entry, original in zip(entries, originals)
        ]

    def _relation_of(self, var: str) -> str:
        return self.prepared.range_of(var).relation

    # ====================================================================== the plan

    def _plan(self) -> tuple[CombinationPlan, bool]:
        """The collection result's plan under this phase's options, and
        whether an earlier execution made it.

        The published one when there is one (planned under other options,
        it is replaced); else planned here, on private lists, and published
        complete.  Everything of *this execution* — counters, estimate
        slots, generators — is the wiring's, never the plan's.
        """
        key = (self.options.join_order, self.options.semijoin_reduction, self.options.plan)
        plan = self.collection.combination_plan
        reused = plan is not None and plan.key == key
        if not reused:
            free = [b.var for b in self.prepared.bindings]
            tables = [self.collection.keys.get(self._relation_of(var), ()) for var in free]
            plan = CombinationPlan(key, self._schema("free_tuples", free), tables)
            self._ranges = plan.ranges
            self._plan_pipeline(plan)
            self.collection.combination_plan = plan
        self.statistics.record_combination_plan(reused)
        return plan, reused

    def _range(self, var: str) -> Rows:
        """``var``'s range as an id operand, kept with the plan."""
        rows = self._ranges.get(var)
        if rows is None:
            schema = self._schema(f"range_{var}", (var,))
            rows = self._ranges[var] = Rows(schema, self.collection.range_refs[var], f"range of {var}")
        return rows

    def _plan_conjunction(self, index: int, structures: list[ConjunctStructure]) -> ConjunctionPlan:
        """One conjunction's operands, reduced.

        The id rows are the collection result's structures as they are; the
        reducer replaces an operand's row list, never edits it, so those
        stay intact.
        """
        operands = [
            Rows(
                self._schema(f"structure_{index}", structure.variables),
                structure.rows,
                structure.description,
            )
            for structure in structures
        ]
        reduce = self.options.semijoin_reduction and len(operands) > 1
        return ConjunctionPlan(operands, self._reduce_structures(operands) if reduce else [])

    def _plan_chain(
        self, index: int, plan: ConjunctionPlan, variables, drop_columns,
        kept_schema: RelationSchema, notes: list[OperatorNote],
    ) -> ConjunctionPlan:
        """Prepare the chain over ``plan``'s operands: source, join order, one
        kernel per step, the closing projection.  Columns in ``drop_columns``
        (none under the literal plan) are SOME-bound and unused downstream."""
        operands = plan.operands
        order = plan.order
        schema = None  # of the chain so far

        def step(op, subject, reason, kernel=None, description=None, est=None, actual=None):
            nonlocal schema
            notes.append(OperatorNote(index, f"{op} {subject}", "streamed", reason))
            if kernel is not None:
                plan.steps.append((kernel, description, est, actual))
                schema = kernel.schema

        def scan(entry: Rows, est, reason):
            plan.source = entry
            order.append((entry.name, len(entry)))
            kernel = project_kernel(entry.schema, entry.schema.field_names, entry.name)
            step("scan", entry.name, reason, kernel, entry.name, est, len(entry))

        join_order = self.options.join_order
        pending = list(operands)
        if pending:
            start = 0
            if join_order != "written":
                start = min(range(len(pending)), key=lambda i: len(pending[i]))
            entry = pending.pop(start)
            est_size = float(len(entry))
            scan(entry, est_size, "pipeline source")
            covered = set(entry.schema.field_names)
            joined = [entry]
            while pending:
                pick, est = pick_next(joined, est_size, covered, pending, join_order)
                entry = pending.pop(pick)
                description = entry.name
                order.append((description, len(entry)))
                names = entry.schema.field_names
                shared = [f for f in names if f in covered]
                new_columns = [f for f in names if f not in covered]
                later = {f for other in pending for f in other.schema.field_names}
                short_circuit = (
                    bool(new_columns)
                    and all(c in drop_columns for c in new_columns)
                    and not any(c in later for c in new_columns)
                )
                if short_circuit and shared:
                    # project(A ⋈ B) with B's new columns all dropped is A ⋉ B:
                    # one membership probe per row, never enumerate the group.
                    step(
                        "semijoin", description,
                        "short-circuit: SOME-bound columns unused downstream — "
                        "stops probing each group at the first witness",
                        semijoin_kernel(schema, entry, [(f, f) for f in shared], f"conj{index}"),
                        f"semijoin {description}", None if est is None else min(est_size, est),
                    )
                elif short_circuit:
                    # Disconnected and fully SOME-bound: a non-emptiness gate.
                    plan.empty = plan.empty or not entry
                    step(
                        "existence gate", description,
                        "disconnected SOME-bound structure reduces to a non-emptiness test",
                    )
                else:
                    step(
                        "join", description,
                        "pipelined hash join (build side: collection structure)",
                        natural_join_kernel(schema, entry, f"conj{index}"), description, est,
                    )
                    if est is not None:
                        est_size = est
                    elif shared:
                        est_size = stream_join_estimate(est_size, joined, entry, shared)
                    else:
                        est_size = est_size * len(entry)
                    covered.update(names)
                    joined.append(entry)
        else:
            # No structures: the conjunction is TRUE — start from the first
            # variable's range (a free variable, hence never dropped).
            entry = self._range(variables[0])
            est_size = float(len(entry))
            scan(entry, est_size, "TRUE conjunction: enumerate the first range")
            covered = set(entry.schema.field_names)

        # Ranges of the variables the conjunction does not mention.  A
        # SOME-bound unmentioned variable never reaches the output: joining
        # its full range and projecting it away is the identity when the
        # range is non-empty, and annihilates the conjunction when empty.
        ranges = self.collection.range_refs
        for var in variables:
            column = ref_field_name(var)
            if column in covered:
                continue
            size = len(ranges[var])
            order.append((f"range of {var}", size))
            if column not in drop_columns:
                est_size = est_size * size
                extension = self._range(var)
                step(
                    "range extension", var, "streaming Cartesian extension",
                    natural_join_kernel(schema, extension, f"conj{index}"),
                    extension.name, est_size,
                )
                covered.add(column)
            elif size:
                step(
                    "range extension", var,
                    "skipped: SOME-quantified, unmentioned, non-empty range — "
                    "extend-then-project is the identity",
                )
            else:
                plan.empty = True
                step(
                    "range gate", var,
                    "SOME-quantified range is empty — the conjunction yields nothing",
                )
        if not plan.empty:
            # The conjunction's last operator: its output count is the
            # conjunction's size, whatever the chain above looked like.
            if schema.field_names != kept_schema.field_names:
                notes.append(OperatorNote(
                    index, "projection to kept columns", "streamed",
                    ("drops innermost SOME columns / reorders" if drop_columns else "reorders")
                    + "; dedup happens in the union stage",
                ))
            plan.last = project_kernel(schema, kept_schema.field_names, f"conjunction_{index}")
        for operand in operands:
            operand.memo.clear()  # the summaries priced the order; the kernels hold build sides
        return plan

    # ====================================================================== the pipeline

    def _operator(self, sink=None, measured: CombinationResult | None = None):
        """The ``emitted`` hook of one pipeline operator.

        Counts the operator now; its row throughput (and ``sink``, the
        caller's interest in that count) is flushed by the operator itself
        when its generator closes.  Under the literal plan ``measured`` is
        the execution's result: the operator's output is one of Section
        3.3's n-tuple relations, an intermediate relation and a candidate
        for ``peak_tuples``.
        """
        stats = self.statistics
        stats.record_operator_pipelined()
        if sink is None and measured is None:
            return stats.record_rows_streamed

        def flush(count: int) -> None:
            stats.record_rows_streamed(count)
            if measured is not None:
                stats.record_intermediate(count)
                measured.peak_tuples = max(measured.peak_tuples, count)
            if sink is not None:
                sink(count)

        return flush

    def _plan_pipeline(self, plan: CombinationPlan) -> None:
        """Prepare the pipeline on ``plan`` under its policy: conjunction
        chains, union, quantifiers, notes — decided once per collection
        result; no generator exists until an execution wires it (:meth:`run`)."""
        variables = list(self.prepared.variables)
        notes = plan.notes
        literal = plan.literal

        # The streamed plan eliminates the innermost (trailing) run of SOME
        # quantifiers inside each conjunction's pipeline: projection
        # distributes over union, so dropping those columns before the union
        # stage is exact — and it is what enables the semijoin short-circuit
        # in the chains.  The literal plan carries every column to the union.
        prefix = list(self.prepared.prefix)
        split = len(prefix)
        while not literal and split > 0 and prefix[split - 1].kind == SOME:
            split -= 1
        head, trailing = prefix[:split], prefix[split:]
        drop_columns = {ref_field_name(spec.var) for spec in trailing}
        kept_schema = plan.kept_schema = self._schema(
            "matrix_tuples", [v for v in variables if ref_field_name(v) not in drop_columns]
        )
        for index, structures in enumerate(self.collection.conjunctions):
            plan.conjunctions.append(
                None if structures is None else self._plan_chain(
                    index, self._plan_conjunction(index, structures),
                    variables, drop_columns, kept_schema, notes,
                )
            )
        members = len(plan.conjunctions) - plan.conjunctions.count(None)
        if not members:
            # Every conjunction was dropped: the matrix is unsatisfiable.
            notes.append(OperatorNote(
                None, "union", "streamed", "no satisfiable conjunction — empty pipeline"
            ))
            return

        duplicates = members > 1 or bool(trailing)
        # An outer quantifier's operator (dedup projection, division group
        # table) absorbs duplicates itself: deduplicating in the union too
        # would hold every matrix tuple live twice.  The literal union is a
        # set, as the procedure's relations are.
        dedup = literal or (duplicates and not head)
        if literal:
            reason = "literal plan: a set of n-tuples, unioned two conjunctions at a time"
        elif dedup:
            reason = (
                "breaker state: dedup set over the kept columns"
                if members > 1
                else "breaker state: dedup set (innermost SOME columns dropped in-pipeline)"
            )
        elif duplicates:
            reason = "pass-through: the outer quantifier's breaker state absorbs duplicates"
        else:
            reason = "single conjunction with distinct rows — pass-through"
        notes.append(OperatorNote(
            None, f"union of {members} conjunction pipeline(s)", "streamed", reason
        ))
        plan.union = union_kernel(kept_schema, "matrix_union", dedup)

        if trailing:
            dropped = ", ".join(spec.var for spec in reversed(trailing))
            notes.append(OperatorNote(
                None,
                f"SOME elimination of {dropped}",
                "streamed",
                "eliminated inside the conjunction pipelines: each witness emitted once",
            ))

        # Remaining quantifiers, right to left over the unioned stream: ALL
        # becomes the group-wise division breaker, SOME a dedup projection —
        # one per run of SOME under the streamed plan, one per quantifier
        # under the literal one.  What is left is the free variables.
        schema = kept_schema
        columns = list(kept_schema.field_names)
        specs = list(reversed(head))
        for spec in specs:
            if ref_field_name(spec.var) not in columns:
                raise EvaluationError(
                    f"combination tuples lack a column for quantified variable {spec.var!r}"
                )
        j = 0
        while j < len(specs):
            if specs[j].kind == SOME:
                run: list[QuantifierSpec] = []
                while j < len(specs) and specs[j].kind == SOME and not (literal and run):
                    run.append(specs[j])
                    j += 1
                run_columns = {ref_field_name(s.var) for s in run}
                columns = [c for c in columns if c not in run_columns]
                kernel = project_kernel(
                    schema, columns, f"exists_{'_'.join(s.var for s in run)}", dedup=True
                )
                notes.append(OperatorNote(
                    None, f"SOME elimination of {', '.join(s.var for s in run)}", "streamed",
                    "dedup projection: the first witness is emitted, later ones are dropped",
                ))
            elif specs[j].kind == ALL:
                spec = specs[j]
                j += 1
                column = ref_field_name(spec.var)
                kernel = divide_kernel(
                    schema, self._range(spec.var), [(column, column)], f"forall_{spec.var}"
                )
                columns = [c for c in columns if c != column]
                notes.append(OperatorNote(
                    None, f"ALL division by {spec.var}", "materialized",
                    "pipeline breaker: buffers per-group match sets, then emits group-wise",
                ))
            else:
                raise EvaluationError(f"unknown quantifier kind {specs[j].kind!r}")
            plan.tail.append(kernel)
            schema = kernel.schema

        notes.append(OperatorNote(
            None, "construction feed", "streamed",
            "the construction phase decodes ids to keys and dereferences "
            "chunk by chunk from the pipeline",
        ))

    def _conjunction_stream(
        self, index: int, conjunction: ConjunctionPlan, kept_schema,
        result: CombinationResult, measured: CombinationResult | None, demand: Demand | None,
    ) -> RowStream:
        """Wire one conjunction's prepared chain, its source cut as ``demand`` asks:
        this execution's generators, ``emitted`` hooks and ``[description, est, actual]`` slots."""
        stats = self.statistics
        estimates: list[list] = []
        source = conjunction.source
        stream = RowStream(source.schema, source.rows, demand=demand)
        for step, (kernel, description, est, actual) in enumerate(conjunction.steps):
            slot = [description, est, 0 if actual is None else actual]
            estimates.append(slot)
            sink = partial(slot.__setitem__, 2) if actual is None else None
            # The scan hands the structure on: no relation of its own.
            stream = kernel(stream, stats, emitted=self._operator(sink, measured if step else None))
        result.join_orders.append(list(conjunction.order))
        result.reductions.append(list(conjunction.reductions))
        result.join_estimates.append(estimates)
        if conjunction.empty:
            return RowStream.empty(kept_schema, label=f"conjunction_{index}")
        position = len(result.conjunction_sizes) - 1
        return conjunction.last(stream, emitted=self._operator(
            partial(result.conjunction_sizes.__setitem__, position), measured
        ))

    def _finalized(self, stream: RowStream, result: CombinationResult, live=None) -> RowStream:
        """The outermost stage: append every chunk to ``result.tuples`` and
        finalise the size (and the pipeline's live peak) when the stream closes."""
        tuples = result.tuples.rows

        def chunks():
            try:
                for chunk in stream.chunks():
                    tuples.extend(chunk)
                    yield chunk
            finally:
                result.after_quantifiers_size = len(tuples)
                if live is not None:
                    result.peak_tuples = live.peak
            # Reached only on complete exhaustion (an early close raises
            # GeneratorExit inside the loop): ``tuples`` now holds the whole
            # result, so consumers may safely fall back to it.  A partially
            # drained stream leaves ``result.stream`` set — and consumed —
            # which the construction phase rejects loudly.
            result.stream = None

        return RowStream(result.tuples.schema, chunks=chunks(), label="free_tuples")
