"""The collection phase (Section 3.3, step 1 — plus Strategies 1, 2 and 4).

The collection phase "evaluates range expressions and single join terms.  The
results are single lists and indirect joins for all monadic and dyadic join
terms in the selection expression.  This phase performs data compression
(records to references) and data reduction (testing join terms)."

This implementation additionally hosts the three strategies that operate at
collection time:

* **Strategy 1 (parallel evaluation of subexpressions)** — when enabled, all
  work concerning one database relation (range evaluation, monadic terms,
  index entries, indirect-join probes, derived-predicate tests) is performed
  during a single scan of that relation; when disabled every structure is
  produced by its own scan, reproducing the unoptimised behaviour the paper
  contrasts against.
* **Strategy 2 (one-step evaluation of nested subexpressions)** — monadic
  join terms (and collection-phase quantifier results) over the probing
  variable restrict the construction of the indirect join for a dyadic term
  of the same conjunction, so no separate single list is materialised for
  them.
* **Strategy 4 (collection-phase quantifiers)** — the
  :class:`~repro.transform.quantifier_pushdown.DerivedPredicate` objects
  planned by the transformation pipeline are executed here: the inner
  relation is read once into a value list, and the predicate is then decided
  per element of the outer relation like a monadic join term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable

from repro.calculus.analysis import QuantifierSpec
from repro.calculus.ast import BoolConst, Comparison, FieldRef, RangeExpr
from repro.config import StrategyOptions
from repro.engine.access import (
    PROBE,
    SCAN,
    AccessPath,
    iter_access,
    select_access_path,
)
from repro.engine.naive import evaluate_formula
from repro.errors import EvaluationError, PascalRError
from repro.relational.index import HashIndex, SortedIndex, ValueList
from repro.relational.mvcc import version_token
from repro.relational.record import Record
from repro.relational.reference import Ref
from repro.relational.statistics import COLLECTION
from repro.transform.pipeline import QueryPlan
from repro.transform.quantifier_pushdown import DerivedPredicate
from repro.types.scalar import compare_values, swap_operator

__all__ = [
    "ExtendedRangeEmptyError",
    "ConjunctStructure",
    "CollectionResult",
    "DerivedEvaluator",
    "CollectionPhase",
]


class ExtendedRangeEmptyError(PascalRError):
    """An extended range expression (Strategy 3) turned out empty at runtime.

    The standard form is only equivalent to the original query under the
    assumption that (extended) range relations are non-empty; when the
    assumption fails the engine catches this signal and re-plans the query
    without Strategy 3 — the "information to adapt the standard form at
    runtime" the paper alludes to.
    """

    def __init__(self, variable: str, relation: str):
        self.variable = variable
        self.relation = relation
        super().__init__(
            f"extended range of variable {variable!r} over relation {relation!r} is empty"
        )


@dataclass
class ConjunctStructure:
    """One intermediate structure contributing to a conjunction.

    ``variables`` holds one name for a single list (or derived single list)
    and two names for an indirect join; ``rows`` holds reference tuples of the
    corresponding arity.
    """

    variables: tuple[str, ...]
    rows: set[tuple[Ref, ...]]
    description: str
    ids: list[tuple[int, ...]] | None = field(default=None, repr=False, compare=False)
    """``rows`` over dense reference ids, sorted — what the combination phase
    computes on.  Filled lazily by :meth:`CollectionResult.id_rows` and
    assigned in one step once complete, so concurrent executions sharing a
    memoized collection result see either nothing or the whole list."""

    @property
    def cardinality(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ReferenceIds:
    """A bijective renaming of one collection result's references to ints.

    Ids are dense per referenced relation and assigned in ``range_refs``
    order (scan order), so they — and everything the combination phase
    derives from them, row order included — are independent of
    ``PYTHONHASHSEED``, which the name-based :class:`Ref` hash is not.
    """

    ids: dict[str, dict[tuple, int]]
    """Per relation name: key value → id."""
    refs: dict[str, list[Ref]]
    """Per relation name: id → reference (the inverse, for the final decode)."""
    ranges: dict[str, list[tuple[int]]]
    """Per variable: its range as 1-tuples of ids, in ``range_refs`` order."""

    @classmethod
    def of(cls, range_refs: dict[str, list[Ref]]) -> "ReferenceIds":
        ids: dict[str, dict[tuple, int]] = {}
        inverse: dict[str, list[Ref]] = {}
        ranges: dict[str, list[tuple[int]]] = {}
        for var, refs in range_refs.items():
            if not refs:
                ranges[var] = []
                continue
            name = refs[0].relation.name
            table = ids.setdefault(name, {})
            known = inverse.setdefault(name, [])
            rows = ranges[var] = []
            for ref in refs:
                key = ref.key
                number = table.get(key)
                if number is None:
                    number = table[key] = len(known)
                    known.append(ref)
                rows.append((number,))
        return cls(ids, inverse, ranges)

    def encode(self, rows: Iterable[tuple[Ref, ...]]) -> list[tuple[int, ...]]:
        """Reference tuples as sorted id tuples (every reference is in range)."""
        rows = list(rows)
        if not rows:
            return []
        tables = [self.ids[ref.relation.name] for ref in rows[0]]
        if len(tables) == 2:  # indirect joins: the structures with many rows
            first, second = tables
            return sorted((first[a.key], second[b.key]) for a, b in rows)
        return sorted(
            tuple(table[ref.key] for table, ref in zip(tables, row)) for row in rows
        )


@dataclass
class CollectionResult:
    """Everything the combination phase needs."""

    range_refs: dict[str, list[Ref]]
    conjunctions: list[list[ConjunctStructure] | None]
    """Per conjunction: the structures to combine, or ``None`` when the
    conjunction contained a FALSE literal and was dropped."""
    scans_performed: int = 0
    structures_built: int = 0
    access_paths: dict[str, str] = field(default_factory=dict)
    """Per variable: a human-readable description of the chosen access path
    (scan or permanent-index probe)."""
    value_lists: list[tuple] = field(default_factory=list)
    """Per derived predicate ``(predicate, inner elements, versions)``: its
    Strategy 4 value list was reused from the database's memo at those relation
    versions, or (``None``) built by this collection from that many elements
    (``explain_value_lists`` renders it)."""
    _reference_ids: ReferenceIds | None = field(default=None, repr=False, compare=False)
    combination_plan: Any = field(default=None, repr=False, compare=False)
    """What the combination phase decided over these structures (its
    ``CombinationPlan``): reduced operands, join sequences, build sides.  A
    function of this result alone, so it is kept here, for as long as this
    result is; published complete by one assignment, like the tables below."""

    def reference_ids(self) -> ReferenceIds:
        """The intern tables of this result's references, built on first use.

        A memoized collection result keeps them (and the structures' ``ids``)
        across executions; racing first uses build equal tables — the
        construction is deterministic — and each publishes a complete one.
        """
        tables = self._reference_ids
        if tables is None:
            tables = self._reference_ids = ReferenceIds.of(self.range_refs)
        return tables

    def id_rows(self, structure: ConjunctStructure) -> list[tuple[int, ...]]:
        """``structure.rows`` over reference ids (encoded once, then cached)."""
        rows = structure.ids
        if rows is None:
            rows = structure.ids = self.reference_ids().encode(structure.rows)
        return rows


# --------------------------------------------------------------------- derived predicates


@dataclass
class _ConnectingSpec:
    """A connecting dyadic term, oriented from the outer variable's side."""

    outer_field: str
    operator: str
    inner_field: str


class DerivedEvaluator:
    """One executed Strategy 4 pushdown: value list + per-element decision.

    Built by reading the inner range of ``predicate`` from ``source`` once;
    what remains holds component values only — no reference, no source — and
    never changes again, so every execution that meets the same bound
    predicate over the same contents can share it (live or pinned: the
    source's ``value_lists`` memo).
    """

    def __init__(
        self,
        predicate: DerivedPredicate,
        source,
        evaluators: dict[DerivedPredicate, "DerivedEvaluator"],
        options: StrategyOptions,
    ) -> None:
        self.predicate = predicate
        self._specs = [self._orient(term) for term in predicate.connecting]
        self._single = len(self._specs) == 1
        self._value_list = ValueList() if self._single else None
        self._tuples: list[tuple] = []
        self._all_constraints_hold = True
        self._restricted_count = 0

        relation = source.relation(predicate.inner_range.relation)
        inner_tests = [evaluators[inner].matches for inner in predicate.inner_derived]
        # The inner (restricted) range is enumerated through the same
        # access-path selector as the collection phase proper, so a permanent
        # index on the restricted component turns the value-list build into
        # an index probe instead of a relation scan.
        path = select_access_path(source, predicate.inner_var, predicate.inner_range, options)
        for _, record in iter_access(source, path, predicate.inner_var):
            self._restricted_count += 1
            passes = all(
                evaluate_formula(term, {predicate.inner_var: record}, source)
                for term in predicate.inner_monadic
            ) and all(matches(record) for matches in inner_tests)
            if predicate.quantifier == "SOME":
                if not passes:
                    continue
                self._collect(record)
            else:
                if not passes:
                    self._all_constraints_hold = False
                self._collect(record)

        if (
            self._restricted_count == 0
            and predicate.inner_range.restriction is not None
            and len(relation) > 0
        ):
            raise ExtendedRangeEmptyError(predicate.inner_var, relation.name)

    def _orient(self, term: Comparison) -> _ConnectingSpec:
        left, right = term.left, term.right
        if isinstance(left, FieldRef) and left.var == self.predicate.outer_var:
            assert isinstance(right, FieldRef)
            return _ConnectingSpec(left.field, term.op, right.field)
        assert isinstance(left, FieldRef) and isinstance(right, FieldRef)
        return _ConnectingSpec(right.field, swap_operator(term.op), left.field)

    def _collect(self, record: Record) -> None:
        if self._single:
            self._value_list.add(record[self._specs[0].inner_field])
        else:
            self._tuples.append(tuple(record[spec.inner_field] for spec in self._specs))

    # -- inspection -----------------------------------------------------------------

    def stored_size(self) -> int:
        """How many values the paper's technique would actually retain.

        The min/max and at-most-one-value shortcuts of Section 4.4 reduce the
        stored value list to a single value.
        """
        if self.predicate.shortcut() in ("minmax", "single-value"):
            return min(1, self._collected_size())
        return self._collected_size()

    def _collected_size(self) -> int:
        if self._single:
            return len(self._value_list)
        return len(self._tuples)

    @property
    def restricted_count(self) -> int:
        """Number of inner elements in the (restricted) range."""
        return self._restricted_count

    # -- per-element decision -----------------------------------------------------------

    def matches(self, outer_record: Record) -> bool:
        """Whether the quantified sub-formula holds for ``outer_record``."""
        if self.predicate.quantifier == "SOME":
            return self._matches_some(outer_record)
        return self._matches_all(outer_record)

    def _matches_some(self, outer_record: Record) -> bool:
        if self._single:
            spec = self._specs[0]
            return self._value_list.satisfies_some(spec.operator, outer_record[spec.outer_field])
        outer_values = [outer_record[spec.outer_field] for spec in self._specs]
        for inner_values in self._tuples:
            if all(
                compare_values(spec.operator, outer_value, inner_value)
                for spec, outer_value, inner_value in zip(self._specs, outer_values, inner_values)
            ):
                return True
        return False

    def _matches_all(self, outer_record: Record) -> bool:
        if self._restricted_count == 0:
            return True
        if not self._all_constraints_hold:
            return False
        if self._single:
            spec = self._specs[0]
            return self._value_list.satisfies_all(spec.operator, outer_record[spec.outer_field])
        outer_values = [outer_record[spec.outer_field] for spec in self._specs]
        for inner_values in self._tuples:
            if not all(
                compare_values(spec.operator, outer_value, inner_value)
                for spec, outer_value, inner_value in zip(self._specs, outer_values, inner_values)
            ):
                return False
        return True


# ----------------------------------------------------------------------- structure specs


@dataclass(frozen=True)
class _IndirectJoinSpec:
    """Plan for one indirect join: a dyadic term with an orientation and folds."""

    term: Comparison
    build_var: str
    probe_var: str
    folds: tuple[object, ...]  # monadic comparisons and derived predicates over probe_var

    @property
    def build_field(self) -> str:
        return self.term.operand_for(self.build_var).field

    @property
    def probe_field(self) -> str:
        return self.term.operand_for(self.probe_var).field

    def probe_operator(self) -> str:
        """Operator for probing the index: ``index component <op> probe value``."""
        left = self.term.left
        if isinstance(left, FieldRef) and left.var == self.build_var:
            return self.term.op
        return swap_operator(self.term.op)


@dataclass
class _ConjunctionNeeds:
    """What one conjunction requires from the collection phase."""

    dropped: bool = False
    indirect_joins: list[_IndirectJoinSpec] = field(default_factory=list)
    single_terms: list[Comparison] = field(default_factory=list)
    derived_literals: list[DerivedPredicate] = field(default_factory=list)


class CollectionPhase:
    """Executes the collection phase for a prepared query."""

    def __init__(self, prepared: QueryPlan, database, options: StrategyOptions) -> None:
        self.prepared = prepared
        self.database = database
        self.options = options
        self.statistics = database.statistics
        self._var_range: dict[str, RangeExpr] = {
            var: prepared.range_of(var) for var in prepared.variables
        }
        self._var_relation: dict[str, str] = {
            var: range_expr.relation for var, range_expr in self._var_range.items()
        }
        # Innermost quantified variables first, free variables last — the scan
        # order of Example 4.3 (timetable, courses, papers, employees).
        ordered_vars = list(reversed(prepared.variables))
        self._scan_order: list[str] = []
        for var in ordered_vars:
            relation = self._var_relation[var]
            if relation not in self._scan_order:
                self._scan_order.append(relation)
        # Access-path selection per variable.  The decision reads only the
        # catalog (indexes, cardinalities) and the plan structure, so it is
        # identical for every execution of a cached plan; the probe *value*
        # comes from the (late-bound) constant in the plan's restriction.
        self._access: dict[str, AccessPath] = {
            var: select_access_path(database, var, self._var_range[var], options)
            for var in prepared.variables
        }
        if options.parallel_collection:
            self._demote_probes_riding_shared_scans()

    def _demote_probes_riding_shared_scans(self) -> None:
        """Drop a probe when its relation is shared-scanned for another variable.

        Under Strategy 1, a relation with any scan-path variable is read in
        full regardless, so a sibling variable's index probe would only *add*
        cost (probe + per-reference fetches) on top of the scan that already
        passes every element by.  Riding the shared scan is free: demote the
        probe to a scan path (the full restriction is evaluated per element,
        exactly as for any scan variable).
        """
        vars_by_relation: dict[str, list[str]] = {}
        for var in self.prepared.variables:
            vars_by_relation.setdefault(self._var_relation[var], []).append(var)
        for relation_name, variables in vars_by_relation.items():
            kinds = {self._access[var].kind for var in variables}
            if PROBE not in kinds or kinds == {PROBE}:
                continue
            for var in variables:
                path = self._access[var]
                if path.kind == PROBE:
                    self._access[var] = AccessPath(
                        var,
                        relation_name,
                        SCAN,
                        restriction=path.restriction,
                        scan_cost=path.scan_cost,
                        note="shared scan already required",
                    )

    # -- public API ------------------------------------------------------------------

    def run(self) -> CollectionResult:
        """Execute the collection phase and return its intermediate structures."""
        with self.statistics.phase(COLLECTION):
            scans_before = self.statistics.total_scans()
            evaluators, value_lists = self._build_derived_evaluators()
            needs = self._analyze_conjunctions()
            result = self._execute(needs, evaluators)
            result.scans_performed = self.statistics.total_scans() - scans_before
            result.access_paths = self.access_paths()
            result.value_lists = value_lists
            return result

    def access_paths(self) -> dict[str, str]:
        """Human-readable access-path decision per variable (for EXPLAIN)."""
        return {var: path.describe() for var, path in self._access.items()}

    # -- derived predicates (Strategy 4 execution) ------------------------------------------

    def _build_derived_evaluators(
        self,
    ) -> tuple[dict[DerivedPredicate, DerivedEvaluator], list[tuple]]:
        """Every derived predicate's evaluator, and a note on where it came from.

        The source's memo answers when it holds one built over the contents
        this execution reads (the value list rule of ``relational/mvcc.py``).
        A build that raises publishes nothing, so the Strategy 3 fallback
        fires on every execution; a statement pin reads a matching entry
        but never publishes its uncommitted contents.  A hit charges this
        execution what the build would have retained, and no scan.
        """
        source = self.database
        memo = source.value_lists
        evaluators: dict[DerivedPredicate, DerivedEvaluator] = {}
        notes: list[tuple] = []
        for predicate in self.prepared.derived_predicates():
            names = predicate.relations_read()
            token = version_token(source, names)
            evaluator = memo.get(predicate, token)
            reused = evaluator is not None
            if not reused:
                evaluator = DerivedEvaluator(predicate, source, evaluators, self.options)
                if not source.in_transaction:
                    memo.publish(predicate, token, evaluator)
            self.statistics.record_value_list(reused)
            self.statistics.record_intermediate(evaluator.stored_size())
            versions = dict(zip(names, token[1:])) if reused else None
            notes.append((predicate, evaluator.restricted_count, versions))
            evaluators[predicate] = evaluator
        return evaluators, notes

    # -- conjunction analysis ----------------------------------------------------------------

    def _analyze_conjunctions(self) -> list[_ConjunctionNeeds]:
        needs = []
        for conjunction in self.prepared.conjunctions:
            needs.append(self._analyze_conjunction(conjunction))
        return needs

    def _analyze_conjunction(self, conjunction: tuple) -> _ConjunctionNeeds:
        needs = _ConjunctionNeeds()
        monadic: list[Comparison] = []
        dyadic: list[Comparison] = []
        derived: list[DerivedPredicate] = []
        for literal in conjunction:
            if isinstance(literal, BoolConst):
                if not literal.value:
                    needs.dropped = True
                    return needs
                continue
            if isinstance(literal, Comparison):
                if literal.is_dyadic():
                    dyadic.append(literal)
                else:
                    monadic.append(literal)
                continue
            if isinstance(literal, DerivedPredicate):
                derived.append(literal)
                continue
            raise EvaluationError(f"unknown literal {literal!r} in prepared conjunction")

        covered: set[object] = set()
        for term in dyadic:
            build_var, probe_var = self._orient_term(term)
            folds: list[object] = []
            if self.options.one_step_nested:
                folds = [m for m in monadic if m.mentions(probe_var)] + [
                    d for d in derived if d.outer_var == probe_var
                ]
                covered.update(folds)
            needs.indirect_joins.append(
                _IndirectJoinSpec(term, build_var, probe_var, tuple(folds))
            )
        needs.single_terms = [m for m in monadic if m not in covered]
        needs.derived_literals = [d for d in derived if d not in covered]
        return needs

    def _orient_term(self, term: Comparison) -> tuple[str, str]:
        """Return ``(build_var, probe_var)``: the earlier-scanned relation builds the index."""
        first, second = term.variables()
        first_position = self._scan_order.index(self._var_relation[first])
        second_position = self._scan_order.index(self._var_relation[second])
        if first_position <= second_position:
            return first, second
        return second, first

    # -- execution ------------------------------------------------------------------------------

    def _execute(
        self,
        needs: list[_ConjunctionNeeds],
        evaluators: dict[DerivedPredicate, DerivedEvaluator],
    ) -> CollectionResult:
        # Deduplicated work catalogues.
        single_terms: dict[Comparison, set[tuple[Ref, ...]]] = {}
        derived_singles: dict[DerivedPredicate, set[tuple[Ref, ...]]] = {}
        indirect_joins: dict[tuple, set[tuple[Ref, ...]]] = {}
        ij_specs: dict[tuple, _IndirectJoinSpec] = {}
        for conjunction_needs in needs:
            if conjunction_needs.dropped:
                continue
            for term in conjunction_needs.single_terms:
                single_terms.setdefault(term, set())
            for predicate in conjunction_needs.derived_literals:
                derived_singles.setdefault(predicate, set())
            for spec in conjunction_needs.indirect_joins:
                key = (spec.term, spec.build_var, spec.probe_var, spec.folds)
                indirect_joins.setdefault(key, set())
                ij_specs[key] = spec

        range_refs: dict[str, list[Ref]] = {var: [] for var in self.prepared.variables}

        if self.options.parallel_collection:
            self._execute_parallel(
                range_refs, single_terms, derived_singles, indirect_joins, ij_specs, evaluators
            )
        else:
            self._execute_sequential(
                range_refs, single_terms, derived_singles, indirect_joins, ij_specs, evaluators
            )

        self._check_extended_ranges(range_refs)
        structures_built = self._record_structures(single_terms, derived_singles, indirect_joins)

        conjunction_structures: list[list[ConjunctStructure] | None] = []
        for conjunction_needs in needs:
            if conjunction_needs.dropped:
                conjunction_structures.append(None)
                continue
            structures: list[ConjunctStructure] = []
            for term in conjunction_needs.single_terms:
                var = term.variables()[0]
                structures.append(
                    ConjunctStructure((var,), single_terms[term], f"single list {term!r}")
                )
            for predicate in conjunction_needs.derived_literals:
                structures.append(
                    ConjunctStructure(
                        (predicate.outer_var,),
                        derived_singles[predicate],
                        f"derived single list {predicate.describe()}",
                    )
                )
            for spec in conjunction_needs.indirect_joins:
                key = (spec.term, spec.build_var, spec.probe_var, spec.folds)
                structures.append(
                    ConjunctStructure(
                        (spec.build_var, spec.probe_var),
                        indirect_joins[key],
                        f"indirect join {spec.term!r}",
                    )
                )
            conjunction_structures.append(structures)

        return CollectionResult(
            range_refs=range_refs,
            conjunctions=conjunction_structures,
            structures_built=structures_built,
        )

    # -- strategy 1: one scan per relation --------------------------------------------------------

    def _execute_parallel(
        self,
        range_refs: dict[str, list[Ref]],
        single_terms: dict[Comparison, set],
        derived_singles: dict[DerivedPredicate, set],
        indirect_joins: dict[tuple, set],
        ij_specs: dict[tuple, _IndirectJoinSpec],
        evaluators: dict[DerivedPredicate, DerivedEvaluator],
    ) -> None:
        indexes: dict[tuple, HashIndex | SortedIndex] = {}
        # Work assignment per variable.
        builds_for_var: dict[str, list[tuple]] = {var: [] for var in range_refs}
        probes_for_var: dict[str, list[tuple]] = {var: [] for var in range_refs}
        for key, spec in ij_specs.items():
            permanent = self._permanent_index(spec)
            if permanent is not None:
                indexes[key] = permanent
            else:
                builds_for_var[spec.build_var].append(key)
            probes_for_var[spec.probe_var].append(key)

        def server(var: str, relation_name: str, deferred_probes: list):
            """All per-element work for an in-range element of ``var``.

            What is fixed per variable is resolved here, once: the catalogues
            are keyed on AST nodes, and hashing one walks it.
            """
            in_range = range_refs[var].append
            singles = [
                (partial(self._term_holds, term, var), rows.add)
                for term, rows in single_terms.items()
                if term.variables()[0] == var
            ] + [
                (evaluators[predicate].matches, rows.add)
                for predicate, rows in derived_singles.items()
                if predicate.outer_var == var
            ]
            builds = [
                (ij_specs[key].build_field, indexes[key].add_ref) for key in builds_for_var[var]
            ]
            # Self-join probes wait until the whole relation pass (shared
            # scan plus probe-path enumerations) has filled the index.
            probes = [
                (
                    self._fold_tests(ij_specs[key], evaluators),
                    self._prober(ij_specs[key], indexes[key], indirect_joins[key]),
                    self._var_relation[ij_specs[key].build_var] == relation_name,
                )
                for key in probes_for_var[var]
            ]

            def serve(ref: Ref, record: Record) -> None:
                in_range(ref)
                for holds, add in singles:
                    if holds(record):
                        add((ref,))
                for build_field, add_ref in builds:
                    add_ref(record[build_field], ref)
                for folds, probe, deferred in probes:
                    if all(test(record) for test in folds):
                        if deferred:
                            deferred_probes.append((probe, ref, record))
                        else:
                            probe(ref, record)

            return serve

        for relation_name in self._scan_order:
            relation = self.database.relation(relation_name)
            variables_here = [
                var for var in self.prepared.variables
                if self._var_relation[var] == relation_name
            ]
            # Create the indexes this relation must fill.
            for var in variables_here:
                for key in builds_for_var[var]:
                    if key not in indexes:
                        indexes[key] = self._make_index(ij_specs[key])
            deferred_probes: list[tuple] = []
            serve = {var: server(var, relation_name, deferred_probes) for var in variables_here}

            # Variables answered by a permanent-index probe leave the shared
            # scan: their (exact) in-range elements are enumerated from index
            # references instead, so a relation all of whose variables probe
            # is not scanned at all.
            probe_vars = [v for v in variables_here if self._access[v].kind == PROBE]
            scan_vars = [v for v in variables_here if self._access[v].kind != PROBE]

            if scan_vars:
                for record in relation.scan():
                    ref = relation.ref_of(record)
                    for var in scan_vars:
                        if self._in_range(var, record):
                            serve[var](ref, record)
            for var in probe_vars:
                for ref, record in iter_access(self.database, self._access[var], var):
                    serve[var](ref, record)
            for probe, ref, record in deferred_probes:
                probe(ref, record)

    # -- no strategy 1: one scan per structure ---------------------------------------------------------

    def _execute_sequential(
        self,
        range_refs: dict[str, list[Ref]],
        single_terms: dict[Comparison, set],
        derived_singles: dict[DerivedPredicate, set],
        indirect_joins: dict[tuple, set],
        ij_specs: dict[tuple, _IndirectJoinSpec],
        evaluators: dict[DerivedPredicate, DerivedEvaluator],
    ) -> None:
        # Range expressions: one range enumeration (scan or probe) per variable.
        for var in range_refs:
            for ref, _ in self._iter_var(var):
                range_refs[var].append(ref)

        # Single lists: one range enumeration per monadic term.
        for term, rows in single_terms.items():
            var = term.variables()[0]
            for ref, record in self._iter_var(var):
                if self._term_holds(term, var, record):
                    rows.add((ref,))

        # Derived single lists: one range enumeration per literal predicate.
        for predicate, rows in derived_singles.items():
            matches = evaluators[predicate].matches
            for ref, record in self._iter_var(predicate.outer_var):
                if matches(record):
                    rows.add((ref,))

        # Indirect joins: one pass to build the index, one pass to probe it.
        # The index-building scan is skipped when a permanent index applies
        # ("The first step can be omitted, if permanent indexes exist").
        for key, spec in ij_specs.items():
            index = self._permanent_index(spec)
            if index is None:
                index = self._make_index(spec)
                for ref, record in self._iter_var(spec.build_var):
                    index.add_ref(record[spec.build_field], ref)
            folds = self._fold_tests(spec, evaluators)
            probe = self._prober(spec, index, indirect_joins[key])
            for ref, record in self._iter_var(spec.probe_var):
                if all(test(record) for test in folds):
                    probe(ref, record)

    # -- shared helpers --------------------------------------------------------------------------------

    def _iter_var(self, var: str):
        """Enumerate the in-range ``(ref, record)`` pairs of one variable.

        Routed through the variable's selected access path: an index probe
        or the classic scan-and-filter — each call is one enumeration (one
        scan for the scan path), preserving the per-structure access
        accounting of the unoptimised engine.
        """
        return iter_access(self.database, self._access[var], var)

    def _permanent_index(self, spec: _IndirectJoinSpec) -> HashIndex | SortedIndex | None:
        """A usable permanent index for the build side of ``spec``, if any.

        A permanent index covers the whole relation, so it can only replace
        the collection-phase index build when the build variable's range is
        not restricted.  Either organisation answers every operator (a hash
        index answers range probes linearly).  On a pinned snapshot this is
        the view its pins share per contents version, so a cold collection
        pays for at most one build per version, not one per execution.
        """
        if not self.options.use_index_paths:
            return None
        if self._var_range[spec.build_var].restriction is not None:
            return None
        return self.database.index_for(self._var_relation[spec.build_var], spec.build_field)

    def _make_index(self, spec: _IndirectJoinSpec) -> HashIndex | SortedIndex:
        relation = self.database.relation(self._var_relation[spec.build_var])
        if spec.probe_operator() in ("=", "<>"):
            return HashIndex(relation, spec.build_field, tracker=self.statistics)
        return SortedIndex(relation, spec.build_field, tracker=self.statistics)

    def _in_range(self, var: str, record: Record) -> bool:
        restriction = self._var_range[var].restriction
        if restriction is None:
            return True
        return evaluate_formula(restriction, {var: record}, self.database)

    def _term_holds(self, term: Comparison, var: str, record: Record) -> bool:
        self.statistics.record_comparison()
        return evaluate_formula(term, {var: record}, self.database)

    def _fold_tests(
        self, spec: _IndirectJoinSpec, evaluators: dict[DerivedPredicate, DerivedEvaluator]
    ) -> list:
        """Strategy 2's folded tests on the probing variable, each ``record -> bool``."""
        return [
            partial(self._term_holds, fold, spec.probe_var)
            if isinstance(fold, Comparison)
            else evaluators[fold].matches
            for fold in spec.folds
        ]

    @staticmethod
    def _prober(spec: _IndirectJoinSpec, index: HashIndex | SortedIndex, rows: set):
        """``(probe_ref, record)`` -> ``rows`` gains the record's partners in ``index``."""
        operator, probe_field = spec.probe_operator(), spec.probe_field
        partners, add = index.probe_operator, rows.add

        def probe(probe_ref: Ref, record: Record) -> None:
            for partner_ref in partners(operator, record[probe_field]):
                add((partner_ref, probe_ref))

        return probe

    def _check_extended_ranges(self, range_refs: dict[str, list[Ref]]) -> None:
        for var, refs in range_refs.items():
            range_expr = self._var_range[var]
            if refs or range_expr.restriction is None:
                continue
            relation = self.database.relation(range_expr.relation)
            if len(relation) > 0:
                raise ExtendedRangeEmptyError(var, relation.name)

    def _record_structures(
        self,
        single_terms: dict[Comparison, set],
        derived_singles: dict[DerivedPredicate, set],
        indirect_joins: dict[tuple, set],
    ) -> int:
        built = 0
        for rows in list(single_terms.values()) + list(derived_singles.values()) + list(
            indirect_joins.values()
        ):
            self.statistics.record_intermediate(len(rows))
            built += 1
        return built
