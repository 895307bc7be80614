"""Sharded parallel execution of the combination phase.

The collection phase compresses records into references and reduces them
with join-term tests; what remains combinatorially expensive is the
combination phase's n-tuple building.  This module runs that phase
*horizontally sharded*: the conjunct structures mentioning a chosen free
variable are hash-partitioned on that variable's reference column, the
remaining structures are semijoin-reduced per shard — the Bernstein & Chiu
full reducer of PR 1 promoted to a *cross-shard* reducer, so only projected
join-column values are "shipped" between shards — and the per-shard
pipelines are evaluated in parallel through :mod:`concurrent.futures`.

Why the merge is a plain concatenation
--------------------------------------

The shard variable is free, so its reference column survives every
quantifier elimination (SOME projections only drop quantified columns, ALL
division groups by the remaining — free — columns).  Every output row
therefore carries exactly one shard-variable reference, and the partition
function assigns that reference to exactly one shard: shard outputs are
provably disjoint.  Union across shards needs no dedup state, per-shard
SOME projection is exact (two witnesses of the same output row always hash
to the same shard), and per-shard ALL division is exact because each
group's dividend rows are co-located (the divisor range is broadcast in
full).

The shard kernel
----------------

Per-shard evaluation runs through :func:`evaluate_shard`, a module-level
function over *pure tuples*: structures arrive as plain tuples with
references encoded ``(relation_name, key)``, so the same payload serves the
thread backend and a :class:`~concurrent.futures.ProcessPoolExecutor` (live
:class:`~repro.relational.relation.Relation` objects hold locks and
observers and do not cross process boundaries).  It has no join, estimate or
quantifier code of its own: the ``stream_*`` kernels of
:mod:`repro.relational.algebra` and the join-order policy of
:mod:`repro.engine.combination` never look inside a value, so the fragment
runs through the same operators the default path runs over dense reference
ids.  The sequence is the literal Section 3.3 one — join the structures,
extend with the ranges of unmentioned variables, union the conjunctions,
eliminate quantifiers right to left — and deterministic work counters come
back next to the rows, which is what the sharded-join benchmark's *modeled*
speedup is computed from.

Sharding is **opt-in** (``StrategyOptions.sharded_execution`` defaults to
off): thread and serial shards share one GIL, every query pays executor
start-up, and ``stable_hash`` partitioning plus reference encoding cost more
than the whole unsharded combination phase — measured, it loses on the clock
at every scale tried (see DESIGN.md, "Sharded execution").

Statistics are tracked per shard in private
:class:`~repro.relational.statistics.AccessStatistics` objects and merged
into the shared tracker through its lock (the PR-7 discipline), so parallel
workers never race the live counters.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.engine.combination import CombinationResult, OperatorNote, pick_next
from repro.engine.stream import Rows, RowStream
from repro.relational.algebra import stream_divide, stream_natural_join, stream_project
from repro.relational.partition import (
    PartitionSpec,
    approx_bytes,
    relation_bytes,
    shard_of_value,
)
from repro.relational.record import Record
from repro.relational.reference import Ref
from repro.relational.refrelation import ReferenceType
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import sort_key
from repro.types.schema import Field, RelationSchema

logger = logging.getLogger(__name__)

__all__ = [
    "ShardNote",
    "ShardExecutionReport",
    "ShardedCombination",
    "evaluate_shard",
    "resolve_backend",
]

#: Environment override consulted by the ``"auto"`` backend (the CI
#: parallel-execution job sets it to ``process``).
BACKEND_ENV = "REPRO_SHARD_BACKEND"

_BACKENDS = ("serial", "thread", "process")


def resolve_backend(options) -> str:
    """The executor backend the configured options resolve to."""
    backend = options.shard_backend
    if backend == "auto":
        backend = os.environ.get(BACKEND_ENV, "thread")
    if backend not in _BACKENDS:
        backend = "thread"
    return backend


# ===================================================================== reporting


@dataclass
class ShardNote:
    """One shard's execution facts, for EXPLAIN ANALYZE."""

    index: int
    pruned: bool = False
    rows_in: int = 0
    """Partitioned + reduced-broadcast structure rows handed to the kernel."""
    rows_out: int = 0
    """Free-variable tuples the shard produced (disjoint across shards)."""
    work: int = 0
    """Deterministic kernel work units (join probes + matches + quantifier rows)."""
    shipped_bytes: int = 0
    """Reducer bytes shipped to/from this shard (projections + reduced rows)."""


@dataclass
class ShardExecutionReport:
    """Per-shard paths and reducer sizes, attached to :class:`CombinationResult`."""

    variable: str
    spec: str
    backend: str
    workers: int
    shards: list[ShardNote] = field(default_factory=list)
    shipped_bytes: int = 0
    naive_ship_bytes: int = 0
    """What broadcasting every referenced relation to every shard would cost."""
    reducer_rounds: int = 0

    @property
    def scanned(self) -> int:
        return sum(1 for note in self.shards if not note.pruned)

    @property
    def pruned(self) -> int:
        return sum(1 for note in self.shards if note.pruned)

    @property
    def max_shard_work(self) -> int:
        return max((note.work for note in self.shards if not note.pruned), default=0)

    @property
    def total_work(self) -> int:
        return sum(note.work for note in self.shards)

    def describe(self) -> list[str]:
        lines = [
            f"sharded execution: {self.spec} via {self.backend} backend "
            f"({self.workers} workers)",
            f"  shards scanned {self.scanned}, pruned {self.pruned}; "
            f"reducer rounds {self.reducer_rounds}; "
            f"bytes shipped {self.shipped_bytes} "
            f"(naive full-relation shipping {self.naive_ship_bytes})",
        ]
        for note in self.shards:
            if note.pruned:
                lines.append(f"  shard {note.index}: pruned — partition metadata refutes it")
            else:
                lines.append(
                    f"  shard {note.index}: {note.rows_in} structure rows in, "
                    f"{note.rows_out} tuples out, work={note.work}, "
                    f"shipped {note.shipped_bytes} B"
                )
        return lines


# ===================================================================== the kernel


#: Kernel operands are untyped: one reference-valued component per variable.
_REFERENCE = ReferenceType()


def _schema(variables, name: str = "matrix") -> RelationSchema:
    return RelationSchema(name, [Field(var, _REFERENCE) for var in variables], key=None)


def _operand(variables, rows, name: str) -> Rows:
    return Rows(_schema(variables, name), rows, name)


def _joined(current: Rows, operand: Rows, tracker: AccessStatistics) -> Rows:
    stream = stream_natural_join(
        RowStream(current.schema, current.rows), operand, tracker=tracker
    )
    return Rows(stream.schema, set(stream), current.name)


def _combine_kernel_conjunction(conj, variables, ranges, ordered, tracker, use_sketches):
    """One conjunction's n-tuple rows over *all* variables (canonical order).

    Returns ``(order, estimates, rows, peak)`` where ``estimates`` mirrors
    the combination phase's ``join_estimates`` entries: one mutable
    ``[description, estimated rows, actual rows]`` triple per join step
    (``None`` estimates when ``join_ordering`` is off — no cost model ran).
    """
    pending = [_operand(e["vars"], e["rows"], e["desc"]) for e in conj["structures"]]
    order: list[tuple[str, int]] = []
    estimates: list[list] = []
    peak = 0
    if pending:
        start = min(range(len(pending)), key=lambda i: len(pending[i])) if ordered else 0
        entry = pending.pop(start)
        current = Rows(entry.schema, set(entry.rows), entry.name)
        order.append((entry.name, len(current)))
        estimates.append([entry.name, float(len(current)) if ordered else None, len(current)])
        while pending:
            # A fresh summary cache per pick: ``current`` is a new operand
            # after every join, and summaries are keyed by operand identity.
            pick, est = pick_next(
                current, float(len(current)), set(current.schema.field_names),
                pending, {}, ordered, use_sketches,
            )
            entry = pending.pop(pick)
            order.append((entry.name, len(entry)))
            current = _joined(current, entry, tracker)
            peak = max(peak, len(current))
            estimates.append([entry.name, est, len(current)])
    else:
        # TRUE conjunction: enumerate the first variable's range.
        first = variables[0]
        current = _operand([first], {(ref,) for ref in ranges[first]}, f"range of {first}")
        order.append((current.name, len(current)))
        estimates.append([current.name, float(len(current)), len(current)])
    for var in variables:
        if var in current.schema:
            continue
        extension = _operand([var], [(ref,) for ref in ranges[var]], f"range of {var}")
        order.append((extension.name, len(extension)))
        expected = float(len(current)) * len(extension)
        current = _joined(current, extension, tracker)
        peak = max(peak, len(current))
        estimates.append([extension.name, expected, len(current)])
    canonical = set(stream_project(RowStream(current.schema, current.rows), variables))
    return order, estimates, canonical, peak


def evaluate_shard(payload: dict) -> dict:
    """Evaluate one shard's combination phase over encoded reference tuples.

    ``payload`` is pure picklable data (strings, ints and tuples — references
    encoded ``(relation_name, key)``), so this function runs identically on
    the calling thread, a thread-pool worker, or a process-pool worker.  The
    returned rows are sorted, making the merged result order independent of
    worker scheduling *and* of ``PYTHONHASHSEED``.
    """
    variables = list(payload["variables"])
    ranges = payload["ranges"]
    ordered = payload["join_ordering"]
    use_sketches = payload.get("histogram_statistics", False)
    tracker = AccessStatistics()  # private: join probes/matches, division checks
    work = 0  # rows produced by the non-comparing steps (projections)
    peak = 0
    matrix: set[tuple] = set()
    conjunction_sizes: list[int] = []
    join_orders: list[list[tuple[str, int]]] = []
    join_estimates: list[list[list]] = []
    for conj in payload["conjunctions"]:
        order, estimates, canonical, conj_peak = _combine_kernel_conjunction(
            conj, variables, ranges, ordered, tracker, use_sketches
        )
        join_orders.append(order)
        join_estimates.append(estimates)
        conjunction_sizes.append(len(canonical))
        work += len(canonical)
        matrix |= canonical
        peak = max(peak, conj_peak, len(matrix))
    union_size = len(matrix)

    # Quantifier elimination, right to left (Section 3.3 step 3).  The shard
    # variable is free, so it is never eliminated — which is what keeps the
    # per-shard eliminations exact (see the module docstring).
    columns = list(variables)
    for kind, var in reversed(payload["prefix"]):
        stream = RowStream(_schema(columns), matrix)
        columns.remove(var)
        if kind == "SOME":
            matrix = set(stream_project(stream, columns))
            work += len(matrix)
        else:  # ALL: divide by the (broadcast, full) range of the variable
            divisor = _operand([var], [(ref,) for ref in ranges[var]], f"range of {var}")
            matrix = set(stream_divide(stream, divisor, by=[(var, var)], tracker=tracker))
        peak = max(peak, len(matrix))

    out = set(stream_project(RowStream(_schema(columns), matrix), payload["free"]))
    return {
        "rows": sorted(out),
        "conjunction_sizes": conjunction_sizes,
        "join_orders": join_orders,
        "join_estimates": join_estimates,
        "union_size": union_size,
        "comparisons": tracker.comparisons,
        "work": tracker.comparisons + work,
        "peak": peak,
    }


# ================================================================ the orchestrator


def _encode_ref(ref: Ref) -> tuple:
    return (ref.relation.name, ref.key)


def _wire_bytes(rows) -> int:
    """Ship cost of encoded reference rows (projections or reduced structures).

    Only the reference *keys* travel (plus 2 framing bytes per row): which
    relation a column references is schema metadata, shipped once with the
    plan, not repeated per row.  References are the collection phase's
    compressed currency — this is exactly why semijoin shipping beats
    broadcasting the referenced relations.
    """
    total = 0
    for row in rows:
        total += 2
        for _name, key in row:
            total += approx_bytes(key)
    return total


class ShardedCombination:
    """Partition, reduce, dispatch and merge one combination phase."""

    def __init__(self, phase) -> None:
        self.phase = phase
        self.prepared = phase.prepared
        self.database = phase.database
        self.collection = phase.collection
        self.options = phase.options
        self.statistics = phase.statistics

    # -- gating ----------------------------------------------------------------

    @staticmethod
    def shard_variable(prepared, collection) -> str | None:
        """The free variable carrying the most structure rows, or ``None``.

        ``None`` (no structure mentions a free variable) means partitioning
        could only broadcast — the classic path is strictly better.
        """
        scores = {binding.var: 0 for binding in prepared.bindings}
        for structures in collection.conjunctions:
            if structures is None:
                continue
            for structure in structures:
                for var in structure.variables:
                    if var in scores:
                        scores[var] += structure.cardinality
        best: str | None = None
        for binding in prepared.bindings:  # binding order breaks ties
            score = scores[binding.var]
            if score > 0 and (best is None or score > scores[best]):
                best = binding.var
        return best

    @classmethod
    def applicable(cls, phase) -> bool:
        """Whether the sharded path should run for this combination phase."""
        options = phase.options
        if not options.sharded_execution or options.shard_count < 2:
            return False
        if not phase.prepared.bindings:
            return False
        largest = 0
        any_conjunction = False
        for structures in phase.collection.conjunctions:
            if structures is None:
                continue
            any_conjunction = True
            for structure in structures:
                if structure.cardinality > largest:
                    largest = structure.cardinality
        if not any_conjunction or largest < options.shard_min_rows:
            return False
        return cls.shard_variable(phase.prepared, phase.collection) is not None

    # -- the run ---------------------------------------------------------------

    def run(self) -> CombinationResult:
        prepared = self.prepared
        options = self.options
        variables = list(prepared.variables)
        shard_var = self.shard_variable(prepared, self.collection)
        assert shard_var is not None  # guaranteed by applicable()
        shard_count = options.shard_count
        backend = resolve_backend(options)
        workers = options.shard_workers or shard_count

        result = CombinationResult(tuples=self.phase._empty_tuple_relation())
        report = ShardExecutionReport(
            variable=shard_var,
            spec=f"hash({shard_var}_ref) % {shard_count}",
            backend=backend,
            workers=workers,
            shards=[ShardNote(index=s) for s in range(shard_count)],
        )
        result.shard_report = report
        notes = result.operator_notes

        # ---- partition ------------------------------------------------------
        # Shard-local ranges of the shard variable; full ranges of the rest.
        # The layout (hash vs range) is chosen *before* any row is assigned:
        # when the shard column's frequency distribution predicts skewed hash
        # loads, frequency-weighted range bounds spread the heavy keys instead.
        range_rows = {
            var: [_encode_ref(ref) for ref in refs]
            for var, refs in self.collection.range_refs.items()
        }
        spec = self._partition_layout(shard_var, shard_count, range_rows[shard_var])
        if spec.method == "hash":
            report.spec = f"hash({shard_var}_ref) % {shard_count}"
        else:
            report.spec = (
                f"range({shard_var}_ref) @ {list(spec.bounds)!r} "
                f"({shard_count} shards)"
            )
        assign = spec.shard_of
        shard_ranges: list[list[tuple]] = [[] for _ in range(shard_count)]
        for encoded in range_rows[shard_var]:
            shard_ranges[assign(encoded[1])].append(encoded)

        conjunction_plans: list[dict] = []
        referenced_broadcast_relations: set[str] = set()
        for index, structures in enumerate(self.collection.conjunctions):
            if structures is None:
                continue
            partitioned: list[dict] = []
            broadcast: list[dict] = []
            for structure in structures:
                rows = [
                    tuple(_encode_ref(ref) for ref in row) for row in structure.rows
                ]
                entry = {
                    "vars": tuple(structure.variables),
                    "desc": structure.description,
                    "rows": rows,
                }
                if shard_var in structure.variables:
                    position = structure.variables.index(shard_var)
                    buckets: list[list[tuple]] = [[] for _ in range(shard_count)]
                    for row in rows:
                        buckets[assign(row[position][1])].append(row)
                    entry["buckets"] = buckets
                    partitioned.append(entry)
                else:
                    broadcast.append(entry)
                    for var in structure.variables:
                        referenced_broadcast_relations.add(
                            prepared.range_of(var).relation
                        )
            conjunction_plans.append(
                {"index": index, "partitioned": partitioned, "broadcast": broadcast}
            )
            result.conjunction_indexes.append(index)
            result.conjunction_sizes.append(0)
        notes.append(OperatorNote(
            None,
            f"{spec.method} partition on {shard_var}_ref into {shard_count} shards",
            "streamed",
            "co-partitioned structures stay local; the rest is reduced and shipped",
        ))

        # The naive baseline: broadcasting every referenced base relation to
        # every shard (what shipping relations instead of projections costs).
        report.naive_ship_bytes = shard_count * sum(
            relation_bytes(self.database.relation(name))
            for name in sorted(referenced_broadcast_relations)
        )

        # ---- cross-shard semijoin reduction + pruning -----------------------
        reduction_totals: dict[tuple[int, str], list[int]] = {}
        payloads: dict[int, dict] = {}
        for shard in range(shard_count):
            shard_conjunctions = []
            alive = False
            rows_in = 0
            for plan in conjunction_plans:
                entries = [
                    {
                        "vars": entry["vars"],
                        "desc": entry["desc"],
                        "rows": list(entry["buckets"][shard]),
                        "local": True,
                    }
                    for entry in plan["partitioned"]
                ] + [
                    {
                        "vars": entry["vars"],
                        "desc": entry["desc"],
                        "rows": list(entry["rows"]),
                        "local": False,
                    }
                    for entry in plan["broadcast"]
                ]
                for entry in entries:
                    key = (plan["index"], entry["desc"])
                    totals = reduction_totals.setdefault(key, [0, 0])
                    totals[0] += len(entry["rows"])
                shipped = self._reduce_entries(
                    entries, report.shards[shard], report
                )
                for entry in entries:
                    key = (plan["index"], entry["desc"])
                    reduction_totals[key][1] += len(entry["rows"])
                report.shards[shard].shipped_bytes += shipped
                contributes = all(entry["rows"] for entry in entries) and (
                    bool(entries) or bool(shard_ranges[shard])
                )
                if not plan["partitioned"] and not shard_ranges[shard]:
                    contributes = False  # the shard-local range extension is empty
                if contributes:
                    alive = True
                rows_in += sum(len(entry["rows"]) for entry in entries)
                shard_conjunctions.append(
                    {
                        "structures": [
                            {
                                "vars": entry["vars"],
                                "desc": entry["desc"],
                                "rows": entry["rows"],
                            }
                            for entry in entries
                        ]
                    }
                )
            note = report.shards[shard]
            note.rows_in = rows_in
            if not alive:
                note.pruned = True
                continue
            ranges = dict(range_rows)
            ranges[shard_var] = shard_ranges[shard]
            payloads[shard] = {
                "variables": variables,
                "free": [binding.var for binding in prepared.bindings],
                "prefix": [(spec.kind, spec.var) for spec in prepared.prefix],
                "conjunctions": shard_conjunctions,
                "ranges": ranges,
                "join_ordering": options.join_ordering,
                "histogram_statistics": options.histogram_statistics,
            }

        report.shipped_bytes = sum(note.shipped_bytes for note in report.shards)
        self.statistics.record_bytes_shipped(report.shipped_bytes)
        pruned = shard_count - len(payloads)
        if pruned:
            self.statistics.record_shards_pruned(pruned)
            notes.append(OperatorNote(
                None,
                f"shard pruning: {pruned} of {shard_count} shards skipped",
                "streamed",
                "partition metadata (empty fragments) refutes them, like zone maps",
            ))
        for position, plan in enumerate(conjunction_plans):
            result.reductions.append(
                [
                    (desc, totals[0], totals[1])
                    for (index, desc), totals in sorted(
                        reduction_totals.items(), key=lambda item: item[0][1]
                    )
                    if index == plan["index"]
                ]
            )
        notes.append(OperatorNote(
            None,
            "cross-shard semijoin reducer",
            "materialized",
            "ships join-column projections between shards, then reduced rows — "
            "never full relations",
        ))

        # ---- parallel dispatch ---------------------------------------------
        outcomes = self._dispatch(backend, workers, payloads)

        # ---- merge ----------------------------------------------------------
        # Shard outputs are disjoint (see module docstring), so the merge is
        # a concatenation in shard order — deterministic under any scheduling.
        schema = result.tuples.schema
        raw = Record.raw
        insert = result.tuples.insert_raw
        relation_cache: dict[str, object] = {}
        peak = 0
        first_orders: list[list[tuple[str, int]]] | None = None
        first_estimates: list[list[list]] | None = None
        for shard in sorted(outcomes):
            outcome = outcomes[shard]
            note = report.shards[shard]
            note.rows_out = len(outcome["rows"])
            note.work = outcome["work"]
            if first_orders is None:
                first_orders = outcome["join_orders"]
                first_estimates = outcome["join_estimates"]
            for position, size in enumerate(outcome["conjunction_sizes"]):
                result.conjunction_sizes[position] += size
            result.union_size += outcome["union_size"]
            if outcome["peak"] > peak:
                peak = outcome["peak"]
            for row in outcome["rows"]:
                refs = tuple(
                    Ref(self._relation(name, relation_cache), key) for name, key in row
                )
                insert(raw(schema, refs))
        result.join_orders.extend(first_orders or [[] for _ in conjunction_plans])
        # The first live shard's per-step estimates stand in for the whole
        # plan in ``explain`` — same convention as ``join_orders`` above.
        result.join_estimates.extend(first_estimates or [[] for _ in conjunction_plans])
        result.after_quantifiers_size = len(result.tuples)
        result.peak_tuples = peak
        notes.append(OperatorNote(
            None,
            f"merge of {len(payloads)} shard pipeline(s)",
            "streamed",
            "shard outputs are disjoint on the shard column — concatenation, no dedup",
        ))
        return result

    def _relation(self, name: str, cache: dict):
        relation = cache.get(name)
        if relation is None:
            relation = cache[name] = self.database.relation(name)
        return relation

    def _partition_layout(
        self, shard_var: str, shard_count: int, encoded_range: list[tuple]
    ) -> PartitionSpec:
        """Choose the shard column's layout (hash vs range) from its statistics.

        Predicts per-shard hash loads from the exact key-frequency
        distribution of the partitioned structure rows — the rows that will
        actually land on shards.  When the predicted ``max/mean`` load exceeds
        ``StrategyOptions.shard_skew_threshold``, hash placement would pile
        hot keys onto one worker, so the layout switches to range partitioning
        with frequency-weighted equi-depth bounds: each shard receives an
        equal *weight* of rows, not an equal span of keys.  The decision runs
        *before* any row is assigned — the layout is part of the plan, not a
        repair after the fact — and the kernel's disjointness argument only
        needs the assignment to be deterministic, which both layouts are.
        """
        relation_name = self.prepared.range_of(shard_var).relation
        hash_spec = PartitionSpec(relation_name, f"{shard_var}_ref", shard_count)
        options = self.options
        if not options.histogram_statistics or options.shard_skew_threshold <= 0:
            return hash_spec
        weights: dict = {}
        for structures in self.collection.conjunctions:
            if structures is None:
                continue
            for structure in structures:
                if shard_var not in structure.variables:
                    continue
                position = structure.variables.index(shard_var)
                for row in structure.rows:
                    key = row[position].key
                    weights[key] = weights.get(key, 0) + 1
        if not weights:
            # No co-partitioned structure: the only sharded rows are the
            # range references themselves (one per key — uniform by nature).
            for _, key in encoded_range:
                weights[key] = weights.get(key, 0) + 1
        total = sum(weights.values())
        if not total:
            return hash_spec
        loads = [0] * shard_count
        for key, count in weights.items():
            loads[shard_of_value(key, shard_count)] += count
        if max(loads) * shard_count <= options.shard_skew_threshold * total:
            return hash_spec
        try:
            ranked = sorted(weights.items(), key=lambda item: sort_key(item[0]))
        except TypeError:
            return hash_spec  # keys with no total order cannot be ranged
        bounds: list = []
        depth = total / shard_count
        filled = 0
        last = ranked[-1][0]
        for key, count in ranked:
            filled += count
            if (
                filled >= depth * (len(bounds) + 1)
                and len(bounds) < shard_count - 1
                and key != last  # a top bound equal to the max leaves a shard empty
            ):
                bounds.append(key)
        if len(bounds) != shard_count - 1:
            return hash_spec  # too few distinct keys to cut this many ways
        return PartitionSpec(
            relation_name,
            f"{shard_var}_ref",
            shard_count,
            method="range",
            bounds=tuple(bounds),
        )

    # -- the cross-shard reducer -------------------------------------------------

    def _reduce_entries(self, entries: list[dict], note: ShardNote, report) -> int:
        """Full semijoin reduction of one shard's structure set.

        Mirrors ``CombinationPhase._reduce_structures`` over encoded rows,
        with shipping accounted: a semijoin whose operands live at different
        sites (shard-local vs. broadcast) ships the projection of the shared
        columns, and every broadcast structure finally ships its reduced
        rows to the shard.  Local/local and broadcast/broadcast semijoins
        ship nothing.
        """
        shipped = 0
        last_shipped: dict[tuple[int, int], set] = {}
        if len(entries) > 1:
            changed = True
            passes = 0
            while changed and passes <= len(entries):
                changed = False
                passes += 1
                self.statistics.record_reducer_round()
                report.reducer_rounds += 1
                for i, entry in enumerate(entries):
                    if not entry["rows"]:
                        continue
                    for j, other in enumerate(entries):
                        if i == j:
                            continue
                        shared = [v for v in entry["vars"] if v in other["vars"]]
                        if not shared:
                            continue
                        other_pos = [other["vars"].index(v) for v in shared]
                        keys = {
                            tuple(row[p] for p in other_pos) for row in other["rows"]
                        }
                        if not entry["local"] and other["local"]:
                            # Reducing a broadcast structure by a shard-local
                            # one ships the local projection to the structure's
                            # holder — and only a *changed* projection is a
                            # message (an unchanged one is already there).
                            # The opposite direction ships nothing: reduced
                            # broadcast rows travel to the shard anyway (see
                            # below), and the local-by-broadcast semijoin is
                            # computed shard-side from those arrived rows.
                            if last_shipped.get((i, j)) != keys:
                                shipped += _wire_bytes(keys)
                                last_shipped[(i, j)] = keys
                        mine_pos = [entry["vars"].index(v) for v in shared]
                        before = len(entry["rows"])
                        entry["rows"] = [
                            row
                            for row in entry["rows"]
                            if tuple(row[p] for p in mine_pos) in keys
                        ]
                        removed = before - len(entry["rows"])
                        if removed:
                            self.statistics.record_reduction(removed)
                            changed = True
        for entry in entries:
            if not entry["local"]:
                shipped += _wire_bytes(entry["rows"])
        return shipped

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, backend: str, workers: int, payloads: dict[int, dict]) -> dict:
        """Run the kernel per shard and merge per-shard statistics race-safely."""
        outcomes: dict[int, dict] = {}

        def job(payload: dict) -> dict:
            outcome = evaluate_shard(payload)
            self._merge_shard_statistics(outcome)
            return outcome

        if backend == "thread" and len(payloads) > 1:
            # Each worker folds its private counters into the shared tracker
            # *from its own thread*, so the statistics lock is genuinely
            # exercised by concurrent merges.
            with ThreadPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
                futures = {shard: pool.submit(job, payload) for shard, payload in payloads.items()}
                for shard, future in futures.items():
                    outcomes[shard] = future.result()
            return outcomes
        if backend == "process" and len(payloads) > 1:
            try:
                with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
                    futures = {
                        shard: pool.submit(evaluate_shard, payload)
                        for shard, payload in payloads.items()
                    }
                    for shard, future in futures.items():
                        outcomes[shard] = future.result()
                        self._merge_shard_statistics(outcomes[shard])
            except BrokenProcessPool:
                # A worker died (killed, out of memory, crashed interpreter):
                # the pool fails every pending future.  Shards are pure
                # functions of their payloads, so finish them here.
                logger.warning(
                    "shard worker process died; evaluating %d of %d shards serially",
                    len(payloads) - len(outcomes), len(payloads),
                )
        # Serial backend, a single shard, or the shards a broken pool left.
        for shard, payload in payloads.items():
            if shard not in outcomes:
                outcomes[shard] = job(payload)
        return outcomes

    def _merge_shard_statistics(self, outcome: dict) -> None:
        """One shard's counters, merged under the shared statistics lock."""
        private = AccessStatistics()
        private.record_shards_scanned()
        private.record_comparison(outcome["comparisons"])
        self.statistics.merge(private)
