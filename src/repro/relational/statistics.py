"""Access statistics.

The paper argues about efficiency in terms of *how often each database
relation is read*, *how many elements are touched*, and *how large the
intermediate reference relations become* (Sections 3.3 and 4).  The
benchmark harness reproduces those arguments, so the substrate keeps explicit
counters rather than relying on wall-clock time alone.

A single :class:`AccessStatistics` object is shared by a database, its stored
relations, its indexes and the evaluation engine.  Counters can be attributed
to the evaluation phase that caused them (collection / combination /
construction) so the phase-shifting effect of the optimization strategies is
directly visible.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "AccessStatistics",
    "PhaseScope",
    "COLLECTION",
    "COMBINATION",
    "CONSTRUCTION",
    "estimate_join_cardinality",
]

#: Phase labels used by the evaluation engine.
COLLECTION = "collection"
COMBINATION = "combination"
CONSTRUCTION = "construction"


def estimate_join_cardinality(
    left_size: int, right_size: int, left_distinct: int, right_distinct: int
) -> float:
    """Estimated size of an equi-join from operand sizes and distinct counts.

    Used by the combination-phase join-ordering optimizer to pick the next
    structure to join: ``|L| * |R| / max(distinct values)``.  Each side
    contributes ``distinct`` different join-key values; assuming the smaller
    set of values is contained in the larger one, a fraction ``1/max`` of the
    Cartesian product survives the join predicate.  A zero on either side
    short-circuits to zero (the join is empty).
    """
    if left_size == 0 or right_size == 0:
        return 0.0
    return left_size * right_size * (1.0 / max(left_distinct, right_distinct, 1))


@dataclass
class _RelationCounters:
    """Counters attributed to one named relation."""

    scans: int = 0
    elements_read: int = 0
    index_probes: int = 0
    index_entries_read: int = 0
    inserts: int = 0
    deletes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "scans": self.scans,
            "elements_read": self.elements_read,
            "index_probes": self.index_probes,
            "index_entries_read": self.index_entries_read,
            "inserts": self.inserts,
            "deletes": self.deletes,
        }


class AccessStatistics:
    """Mutable collection of access counters.

    The object is deliberately permissive: every method accepts any relation
    name, and unknown names simply create new counters.  This keeps the hot
    paths (element reads) cheap and free of error handling.
    """

    def __init__(self) -> None:
        self._relations: dict[str, _RelationCounters] = defaultdict(_RelationCounters)
        self._phase_elements: dict[str, int] = defaultdict(int)
        self._phase: str | None = None
        # Monotonic data-mutation epoch.  Unlike the counters it is private
        # and survives reset(): the service layer compares epochs to decide
        # whether cached collection-phase structures are still valid.
        self._mutation_epoch = 0
        # Serializes the bulk read-modify-write operations (merge, reset)
        # against each other: pins merge their private counters into the
        # shared tracker from any reader thread, so without this a reset
        # could land mid-merge and lose (or double) counts.  Individual record_* increments stay unlocked —
        # they are single counters and accounting-only.
        self._lock = threading.Lock()
        self.intermediate_tuples = 0
        self.intermediate_relations = 0
        self.index_probes = 0
        self.comparisons = 0
        self.reduced_tuples = 0
        self.reductions = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.combination_plans_built = 0
        self.combination_plans_reused = 0
        self.value_lists_built = 0
        self.value_lists_reused = 0
        self.rows_streamed = 0
        self.operators_pipelined = 0
        self.wal_records = 0
        self.wal_bytes = 0
        self.wal_flushes = 0
        self.checkpoints = 0
        self.recovered_transactions = 0
        # No summary is maintained, so none is rebuilt; no index is
        # maintained, so no op is charged; and relations hold no pages, so
        # none is read or skipped: kept at 0 for the benchmark harness,
        # which reports them.
        self.histogram_rebuilds = 0
        self.index_maintenance_ops = 0
        self.pages_read = 0
        self.page_hits = 0
        self.page_misses = 0
        self.pages_skipped = 0
        # Every public numeric counter above, resolved once per class (every
        # pin makes a tracker): as_dict, merge and reset run on every query
        # and must not reflect each time.  Read off the first instance, last
        # in __init__, so a counter added above is never missing from a
        # snapshot nor survives a reset (the reflection test in
        # ``tests/relational`` pins this invariant).
        if "_counter_names" not in type(self).__dict__:
            type(self)._counter_names = tuple(
                name
                for name, value in vars(self).items()
                if not name.startswith("_")
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            )

    # -- phase management -----------------------------------------------------

    @property
    def current_phase(self) -> str | None:
        """Phase label attributed to subsequent element reads, if any."""
        return self._phase

    def phase(self, name: str) -> "PhaseScope":
        """Context manager attributing subsequent reads to phase ``name``."""
        return PhaseScope(self, name)

    # -- recording -------------------------------------------------------------

    def record_scan(self, relation_name: str) -> None:
        """A full sequential read of ``relation_name`` started."""
        self._relations[relation_name].scans += 1

    def record_element_read(self, relation_name: str, count: int = 1) -> None:
        """``count`` elements of ``relation_name`` were read."""
        self._relations[relation_name].elements_read += count
        if self._phase is not None:
            self._phase_elements[self._phase] += count

    def record_index_probe(self, relation_name: str, entries: int = 0) -> None:
        """An index over ``relation_name`` was probed, yielding ``entries`` entries."""
        counters = self._relations[relation_name]
        counters.index_probes += 1
        counters.index_entries_read += entries
        self.index_probes += 1

    def record_insert(self, relation_name: str, count: int = 1) -> None:
        self._relations[relation_name].inserts += count
        self._mutation_epoch += 1

    def record_delete(self, relation_name: str, count: int = 1) -> None:
        self._relations[relation_name].deletes += count
        self._mutation_epoch += 1

    def record_mutation(self) -> None:
        """An untyped data mutation (e.g. a wholesale ``assign``) occurred."""
        self._mutation_epoch += 1

    @property
    def mutation_epoch(self) -> int:
        """Monotonic count of data mutations; never reset."""
        return self._mutation_epoch

    def record_intermediate(self, tuples: int, relations: int = 1) -> None:
        """An intermediate reference relation of ``tuples`` elements was built."""
        self.intermediate_tuples += tuples
        self.intermediate_relations += relations

    def record_comparison(self, count: int = 1) -> None:
        """``count`` join-term comparisons were evaluated."""
        self.comparisons += count

    def record_plan_cache(self, hit: bool) -> None:
        """A plan-cache lookup completed (service layer)."""
        if hit:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1

    def record_combination_plan(self, reused: bool) -> None:
        """A combination phase wired a plan it found on its collection result
        (``reused``), or had to reduce, order and publish one first."""
        if reused:
            self.combination_plans_reused += 1
        else:
            self.combination_plans_built += 1

    def record_value_list(self, reused: bool) -> None:
        """A collection phase took a Strategy 4 value list from the database's
        memo (``reused``), or read its inner range to build one."""
        if reused:
            self.value_lists_reused += 1
        else:
            self.value_lists_built += 1

    def record_rows_streamed(self, count: int = 1) -> None:
        """``count`` tuples flowed through a streaming pipeline operator.

        Counted once per operator a row passes, so the total is a pipeline
        *throughput* measure (a row crossing three operators counts three
        times), not a result-size measure.
        """
        self.rows_streamed += count

    def record_operator_pipelined(self, count: int = 1) -> None:
        """``count`` streaming (non-materialising) operators were instantiated."""
        self.operators_pipelined += count

    def record_wal_append(self, nbytes: int) -> None:
        """One framed record of ``nbytes`` bytes was appended to the WAL."""
        self.wal_records += 1
        self.wal_bytes += nbytes

    def record_wal_flush(self) -> None:
        """Buffered WAL records were written out (one group-commit flush)."""
        self.wal_flushes += 1

    def record_checkpoint(self) -> None:
        """A checkpoint rewrote the snapshot and truncated the WAL."""
        self.checkpoints += 1

    def record_recovered_transactions(self, count: int = 1) -> None:
        """``count`` committed transactions were replayed by crash recovery."""
        self.recovered_transactions += count

    def record_reduction(self, removed: int) -> None:
        """One semijoin application of the reducer removed ``removed`` tuples.

        ``reductions`` therefore counts individual reducing semijoins, not
        reducer passes (a pass applies several semijoins).
        """
        self.reductions += 1
        self.reduced_tuples += removed

    # -- reporting -------------------------------------------------------------

    def scans(self, relation_name: str) -> int:
        """Number of sequential scans of ``relation_name``."""
        return self._relations[relation_name].scans

    def elements_read(self, relation_name: str | None = None) -> int:
        """Elements read from one relation, or from all relations."""
        if relation_name is not None:
            return self._relations[relation_name].elements_read
        return sum(c.elements_read for c in self._relations.values())

    def total_scans(self) -> int:
        """Total sequential scans across all relations."""
        return sum(c.scans for c in self._relations.values())

    def phase_elements(self, phase: str) -> int:
        """Elements read while ``phase`` was active."""
        return self._phase_elements[phase]

    def relation_names(self) -> Iterator[str]:
        return iter(sorted(self._relations))

    def as_dict(self) -> dict:
        """A plain-dictionary snapshot suitable for reporting and assertions."""
        snapshot: dict = {
            "relations": {
                name: counters.as_dict() for name, counters in sorted(self._relations.items())
            },
            "phase_elements": dict(self._phase_elements),
        }
        values = vars(self)
        for name in self._counter_names:
            snapshot[name] = values[name]
        return snapshot

    def merge(self, other: "AccessStatistics") -> None:
        """Add every counter of ``other`` into this tracker (those that moved).

        Used when a snapshot execution's *private* statistics are folded
        back into the database's shared tracker at snapshot release.  The
        mutation epoch is deliberately NOT merged: snapshots never mutate,
        and the epoch is a version stamp, not a counter.

        Serialized against concurrent :meth:`merge` / :meth:`reset` calls:
        snapshot releases merge from arbitrary reader threads while the
        engine door resets between executions.
        """
        with self._lock:
            for name, counters in other._relations.items():
                mine = self._relations[name]
                mine.scans += counters.scans
                mine.elements_read += counters.elements_read
                mine.index_probes += counters.index_probes
                mine.index_entries_read += counters.index_entries_read
                mine.inserts += counters.inserts
                mine.deletes += counters.deletes
            for phase, count in other._phase_elements.items():
                self._phase_elements[phase] += count
            mine, theirs = vars(self), vars(other)
            for name in filter(theirs.__getitem__, self._counter_names):
                mine[name] += theirs[name]

    def reset(self) -> None:
        """Forget all recorded counters (serialized against :meth:`merge`)."""
        with self._lock:
            self._relations.clear()
            self._phase_elements.clear()
            vars(self).update(dict.fromkeys(self._counter_names, 0))

    def summary(self) -> str:
        """A compact multi-line human readable summary."""
        lines = []
        for name in self.relation_names():
            counters = self._relations[name]
            lines.append(
                f"{name}: scans={counters.scans} elements={counters.elements_read} "
                f"probes={counters.index_probes}"
            )
        lines.append(
            f"intermediate: relations={self.intermediate_relations} "
            f"tuples={self.intermediate_tuples}"
        )
        lines.append(f"indexes: probes={self.index_probes}")
        lines.append(
            f"semijoin reducer: reducing semijoins={self.reductions} "
            f"tuples removed={self.reduced_tuples}"
        )
        lines.append(
            f"pipeline: operators={self.operators_pipelined} "
            f"rows streamed={self.rows_streamed}"
        )
        return "\n".join(lines)


@dataclass
class PhaseScope:
    """Context manager produced by :meth:`AccessStatistics.phase`."""

    statistics: AccessStatistics
    name: str
    _previous: str | None = field(default=None, init=False)

    def __enter__(self) -> AccessStatistics:
        self._previous = self.statistics._phase
        self.statistics._phase = self.name
        return self.statistics

    def __exit__(self, *exc_info: object) -> None:
        self.statistics._phase = self._previous
