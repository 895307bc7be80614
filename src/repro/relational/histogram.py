"""Per-component statistics: exact counts, histograms, sketches, hot keys.

Every optimizer decision in the engine — greedy join ordering and
access-path selection — needs cardinality estimates.  This module is the
statistics substrate feeding them, organised in two layers:

**Exact counts, maintained incrementally.**  A :class:`ColumnStatistics`
keeps the exact ``value -> multiplicity`` map of one component, updated
through the same :class:`~repro.relational.relation.Relation` observer hooks
that keep the permanent indexes coherent (insert / delete / assign / clear /
raw inserts all funnel through them).  Exact counts make deletions trivial —
a distinct-value sketch alone cannot process a delete.

**Derived summaries, rebuilt lazily.**  From the counts, a
:class:`ColumnSummary` derives the structures estimators actually read: an
equi-depth histogram in value order (range selectivities), an equi-depth
histogram in :func:`stable_hash` order (equality joins), an end-biased
hot-key list (the heavy hitters matched exactly), and a KMV distinct-value
sketch (the ``k`` minimum ``stable_hash`` values — deterministic across
processes, unlike anything built on Python's salted ``hash``).  Summaries
go *stale* as mutations accumulate; they are rebuilt only when read past
:data:`STALENESS_THRESHOLD` mutations (counted per column), so write-heavy
workloads never pay a rebuild per write.  Join orders are planned per
collection result, so the execution after a commit to a relation the query
reads plans again over the summaries as they stand then.

The join estimator (:func:`estimate_join`) follows the classic recipe: hot
keys are matched exactly against the other side (against its hot list, or
its hash-histogram average), and the remainders are joined bucket-by-bucket
over *aligned* hash ranges — two histograms over the same domain bucket the
same values into the same hash intervals, so per-interval containment is the
right assumption, exactly as for value-aligned histograms in a sort-merge
estimator.

:class:`ColumnSketch` is the ephemeral, per-execution flavour of the same
summary: the combination phase builds one over a structure's join column
(reference tuples — exact, tiny, discarded after planning) and feeds pairs
of them to :func:`estimate_join` in the greedy join-ordering loop.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Iterable

from repro.types.scalar import sort_key

__all__ = [
    "HISTOGRAM_BUCKETS",
    "HOT_KEYS",
    "KMV_K",
    "STALENESS_THRESHOLD",
    "Bucket",
    "ColumnSummary",
    "ColumnSketch",
    "ColumnStatistics",
    "TableStatistics",
    "estimate_join",
    "stable_hash",
]

#: Buckets per equi-depth histogram (value-ordered and hash-ordered alike).
HISTOGRAM_BUCKETS = 8
#: Heavy hitters tracked exactly per column (end-biased histogram head).
HOT_KEYS = 8
#: Size of the KMV distinct-value sketch (k minimum stable hashes).
KMV_K = 32
#: Mutations a column summary may absorb before a read triggers a rebuild.
STALENESS_THRESHOLD = 64

_HASH_SPACE = float(1 << 32)


def _canonical_bytes(value: object) -> bytes:
    """A canonical byte encoding of a scalar value (or tuple of them).

    Deliberately *not* Python's ``hash()``: string hashing is salted per
    process (``PYTHONHASHSEED``), and a summary must not depend on the
    process that built it.  Strings are encoded with their trailing blank
    padding stripped, matching :func:`repro.types.scalar.compare_values`:
    two :class:`CharArray` values of different declared lengths that compare
    equal must hash alike, or a join estimate across them would miss its
    matches.  Unknown scalar types fall back to ``repr``, which the
    repository's scalar wrappers keep deterministic.
    """
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.rstrip().encode("utf-8")
    if value is None:
        return b"n"
    if isinstance(value, tuple):
        return b"(" + b"\x1f".join(_canonical_bytes(v) for v in value) + b")"
    ordinal = getattr(value, "ordinal", None)
    enum_name = getattr(value, "enum_name", None)
    if ordinal is not None and enum_name is not None:  # EnumValue
        return b"e" + str(enum_name).encode("utf-8") + b"#" + str(ordinal).encode("ascii")
    return b"r" + repr(value).encode("utf-8")


def stable_hash(value: object) -> int:
    """A process-independent 32-bit hash of ``value`` (CRC-32 of the canonical bytes)."""
    return zlib.crc32(_canonical_bytes(value)) & 0xFFFFFFFF


@dataclass(frozen=True)
class Bucket:
    """One equi-depth histogram bucket: ``[low, high]`` with rows/distinct.

    ``low``/``high`` are inclusive bounds — ``sort_key`` tuples for the
    value-ordered histogram, integer ``stable_hash`` values for the
    hash-ordered one.
    """

    low: Any
    high: Any
    rows: int
    distinct: int


def _equi_depth(items: list[tuple[Any, int]], buckets: int) -> tuple[Bucket, ...]:
    """Equi-depth buckets over ``(boundary, count)`` pairs sorted by boundary."""
    total = sum(count for _, count in items)
    if not items or total == 0:
        return ()
    depth = max(total / buckets, 1.0)
    out: list[Bucket] = []
    low = items[0][0]
    rows = 0
    distinct = 0
    filled = 0.0
    for boundary, count in items:
        if low is None:
            low = boundary
        rows += count
        distinct += 1
        if rows + filled >= depth * (len(out) + 1) and len(out) < buckets - 1:
            out.append(Bucket(low, boundary, rows, distinct))
            filled += rows
            rows = 0
            distinct = 0
            low = None
    if rows:
        out.append(Bucket(low, items[-1][0], rows, distinct))
    return tuple(out)


def _hot_split(
    counts: dict[Any, int], hot_keys: int
) -> tuple[dict[Any, int], list[tuple[Any, int]]]:
    """Split exact counts into the hot head and the remainder.

    Only values strictly more frequent than the remainder average earn a hot
    slot — on uniform data the hot list stays empty and the estimators reduce
    to the classic uniform formulas.
    """
    if len(counts) <= hot_keys:
        return dict(counts), []
    ranked = sorted(counts.items(), key=lambda item: (-item[1], stable_hash(item[0])))
    head = ranked[:hot_keys]
    tail = ranked[hot_keys:]
    tail_rows = sum(count for _, count in tail)
    tail_average = tail_rows / max(len(tail), 1)
    hot = {value: count for value, count in head if count > tail_average}
    rest = [(value, count) for value, count in ranked[len(hot):]]
    return hot, rest


class ColumnSummary:
    """Derived statistics of one column (or one join-key distribution)."""

    __slots__ = (
        "total",
        "distinct",
        "hot",
        "hash_buckets",
        "value_buckets",
        "kmv",
    )

    def __init__(
        self,
        counts: dict[Any, int],
        buckets: int = HISTOGRAM_BUCKETS,
        hot_keys: int = HOT_KEYS,
        kmv_k: int = KMV_K,
        ordered: bool = True,
    ) -> None:
        self.total = sum(counts.values())
        self.distinct = len(counts)
        self.hot, rest = _hot_split(counts, hot_keys)
        rest_by_hash = sorted(
            ((stable_hash(value), count) for value, count in rest),
            key=lambda item: item[0],
        )
        self.hash_buckets = _equi_depth(rest_by_hash, buckets)
        if ordered:
            try:
                by_value = sorted(
                    ((sort_key(value), count) for value, count in counts.items()),
                    key=lambda item: item[0],
                )
            except TypeError:  # pragma: no cover - defensive (unorderable mix)
                by_value = []
            self.value_buckets = _equi_depth(by_value, buckets)
        else:
            self.value_buckets = ()
        hashes = sorted(stable_hash(value) for value in counts)
        self.kmv = tuple(hashes[:kmv_k])

    # -- point estimates -------------------------------------------------------

    def frequency(self, value: Any) -> float:
        """Estimated multiplicity of ``value``: hot keys exact, buckets average."""
        exact = self.hot.get(value)
        if exact is not None:
            return float(exact)
        return self.hash_frequency(stable_hash(value))

    def hash_frequency(self, hashed: int) -> float:
        """Average multiplicity of the hash bucket containing ``hashed``."""
        for bucket in self.hash_buckets:
            if bucket.low <= hashed <= bucket.high:
                return bucket.rows / max(bucket.distinct, 1)
        return 0.0

    def distinct_estimate(self) -> float:
        """KMV estimate of the distinct count (exact when the sketch is unsaturated)."""
        if len(self.kmv) < KMV_K:
            return float(len(self.kmv))
        return (KMV_K - 1) * _HASH_SPACE / max(float(self.kmv[-1]), 1.0)

    # -- range estimates -------------------------------------------------------

    def selectivity(self, op: str, value: Any) -> float:
        """Estimated fraction of rows satisfying ``column op value`` (in [0, 1])."""
        if self.total == 0:
            return 0.0
        if op == "=":
            return min(self.frequency(value) / self.total, 1.0)
        if op == "<>":
            return max(1.0 - self.frequency(value) / self.total, 0.0)
        if op not in ("<", "<=", ">", ">="):
            return 1.0
        if not self.value_buckets:
            return 1.0 / 3.0  # the classic distribution-free range guess
        target = sort_key(value)
        below = 0.0
        for bucket in self.value_buckets:
            if bucket.high < target:
                below += bucket.rows
            elif bucket.low > target:
                break
            else:
                below += bucket.rows * _bucket_fraction(bucket.low, bucket.high, target)
        fraction = below / self.total
        if op in (">", ">="):
            fraction = 1.0 - fraction
        return min(max(fraction, 0.0), 1.0)


def _bucket_fraction(low: Any, high: Any, target: Any) -> float:
    """Fraction of a bucket at or below ``target`` (linear for numerics, half otherwise)."""
    try:
        lo, hi, at = low[1], high[1], target[1]  # sort_key = (type rank, value)
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and hi > lo:
            return min(max((at - lo) / (hi - lo), 0.0), 1.0)
    except (TypeError, IndexError):
        pass
    return 0.5


class ColumnSketch(ColumnSummary):
    """An ephemeral summary built from a stream of values (one execution).

    Reference tuples admit no meaningful value order, so the value-ordered
    histogram is skipped; the hash-ordered histogram, hot keys and KMV are
    built exactly like a table-level summary, which is what lets
    :func:`estimate_join` treat the two interchangeably.
    """

    def __init__(self, values: Iterable[Any], hot_keys: int = HOT_KEYS) -> None:
        counts: dict[Any, int] = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        super().__init__(counts, hot_keys=hot_keys, ordered=False)


def _aligned_bucket_join(a: tuple[Bucket, ...], b: tuple[Bucket, ...]) -> float:
    """Join the two bucket remainders over aligned hash intervals.

    Both histograms bucket the *same* hash domain, so restricting each to a
    shared interval and assuming per-interval containment mirrors the classic
    aligned-histogram equi-join estimate.  Rows and distincts scale linearly
    with interval overlap (values are hash-uniform within a bucket by
    construction).
    """
    estimate = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].low, b[j].low)
        hi = min(a[i].high, b[j].high)
        if lo <= hi:
            fraction_a = (hi - lo + 1) / (a[i].high - a[i].low + 1)
            fraction_b = (hi - lo + 1) / (b[j].high - b[j].low + 1)
            rows_a = a[i].rows * fraction_a
            rows_b = b[j].rows * fraction_b
            distinct = max(a[i].distinct * fraction_a, b[j].distinct * fraction_b, 1.0)
            estimate += rows_a * rows_b / distinct
        if a[i].high <= b[j].high:
            i += 1
        else:
            j += 1
    return estimate


def estimate_join(a: ColumnSummary, b: ColumnSummary) -> float:
    """Estimated equi-join cardinality of two summarised key distributions.

    Hot keys are matched exactly (against the other side's hot list when it
    has one, its bucket average otherwise); the remainders join over aligned
    hash buckets.  With empty hot lists and single buckets this degrades to
    the classic ``|L| * |R| / max(distinct)`` uniform estimate.
    """
    if a.total == 0 or b.total == 0:
        return 0.0
    estimate = 0.0
    for value, count in a.hot.items():
        partner = b.hot.get(value)
        if partner is not None:
            estimate += count * partner
        else:
            estimate += count * b.hash_frequency(stable_hash(value))
    for value, count in b.hot.items():
        if value not in a.hot:
            estimate += a.hash_frequency(stable_hash(value)) * count
    estimate += _aligned_bucket_join(a.hash_buckets, b.hash_buckets)
    return estimate


# ===================================================================== maintenance


class ColumnStatistics:
    """Exact counts of one component, with a lazily derived summary."""

    __slots__ = ("field", "counts", "total", "stale", "_summary")

    def __init__(self, field: str) -> None:
        self.field = field
        self.counts: dict[Any, int] = {}
        self.total = 0
        self.stale = 0  # mutations absorbed since the summary was derived
        self._summary: ColumnSummary | None = None

    # -- incremental maintenance ----------------------------------------------

    def observe(self, value: Any) -> None:
        self.counts[value] = self.counts.get(value, 0) + 1
        self.total += 1
        self.stale += 1

    def forget(self, value: Any) -> None:
        remaining = self.counts.get(value, 0) - 1
        if remaining > 0:
            self.counts[value] = remaining
        else:
            self.counts.pop(value, None)
        self.total -= 1
        self.stale += 1

    def reset(self) -> None:
        self.counts.clear()
        self.total = 0
        self.stale += 1

    # -- reading ----------------------------------------------------------------

    def frequency(self, value: Any) -> int:
        """The *exact* current multiplicity of ``value`` (never stale)."""
        return self.counts.get(value, 0)

    @property
    def distinct(self) -> int:
        """The exact current distinct count."""
        return len(self.counts)

    def summary(self, threshold: int = STALENESS_THRESHOLD, tracker=None) -> ColumnSummary:
        """The derived summary, rebuilt when stale past ``threshold`` mutations."""
        if self._summary is None or self.stale > threshold:
            self._summary = ColumnSummary(self.counts)
            self.stale = 0
            if tracker is not None:
                tracker.record_histogram_rebuild()
        return self._summary


class TableStatistics:
    """Incrementally maintained per-component statistics of one relation.

    Implements the same observer protocol as the permanent indexes
    (``add`` / ``remove`` / ``clear``) and is attached through
    :meth:`Relation.attach_statistics`, so every mutation path that keeps
    indexes coherent keeps these counts coherent too.
    """

    def __init__(
        self,
        relation,
        tracker=None,
        staleness_threshold: int = STALENESS_THRESHOLD,
    ) -> None:
        self.relation = relation
        self.tracker = tracker
        self.staleness_threshold = staleness_threshold
        self.columns: dict[str, ColumnStatistics] = {
            name: ColumnStatistics(name) for name in relation.schema.field_names
        }
        self._positions = {
            name: position for position, name in enumerate(relation.schema.field_names)
        }
        for record in relation:
            self._observe_values(record.values)

    def _observe_values(self, values: tuple) -> None:
        for name, column in self.columns.items():
            column.observe(values[self._positions[name]])

    # -- the observer protocol --------------------------------------------------

    def add(self, record) -> None:
        self._observe_values(record.values)

    def remove(self, record) -> None:
        values = record.values
        for name, column in self.columns.items():
            column.forget(values[self._positions[name]])

    def clear(self) -> None:
        for column in self.columns.values():
            column.reset()

    # -- reading ----------------------------------------------------------------

    def column(self, field: str) -> ColumnStatistics | None:
        return self.columns.get(field)

    def summary(self, field: str) -> ColumnSummary | None:
        """The (possibly freshly rebuilt) summary of ``field``, or ``None``."""
        column = self.columns.get(field)
        if column is None:
            return None
        return column.summary(self.staleness_threshold, self.tracker)

    def refresh(self, force: bool = True) -> None:
        """Re-derive every column summary (``force``: stale or not)."""
        for column in self.columns.values():
            if force:
                column.stale = self.staleness_threshold + 1
            column.summary(self.staleness_threshold, self.tracker)
