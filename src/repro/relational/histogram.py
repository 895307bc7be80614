"""Join-key sketches and the join-cardinality estimator.

The greedy join-ordering loop of the combination phase needs the size of
each join it could take next.  Under ``join_order="histogram"`` it sketches
the join columns of the two sides — reference tuples of one execution's
collection structures: exact, tiny, discarded with the plan — into a
:class:`ColumnSketch` each and asks :func:`estimate_join`.

A sketch keeps the exact total and distinct counts, an end-biased hot-key
list (the heavy hitters, matched exactly) and an equi-depth histogram over
the remaining values in :func:`stable_hash` order.  The hash is
deterministic across processes, unlike Python's salted ``hash``, so a sketch
— and the join order it decides — does not depend on the process that
built it.

The estimator follows the classic recipe: hot keys are matched exactly
against the other side (against its hot list, or its hash-histogram
average), and the remainders are joined bucket-by-bucket over *aligned*
hash ranges — two histograms over the same domain bucket the same values
into the same hash intervals, so per-interval containment is the right
assumption, exactly as for value-aligned histograms in a sort-merge
estimator.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "HISTOGRAM_BUCKETS",
    "HOT_KEYS",
    "Bucket",
    "ColumnSketch",
    "estimate_join",
    "stable_hash",
]

#: Buckets per equi-depth hash histogram.
HISTOGRAM_BUCKETS = 8
#: Heavy hitters tracked exactly per sketch (end-biased histogram head).
HOT_KEYS = 8


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
    """One equi-depth histogram bucket: the inclusive ``stable_hash`` range
    ``[low, high]`` with its rows and distinct values."""

    low: int
    high: int
    rows: int
    distinct: int


def _equi_depth(items: list[tuple[int, int]], buckets: int) -> tuple[Bucket, ...]:
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


class ColumnSketch:
    """The distribution of one join key over a stream of values (one execution)."""

    __slots__ = ("total", "distinct", "hot", "hash_buckets")

    def __init__(
        self,
        values: Iterable[Any],
        buckets: int = HISTOGRAM_BUCKETS,
        hot_keys: int = HOT_KEYS,
    ) -> None:
        counts = Counter(values)
        self.total = sum(counts.values())
        self.distinct = len(counts)
        self.hot, rest = _hot_split(counts, hot_keys)
        rest_by_hash = sorted(
            ((stable_hash(value), count) for value, count in rest),
            key=lambda item: item[0],
        )
        self.hash_buckets = _equi_depth(rest_by_hash, buckets)

    def hash_frequency(self, hashed: int) -> float:
        """Average multiplicity of the hash bucket containing ``hashed``."""
        for bucket in self.hash_buckets:
            if bucket.low <= hashed <= bucket.high:
                return bucket.rows / max(bucket.distinct, 1)
        return 0.0


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


def estimate_join(a: ColumnSketch, b: ColumnSketch) -> float:
    """Estimated equi-join cardinality of two sketched key distributions.

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
