"""Chunk-at-a-time kernels against a row-at-a-time reference.

Every streaming kernel passes lists of rows; what a caller can observe — the
output rows in order, the ``comparisons`` charged, the ``emitted`` count and
the live-tuple peak — must be what the one-row-per-step kernels produced.
The reference below *is* those kernels, restated in forty lines; the
properties run each chunked kernel over operand sizes around the chunk ramp's
edges (0-3, 1 023-1 025, 2 047-2 049) under arbitrary input chunkings.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.stream import CHUNK_ROWS, LiveTupleTracker, Rows, RowStream
from repro.relational.algebra import (
    stream_divide,
    stream_natural_join,
    stream_project,
    stream_semijoin,
    stream_union,
)
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema

# --------------------------------------------------------- the row-at-a-time reference
#
# Each returns (rows, comparisons, live peak); ``emitted`` is ``len(rows)``.


def ref_project(rows, positions, dedup):
    out, seen = [], set()
    for row in rows:
        row = tuple(row[p] for p in positions)
        if not dedup or row not in seen:
            out.append(row)
        if dedup:
            seen.add(row)
    return out, 0, len(seen)


def ref_join(rows, right, pairs, rest, semi=False):
    out, comparisons = [], 0
    for row in rows:
        comparisons += 1
        partners = [r for r in right if all(row[i] == r[j] for i, j in pairs)]
        if semi:
            out.extend([row] if partners else [])
        else:
            comparisons += len(partners)
            out.extend(row + tuple(r[p] for p in rest) for r in partners)
    return out, comparisons, 0


def ref_union(sources, key_positions, dedup):
    out, seen, comparisons = [], set(), 0
    for position, rows in enumerate(sources):
        for row in rows:
            comparisons += bool(position)
            key = tuple(row[p] for p in key_positions)
            if not dedup or key not in seen:
                out.append(row)
            if dedup:
                seen.add(key)
    return out, comparisons, len(seen)


def ref_divide(rows, group_positions, match_position, required):
    if not required:
        return ref_project(rows, group_positions, dedup=True)
    groups: dict[tuple, set] = {}
    for row in rows:
        groups.setdefault(tuple(row[p] for p in group_positions), set()).add(row[match_position])
    out = [group for group, matches in groups.items() if required <= matches]
    buffered = sum(map(len, groups.values()))
    return out, len(rows) + len(groups) * len(required), buffered


# ------------------------------------------------------------------------ the harness

SIZES = st.sampled_from([0, 1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049])
SEEDS = st.integers(min_value=0, max_value=2**32)
PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def schema(name, fields, key=None):
    return RelationSchema(name, [(f, INTEGER) for f in fields], key=key)


def draw_rows(rng, size, width, domain):
    return [tuple(rng.randrange(domain) for _ in range(width)) for _ in range(size)]


def operand(name, fields, rows):
    return Rows(schema(name, fields), list(dict.fromkeys(rows)), name)


def chunked(rng, fields, rows, name="s"):
    """``rows`` as a stream: the source ramp, or an arbitrary cutting."""
    if rng.random() < 0.25:
        return RowStream(schema(name, fields), rows)
    chunks, start = [], 0
    while start < len(rows):
        size = rng.choice([1, 2, 3, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 1500])
        chunks.append(rows[start : start + size])
        start += size
    return RowStream(schema(name, fields), chunks=iter(chunks))


def observe(kernel, expected):
    """Run ``kernel(tracker, live, emitted)`` and compare with the reference."""
    rows, comparisons, peak = expected
    tracker, live, counts = AccessStatistics(), LiveTupleTracker(), []
    chunks = list(kernel(tracker, live, counts.append).chunks())
    assert all(chunks), "an empty chunk was passed on"
    assert [row for chunk in chunks for row in chunk] == rows
    assert tracker.comparisons == comparisons
    assert counts == [len(rows)]
    assert (live.peak, live.current) == (peak, 0)
    return chunks


# -------------------------------------------------------------------- the properties


@PROPERTY
@given(size=SIZES, seed=SEEDS, dedup=st.booleans(), identity=st.booleans())
def test_project(size, seed, dedup, identity):
    rng = random.Random(seed)
    rows = draw_rows(rng, size, 3, rng.choice([2, 40, 5000]))
    names, positions = (["a", "b", "c"], [0, 1, 2]) if identity else (["c", "a"], [2, 0])
    observe(
        lambda tracker, live, emitted: stream_project(
            chunked(rng, ["a", "b", "c"], rows), names, dedup=dedup, live=live, emitted=emitted
        ),
        ref_project(rows, positions, dedup),
    )


@PROPERTY
@given(size=SIZES, right_size=st.sampled_from([0, 1, 2, 3, 40, 1025]), seed=SEEDS,
       shape=st.sampled_from(["join", "product", "no new column"]))
def test_natural_join(size, right_size, seed, shape):
    rng = random.Random(seed)
    if shape == "product":  # no common component; keep the product itself small
        size, right_size = min(size, 1025), min(right_size, 3)
    domain = rng.choice([3, 60]) if size * right_size < 100_000 else 60
    rows = draw_rows(rng, size, 2, domain)
    fields, pairs, rest = {
        "join": (["b", "c"], [(1, 0)], [1]),
        "product": (["c", "d"], [], [0, 1]),
        "no new column": (["b", "a"], [(1, 0), (0, 1)], []),
    }[shape]
    right = operand("r", fields, draw_rows(rng, right_size, 2, domain))
    chunks = observe(
        lambda tracker, live, emitted: stream_natural_join(
            chunked(rng, ["a", "b"], rows), right, tracker=tracker, emitted=emitted
        ),
        ref_join(rows, right.rows, pairs, rest),
    )
    # A join multiplies rows, not what is held at once: whatever the fan-out
    # and the input chunking, an output chunk stays near the ramp's ceiling.
    assert all(len(chunk) < CHUNK_ROWS + max(CHUNK_ROWS, len(right)) for chunk in chunks)


@PROPERTY
@given(size=SIZES, right_size=st.sampled_from([0, 1, 3, 40]), seed=SEEDS)
def test_semijoin(size, right_size, seed):
    rng = random.Random(seed)
    rows = draw_rows(rng, size, 2, 60)
    right = operand("r", ["b", "x"], draw_rows(rng, right_size, 2, 60))
    observe(
        lambda tracker, live, emitted: stream_semijoin(
            chunked(rng, ["a", "b"], rows), right, on=[("b", "b")],
            tracker=tracker, emitted=emitted,
        ),
        ref_join(rows, right.rows, [(1, 0)], [], semi=True),
    )


@PROPERTY
@given(sizes=st.lists(SIZES, min_size=1, max_size=3), seed=SEEDS,
       dedup=st.booleans(), partial_key=st.booleans())
def test_union(sizes, seed, dedup, partial_key):
    rng = random.Random(seed)
    domain = rng.choice([4, 70])
    sources = [draw_rows(rng, size, 2, domain) for size in sizes]
    out_schema = schema("u", ["a", "b"], key=["b"] if partial_key else None)
    observe(
        lambda tracker, live, emitted: stream_union(
            [chunked(rng, ["a", "b"], rows) for rows in sources], schema=out_schema,
            tracker=tracker, live=live, dedup=dedup, emitted=emitted,
        ),
        ref_union(sources, [1] if partial_key else [0, 1], dedup),
    )


@PROPERTY
@given(size=SIZES, divisor_size=st.sampled_from([0, 1, 2, 3]), seed=SEEDS)
def test_divide(size, divisor_size, seed):
    rng = random.Random(seed)
    rows = draw_rows(rng, size, 2, rng.choice([3, 30]))
    divisor = operand("d", ["b"], draw_rows(rng, divisor_size, 1, 3))
    observe(
        lambda tracker, live, emitted: stream_divide(
            chunked(rng, ["a", "b"], rows), divisor, by=[("b", "b")],
            tracker=tracker, live=live, emitted=emitted,
        ),
        ref_divide(rows, [0], 1, {row[0] for row in divisor.rows}),
    )


# ------------------------------------------------------------------------ early close


def held_scan(relation, held: list):
    """``relation.scan()`` as value rows, counting in ``held`` while it is parked
    on a row: the scan a closed pipeline must end (its ``finally`` runs)."""
    held.append(1)
    try:
        for record in relation.scan():
            yield record.values
    finally:
        held.pop()


@pytest.mark.parametrize("pulled", [1, 2, 5, 40])
@pytest.mark.parametrize("breaker", ["project", "union", "divide"])
def test_closing_after_k_rows_releases_breaker_state_and_pins(breaker, pulled):
    left = Relation("l", schema("l", ["a", "b"]), [(i, i % 3) for i in range(3000)])
    live, held = LiveTupleTracker(), []
    source = RowStream(left.schema, held_scan(left, held), label="l")
    if breaker == "project":
        stream = stream_project(source, ["a"], dedup=True, live=live)
    elif breaker == "union":
        stream = stream_union([source], live=live)
    else:
        stream = stream_divide(source, operand("d", ["b"], [(0,)]), by=[("b", "b")], live=live)
    iterator = iter(stream)
    assert [next(iterator) for _ in range(pulled)] == [
        (i,) if breaker == "project" else (3 * i,) if breaker == "divide" else (i, i % 3)
        for i in range(pulled)
    ]
    if breaker == "divide":
        # The breaker saw its whole input before the first group: all of it
        # is buffered, and the scan behind it has ended.
        assert live.current == 3000
        assert held == []
    else:
        # A prefix was read: the rows pulled plus at most one chunk of the ramp.
        assert pulled <= live.current <= 2 * pulled + 1
        assert held == [1]
    iterator.close()
    assert live.current == 0
    assert held == []
