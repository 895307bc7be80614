"""The join-order estimator's substrate: sketches, the estimator, the hash.

A :class:`ColumnSketch` summarises one join column of one execution's
collection structures; :func:`estimate_join` prices a join from two of them;
:func:`stable_hash` keeps both independent of the process's string-hash
salt.  Nothing here is maintained across mutations; the distinct count the
access-path rule reads is a permanent index's, counted once per build.  The
``*_index_counts_exact`` tests below check that count after writes, on the
live database and on a pin (the full probe property is in
tests/relational/test_index_derivation.py).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.histogram import HOT_KEYS, ColumnSketch, estimate_join, stable_hash
from repro.relational.index import build_index
from repro.relational.record import Record
from repro.relational.statistics import estimate_join_cardinality
from repro.types.scalar import INTEGER, CharArray, Enumeration, Subrange, compare_values

_SMALL = Subrange(0, 9, "small")

_OPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "assign", "clear")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)


def _make_database(paged: bool = True) -> Database:
    database = Database("stats", paged=paged)
    database.create_relation("r", [("k", INTEGER), ("v", _SMALL)], key=["k"])
    return database


def _apply(relation, op: str, key: int, value: int, state: dict[int, int]) -> None:
    if op == "insert":
        if state.get(key, value) != value:
            return  # would be a key violation; not what this test is about
        relation.insert({"k": key, "v": value})
        state[key] = value
    elif op == "delete":
        relation.delete_key(key)
        state.pop(key, None)
    elif op == "assign":
        state.pop(key, None)
        state[key] = value
        relation.assign([{"k": k, "v": v} for k, v in sorted(state.items())])
    else:  # clear
        relation.clear()
        state.clear()


def _counts(database: Database) -> tuple[int, int]:
    """``(size, distinct)`` of the index on ``r.v``, live and pinned alike."""
    live = database.index_for("r", "v")
    with database.pin_snapshot() as pin:
        pinned = pin.index_for("r", "v")
        assert (len(pinned), pinned.distinct_values()) == (len(live), live.distinct_values())
    return len(live), live.distinct_values()


def _assert_index_counts_exact(database: Database, operator: str) -> None:
    """The counts the access-path rule reads equal a from-scratch build's."""
    relation = database.relation("r")
    fresh = build_index(relation, "v", operator=operator)
    values = [record["v"] for record in relation.elements()]
    assert _counts(database) == (len(values), len(set(values)))
    assert _counts(database) == (len(fresh), fresh.distinct_values())


# --------------------------------------------------------------- stable hashing

LEVEL = Enumeration("leveltype", ("freshman", "sophomore", "junior", "senior"))


class TestStableHash:
    def test_deterministic_across_calls(self):
        for value in (0, -3, 17, "Jarke", "", None, True, False, 2.5, (1, "a")):
            assert stable_hash(value) == stable_hash(value)

    def test_known_values_are_pinned(self):
        # The hash-ordered histogram and the hot-key ranking are built from these
        # values: they must not depend on the process's string-hash salt.
        assert stable_hash((7,)) == stable_hash((7,))
        assert stable_hash("employees") != stable_hash("papers")
        assert 0 <= stable_hash("anything") < 2**32

    def test_distinguishes_types_not_just_repr(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash(None) != stable_hash("None")

    def test_enum_values_hash_by_enumeration_and_ordinal(self):
        assert stable_hash(LEVEL.value("junior")) == stable_hash(LEVEL.value("junior"))
        assert stable_hash(LEVEL.value("junior")) != stable_hash(LEVEL.value("senior"))

    def test_padded_char_arrays_hash_like_they_compare(self):
        # compare_values strips CharArray blank padding, so stable_hash must
        # too: the same name stored in CharArray columns of different
        # declared lengths falls into the same hash bucket, or a join
        # estimate across them would miss its matches.
        for text in ("Hütter", "Jarke", "", "a b"):
            short = CharArray(10).coerce(text)
            long = CharArray(36).coerce(text)
            assert compare_values("=", short, long)
            assert stable_hash(short) == stable_hash(long)
            assert stable_hash(short) == stable_hash(text)

    def test_interior_whitespace_still_distinguishes(self):
        assert stable_hash("a b") != stable_hash("ab")
        assert stable_hash(" a") != stable_hash("a")

    @given(st.text(max_size=18), st.integers(min_value=0, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_hash_agrees_with_comparison_for_any_padding(self, text, pad):
        padded = text + " " * pad
        assert compare_values("=", text, padded)
        assert stable_hash(text) == stable_hash(padded)


# --------------------------------------------------------------- sketches


class TestColumnSketch:
    def test_uniform_data_has_no_hot_keys(self):
        sketch = ColumnSketch(value for value in range(100) for _ in range(3))
        assert sketch.hot == {}
        assert sketch.total == 300
        assert sketch.distinct == 100
        assert abs(sketch.hash_frequency(stable_hash(17)) - 3.0) < 1.5

    def test_hot_keys_are_exact(self):
        sketch = ColumnSketch(["hot"] * 500 + list(range(100)))
        assert sketch.hot["hot"] == 500
        assert len(sketch.hot) <= HOT_KEYS
        assert sketch.total == 600 and sketch.distinct == 101

    def test_distinct_is_exact_for_large_domains(self):
        sketch = ColumnSketch(range(5000))
        assert sketch.distinct == 5000


@pytest.mark.parametrize("backend", ["memory", "paged"])
@pytest.mark.parametrize("operator", ("=", "<="))
def test_index_distinct_count_stays_exact_under_insert_and_delete(backend, operator) -> None:
    """The access-path rule prices an equality probe ``size / distinct``
    from the permanent index's own counts: the index a reader derives after
    any write must carry that write's counts."""
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    database.create_index("r", "v", operator=operator)
    for key in range(40):
        relation.insert({"k": key, "v": key % 10})
    assert _counts(database) == (40, 10)
    for key in range(0, 40, 10):  # every element holding v = 0
        relation.delete_key(key)
    assert _counts(database) == (36, 9)
    relation.insert({"k": 100, "v": 0})
    assert _counts(database) == (37, 10)


@pytest.mark.parametrize("backend", ["memory", "paged"])
@pytest.mark.parametrize("operator", ("=", "<="))
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_random_interleavings_keep_index_counts_exact(backend, operator, ops) -> None:
    """Insert / delete / assign / clear in any order: after every step the
    index's size and distinct count are those of its relation's contents."""
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    database.create_index("r", "v", operator=operator)
    state: dict[int, int] = {}
    for op, key, value in ops:
        _apply(relation, op, key, value, state)
        assert {record["k"]: record["v"] for record in relation.elements()} == state
        _assert_index_counts_exact(database, operator)


@pytest.mark.parametrize("backend", ["memory", "paged"])
@pytest.mark.parametrize("operator", ("=", "<="))
def test_raw_inserts_keep_index_counts_exact(backend, operator) -> None:
    """Raw inserts, a key overwrite among them, feed the same counts."""
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    database.create_index("r", "v", operator=operator)
    relation.insert_raw(Record(relation.schema, {"k": 1, "v": 5}))
    relation.insert_raw(Record(relation.schema, {"k": 2, "v": 5}))
    assert _counts(database) == (2, 1)
    relation.insert_raw(Record(relation.schema, {"k": 1, "v": 7}))  # overwrite
    assert _counts(database) == (2, 2)
    _assert_index_counts_exact(database, operator)


class TestEstimateJoin:
    def test_uniform_matches_the_classic_formula(self):
        a = ColumnSketch(value for value in range(200) for _ in range(2))
        b = ColumnSketch(value for value in range(100) for _ in range(3))
        classic = estimate_join_cardinality(400, 300, 200, 100)
        got = estimate_join(a, b)
        assert got == pytest.approx(classic, rel=0.5)

    def test_skewed_join_is_priced_near_its_true_size(self):
        hot_side = ColumnSketch([0] * 300 + list(range(1, 101)))
        other = ColumnSketch([0] * 300 + list(range(101, 200)))
        true_size = 300 * 300  # only the hot key matches
        got = estimate_join(hot_side, other)
        assert got == pytest.approx(true_size, rel=0.2)
        # The uniform formula is catastrophically wrong on the same data.
        classic = estimate_join_cardinality(400, 399, 101, 100)
        assert classic < true_size / 50

    def test_empty_side_estimates_zero(self):
        assert estimate_join(ColumnSketch([]), ColumnSketch([1, 2])) == 0.0
