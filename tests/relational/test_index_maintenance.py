"""Property test: incremental permanent-index maintenance is exact.

Permanent indexes are no longer rebuilt by ``refresh_indexes`` sweeps — every
insert/delete/assign/clear maintains them in place.  This suite drives random
interleavings of those operators (hypothesis-generated) against an indexed
relation on both storage backends and asserts, after every single step, that
probing the maintained index yields byte-identical references to a fresh
full-scan rebuild — for every operator and probe value.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.index import HashIndex, SortedIndex, build_index
from repro.types.scalar import INTEGER, Subrange, sort_key

_SMALL = Subrange(0, 9, "small")

#: One random mutation: (op, key, value).  Keys collide often (0..7) so
#: deletes hit, inserts no-op on duplicates, and assigns overwrite.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "assign", "clear")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)

_PROBE_OPERATORS = ("=", "<", "<=", ">", ">=", "<>")


def _make_database(paged: bool) -> Database:
    database = Database("maintenance", paged=paged)
    database.create_relation(
        "r", [("k", INTEGER), ("v", _SMALL)], key=["k"], page_capacity=4
    )
    database.create_index("r", "v")                 # HashIndex on the value
    database.create_index("r", "k", operator="<=")  # SortedIndex on the key
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
        # Replace the whole contents with a rotation of the current state
        # plus the drawn element — exercises clear-and-reinsert maintenance.
        state.pop(key, None)
        state[key] = value
        relation.assign([{"k": k, "v": v} for k, v in sorted(state.items())])
    else:  # clear
        relation.clear()
        state.clear()


def _assert_index_exact(database: Database, relation) -> None:
    """Every maintained index answers every probe like a fresh rebuild."""
    for (relation_name, field_name) in database.indexes():
        maintained = database.index_for(relation_name, field_name)
        fresh = build_index(
            relation,
            field_name,
            operator="=" if isinstance(maintained, HashIndex) else "<=",
        )
        assert len(maintained) == len(fresh), field_name
        assert sorted(
            (v, ref.key) for v, ref in _entries(maintained)
        ) == sorted((v, ref.key) for v, ref in _entries(fresh)), field_name
        for op in _PROBE_OPERATORS:
            if isinstance(maintained, HashIndex) and op not in ("=", "<>"):
                continue
            for probe_value in range(-1, 11):
                got = sorted(ref.key for ref in maintained.probe_operator(op, probe_value))
                want = sorted(ref.key for ref in fresh.probe_operator(op, probe_value))
                assert got == want, (field_name, op, probe_value)
        if isinstance(maintained, SortedIndex):
            # The probe bisects this list; it must stay the pairs' sort keys.
            assert maintained._keys == [sort_key(v) for v, _ in maintained._pairs]


def _entries(index):
    if isinstance(index, HashIndex):
        return list(index.entries())
    return [(value, ref) for value, ref in index._pairs]


@pytest.mark.parametrize("paged", (False, True), ids=("memory", "paged"))
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_random_interleavings_keep_indexes_exact(paged: bool, ops) -> None:
    database = _make_database(paged)
    relation = database.relation("r")
    state: dict[int, int] = {}
    for op, key, value in ops:
        _apply(relation, op, key, value, state)
        assert {record["k"]: record["v"] for record in relation.elements()} == state
        _assert_index_exact(database, relation)
    assert database.statistics.index_maintenance_ops >= 0


@pytest.mark.parametrize("paged", (False, True), ids=("memory", "paged"))
def test_maintenance_is_counted(paged: bool) -> None:
    database = _make_database(paged)
    relation = database.relation("r")
    before = database.statistics.index_maintenance_ops
    relation.insert({"k": 1, "v": 5})
    after_insert = database.statistics.index_maintenance_ops
    assert after_insert == before + 2  # two maintained indexes
    relation.delete_key(1)
    assert database.statistics.index_maintenance_ops == after_insert + 2


@pytest.mark.parametrize("paged", (False, True), ids=("memory", "paged"))
def test_raw_inserts_maintain_indexes_too(paged: bool) -> None:
    """The algebra fast path normally targets unindexed result relations,
    but a raw insert into an indexed base relation must still maintain it —
    including the key-overwrite case."""
    from repro.relational.record import Record

    database = _make_database(paged)
    relation = database.relation("r")
    relation.insert_raw(Record(relation.schema, {"k": 1, "v": 5}))
    hash_index = database.index_for("r", "v")
    assert [ref.key for ref in hash_index.probe(5)] == [(1,)]
    relation.insert_raw(Record(relation.schema, {"k": 1, "v": 7}))  # overwrite
    assert hash_index.probe(5) == []
    assert [ref.key for ref in hash_index.probe(7)] == [(1,)]
    relation.insert_raw(Record(relation.schema, {"k": 2, "v": 7}))
    assert len(hash_index.probe(7)) == 2
    _assert_index_exact(database, relation)
