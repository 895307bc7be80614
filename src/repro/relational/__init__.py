"""Relational substrate: records, relations, references, indexes, algebra."""

from repro.relational.algebra import (
    stream_divide,
    stream_natural_join,
    stream_project,
    stream_semijoin,
    stream_union,
)
from repro.relational.database import Database
from repro.relational.index import HashIndex, SortedIndex, ValueList, build_index
from repro.relational.record import Record
from repro.relational.reference import Ref
from repro.relational.refrelation import (
    ReferenceType,
    make_index_schema,
    make_indirect_join,
    make_indirect_join_schema,
    make_ref_tuple_relation,
    make_ref_tuple_schema,
    make_single_list,
    make_single_list_schema,
    ref_field_name,
)
from repro.relational.relation import Relation
from repro.relational.statistics import (
    COLLECTION,
    COMBINATION,
    CONSTRUCTION,
    AccessStatistics,
)

__all__ = [
    "AccessStatistics",
    "COLLECTION",
    "COMBINATION",
    "CONSTRUCTION",
    "Database",
    "HashIndex",
    "Record",
    "Ref",
    "ReferenceType",
    "Relation",
    "SortedIndex",
    "ValueList",
    "build_index",
    "make_index_schema",
    "make_indirect_join",
    "make_indirect_join_schema",
    "make_ref_tuple_relation",
    "make_ref_tuple_schema",
    "make_single_list",
    "make_single_list_schema",
    "ref_field_name",
    "stream_divide",
    "stream_natural_join",
    "stream_project",
    "stream_semijoin",
    "stream_union",
]
