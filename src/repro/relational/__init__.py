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
from repro.relational.refrelation import ReferenceType, ref_field_name
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
    "ref_field_name",
    "stream_divide",
    "stream_natural_join",
    "stream_project",
    "stream_semijoin",
    "stream_union",
]
