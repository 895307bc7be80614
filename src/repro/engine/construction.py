"""The construction phase (Section 3.3, step 3).

"The CONSTRUCTION PHASE dereferences the results obtained by the combination
phase and projects on the components specified in the component selection."

The phase is the pipeline sink: it pulls chunks of free-variable
reference-id tuples straight out of the combination phase's
:class:`~repro.engine.stream.RowStream`, decodes the ids to keys through the
collection result's intern tables, and dereferences, projects and stores a
chunk at a time, so no intermediate reference relation is ever
materialised between the two phases.  Draining the stream also fills
``combination.tuples`` (the combination phase appends every chunk of id rows
it hands over), so running the construction phase a second time on the same
result feeds those rows, in full chunks, through the very same chunk function
and returns the identical relation.
"""

from __future__ import annotations

from operator import itemgetter

from repro.calculus.ast import Selection
from repro.engine.combination import CombinationResult
from repro.engine.result import result_relation_for
from repro.engine.stream import FULL, RowStream
from repro.errors import StreamError
from repro.relational.record import values_of
from repro.relational.refrelation import ref_field_name
from repro.relational.relation import Relation
from repro.relational.statistics import CONSTRUCTION

__all__ = ["ConstructionPhase"]


class ConstructionPhase:
    """Turns free-variable reference-id tuples into the final result relation.

    Of ``selection`` it reads only the columns and the free ranges' relations:
    the engine hands it the plan's ``shape``, parameters and all."""

    def __init__(self, selection: Selection, database) -> None:
        self.selection = selection
        self.database = database
        self.statistics = database.statistics

    def run(self, combination: CombinationResult) -> Relation:
        """Dereference and project the combination-phase tuples."""
        result = result_relation_for(self.selection, self.database)
        if combination.stream is None:
            stream = RowStream(combination.tuples.schema, combination.tuples.rows, demand=FULL)
        else:
            stream = self._pristine(combination.stream)
        for _ in self._dereferenced(stream, combination.plan.tables, result):
            pass
        return result

    def stream_into(self, combination: CombinationResult, result: Relation):
        """The per-fetch construction pipeline behind streaming cursors.

        A generator over the records of :meth:`run`'s result in insertion
        order, in chunks, produced lazily: it pulls one chunk of free-variable
        reference-id tuples off the combination stream, decodes, dereferences and
        projects it, stores the rows ``result`` does not hold yet (result
        relations are sets) and yields exactly those, as a list (never an
        empty one).  Chunks grow 1, 2, 4, ... rows until a drain asks for
        full ones, so a fetch has read a prefix of the input — at most one
        chunk ahead of the rows handed out.  Requires a live combination
        stream (:class:`~repro.errors.StreamError` otherwise: a drained
        stream's tuples are constructed via :meth:`run`).  Element reads
        are attributed to the construction phase around each chunk.
        """
        if combination.stream is None:
            # Raised at the call site, not deferred to the first fetch: a
            # drained combination has no pipeline to defer.
            raise StreamError(
                "the combination stream was already drained; construct via run() "
                "and iterate the materialised result instead"
            )
        return self._dereferenced(self._pristine(combination.stream), combination.plan.tables, result)

    @staticmethod
    def _pristine(stream: RowStream) -> RowStream:
        if stream.consumed:
            # Someone pulled rows from the pipeline and stopped: ``tuples``
            # holds only the drained prefix, so falling back to it would
            # silently truncate the result.  (A *complete* external drain
            # clears ``combination.stream`` itself, making ``tuples`` safe.)
            raise StreamError(
                "combination stream was partially consumed before the "
                "construction phase; re-run the combination phase"
            )
        return stream

    def _dereferenced(self, stream: RowStream, tables: list, result: Relation):
        """Dereference ``stream`` chunk by chunk into ``result``, yielding the new
        records of each chunk that brought any; ``tables`` holds, per free
        variable, the intern table (id -> key) its ids decode through."""
        bindings = self.selection.bindings
        # Resolved once: where each free variable's id sits in a row, its
        # table, the relation it reads (the source's own: keys collected on
        # another pin of the same contents dereference alike), and per result
        # component which variable and value position it reads.
        columns = [
            (stream.schema.field_position(ref_field_name(b.var)), table.__getitem__,
             self.database.relation(b.range.relation))
            for b, table in zip(bindings, tables)
        ]
        places = {b.var: (position, columns[position][2].schema) for position, b in enumerate(bindings)}
        components = [
            (places[column.var][0], places[column.var][1].field_position(column.field))
            for column in self.selection.columns
        ]
        statistics = self.statistics
        for chunk in stream.chunks():
            with statistics.phase(CONSTRUCTION):
                ids = list(zip(*chunk))
                values = [
                    list(values_of(relation.find_many(list(map(key_of, ids[c])))))
                    for c, key_of, relation in columns
                ]
                rows = zip(*[map(itemgetter(p), values[v]) for v, p in components])
                # The result is a set keyed on all components: only the rows
                # it does not hold yet become records.
                fresh = result.insert_new_rows(rows)
            if fresh:
                yield fresh
