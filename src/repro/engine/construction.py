"""The construction phase (Section 3.3, step 3).

"The CONSTRUCTION PHASE dereferences the results obtained by the combination
phase and projects on the components specified in the component selection."

Under ``streaming_execution`` the phase is the pipeline sink: it pulls
free-variable reference tuples straight out of the combination phase's
:class:`~repro.engine.stream.RowStream` and dereferences row-by-row, so no
intermediate reference relation is ever materialised between the two phases.
Draining the stream also fills ``combination.tuples`` (the combination phase
records every row it hands over), so running the construction phase a second
time on the same result falls back to the materialised tuples and returns
the identical relation.
"""

from __future__ import annotations

from repro.calculus.ast import Selection
from repro.engine.combination import CombinationResult
from repro.engine.result import project_environment, result_relation_for
from repro.errors import StreamError
from repro.relational.record import Record
from repro.relational.refrelation import ref_field_name
from repro.relational.relation import Relation
from repro.relational.statistics import CONSTRUCTION

__all__ = ["ConstructionPhase"]


class ConstructionPhase:
    """Turns free-variable reference tuples into the final result relation."""

    def __init__(self, selection: Selection, database) -> None:
        self.selection = selection
        self.database = database
        self.statistics = database.statistics

    def run(self, combination: CombinationResult) -> Relation:
        """Dereference and project the combination-phase tuples."""
        with self.statistics.phase(CONSTRUCTION):
            result = result_relation_for(self.selection, self.database)
            stream = combination.stream
            if stream is not None:
                if stream.consumed:
                    # Someone pulled rows from the pipeline and stopped:
                    # ``tuples`` holds only the drained prefix, so falling
                    # back to it would silently truncate the result.  (A
                    # *complete* external drain clears ``combination.stream``
                    # itself, making the tuples fallback safe.)
                    raise StreamError(
                        "combination stream was partially consumed before the "
                        "construction phase; re-run the combination phase"
                    )
                self._drain_stream(stream, result)
                return result
            columns = {
                binding.var: ref_field_name(binding.var) for binding in self.selection.bindings
            }
            for row in combination.tuples:
                environment: dict[str, Record] = {}
                for var, column in columns.items():
                    environment[var] = row[column].deref()
                # The result is a set keyed on all components: inserting an
                # element it already holds is a no-op.
                result.insert(project_environment(self.selection, environment, result.schema))
            return result

    def _drain_stream(self, stream, result: Relation) -> None:
        """Pipelined dereference: one environment per row, straight off the stream."""
        for _ in self._dereferenced(stream, result):
            pass

    def stream_into(self, combination: CombinationResult, result: Relation):
        """The per-fetch construction pipeline behind streaming cursors.

        A generator that pulls one free-variable reference tuple off the
        combination stream per step, dereferences and projects it, inserts it
        into ``result`` and yields it — but only when it is *new* (result
        relations are sets), so the yielded records are exactly
        :meth:`run`'s result in insertion order, produced lazily.  Requires a
        live combination stream (:class:`~repro.errors.StreamError`
        otherwise — a materialised phase is constructed via :meth:`run` and
        iterated, see ``QueryEngine.execute_plan``).  Element reads
        are attributed to the construction phase around each pull, so the
        phase accounting matches a monolithic drain.
        """
        stream = combination.stream
        if stream is None:
            # Raised at the call site, not deferred to the first fetch: a
            # materialised combination has no pipeline to defer.
            raise StreamError(
                "the combination phase did not stream; construct via run() and "
                "iterate the materialised result instead"
            )
        if stream.consumed:
            raise StreamError(
                "combination stream was partially consumed before the "
                "construction phase; re-run the combination phase"
            )
        return self._dereferenced(stream, result)

    def _dereferenced(self, stream, result: Relation):
        """Dereference ``stream`` row-by-row into ``result``, yielding new records."""
        positions = [
            (binding.var, stream.schema.field_position(ref_field_name(binding.var)))
            for binding in self.selection.bindings
        ]
        schema = result.schema
        insert = result.insert
        selection = self.selection
        statistics = self.statistics
        rows = iter(stream)
        while True:
            with statistics.phase(CONSTRUCTION):
                row = next(rows, _DONE)
                if row is _DONE:
                    return
                environment = {var: row[position].deref() for var, position in positions}
                record = project_environment(selection, environment, schema)
                # The result is a set keyed on all components: ``insert``
                # hands back the stored element, which is this one only
                # when it was new.
                fresh = insert(record) is record
            if fresh:
                yield record


#: Sentinel distinguishing stream exhaustion from a yielded row.
_DONE = object()
