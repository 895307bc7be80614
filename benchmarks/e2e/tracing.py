"""Spans recorded from the benchmark's own files, and the staged replay.

The program has no tracing of its own yet (ROADMAP item 4), so the traced
run wraps spans around (a) the real front-door calls and (b) a *staged
replay* of the same request through each layer's public functions, whose
rows must equal the cursor's.  Spans are kept in memory and written out when
the run ends; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from time import perf_counter

from repro.calculus.typecheck import TypeChecker
from repro.engine.access import iter_access, select_access_path
from repro.engine.collection import CollectionPhase, ExtendedRangeEmptyError
from repro.engine.combination import CombinationPhase
from repro.engine.construction import ConstructionPhase
from repro.engine.result import project_environment, result_relation_for
from repro.lang.parser import parse_selection
from repro.transform.pipeline import prepare_query


class Tracer:
    """The spans of one thread: ``[name, start, end, parent index, op id]``."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: list[list] = []
        self.op = -1  # id shared by the spans of one request
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, tracer.op]

    def __enter__(self) -> None:
        tracer, record = self.tracer, self.record
        if tracer._open:
            record[3] = tracer._open[-1]
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.record[2] = perf_counter()
        self.tracer._open.pop()


def self_times(tracer: Tracer) -> tuple[dict, dict]:
    """Self time per layer: ``({name: {op: seconds}}, {name: [seconds per call]})``."""
    covered = defaultdict(float)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    per_call: dict[str, list[float]] = defaultdict(list)
    for index, (name, start, end, _, op) in enumerate(tracer.spans):
        own = end - start - covered.get(index, 0.0)
        per_op[name][op] += own
        per_call[name].append(own)
    return per_op, per_call


def write_jsonl(path, tracers) -> int:
    """One JSON object per span; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for index, (name, start, end, parent, op) in enumerate(tracer.spans):
                handle.write(json.dumps({
                    "id": f"{tracer.thread}:{index}",
                    "parent": f"{tracer.thread}:{parent}" if parent >= 0 else None,
                    "op": op, "name": name, "start": start, "end": end,
                }) + "\n")
                count += 1
    return count


# ------------------------------------------------------------------ staged replay


def staged_replay(tracer: Tracer, connection, text: str, binding, cold: bool, memo: dict):
    """Run one read request stage by stage; return ``(records, plan)``.

    ``cold`` requests compile from the text (parse, type check, transform);
    warm ones take the service's plan-cache hit and late binding, and reuse
    a collection result while the relations read are unchanged — as
    ``QueryService.execute_streaming_snapshot`` does — through ``memo``.
    """
    database = connection.database
    service = connection.service
    options = service.options
    with tracer.span("replay"):
        memo_key = None
        if cold:
            with tracer.span("lang.parse"):
                parsed = parse_selection(text)
            with tracer.span("calculus.typecheck"):
                selection = TypeChecker.for_database(database).resolve(parsed)
            with tracer.span("transform.prepare"):
                plan = prepare_query(
                    selection, database, options,
                    resolve=False, defer_restricted_ranges=True,
                )
        else:
            with tracer.span("service.prepare_hit"):
                prepared = service.prepare(text)
            with tracer.span("service.bind"):
                plan = prepared.bind(binding)
            selection = prepared.selection
            memo_key = (text, tuple(sorted((binding or {}).items())),
                        tuple(sorted(prepared.referenced_relations)))
        with tracer.span("relational.pin"):
            snapshot = database.pin_snapshot()
        try:
            try:
                records = _phases(tracer, selection, plan, snapshot, options, memo, memo_key)
            except ExtendedRangeEmptyError:
                # The engine's runtime adaptation: re-plan without Strategy 3.
                options = options.with_(extended_ranges=False)
                with tracer.span("transform.prepare"):
                    plan = prepare_query(selection, snapshot, options, resolve=False)
                records = _phases(tracer, selection, plan, snapshot, options, memo, None)
        finally:
            with tracer.span("relational.pin"):
                snapshot.release()
    return records, plan


def _phases(tracer, selection, plan, source, options, memo, memo_key):
    if plan.constant is not None:
        return _constant_plan(tracer, selection, plan, source, options)
    collection = None
    if memo_key is not None:
        versions = tuple(source.relation_versions.get(name, -1) for name in memo_key[2])
        cached = memo.get(memo_key)
        if cached is not None and cached[0] == versions:
            collection = cached[1]
    if collection is None:
        with tracer.span("collection.run"):
            collection = CollectionPhase(plan, source, options).run()
        if memo_key is not None:
            memo[memo_key] = (versions, collection)
    with tracer.span("combination.run"):
        combination = CombinationPhase(plan, source, collection, options).run()
        if combination.stream is not None:
            for _ in combination.stream:  # the pipeline is lazy: drain it here
                pass
    with tracer.span("construction.run"):
        relation = ConstructionPhase(selection, source).run(combination)
    return relation.elements()


def _constant_plan(tracer, selection, plan, source, options):
    """A matrix that collapsed to TRUE/FALSE: access paths, then projection.

    This is the path every Strategy 3 point query takes.  The engine keeps it
    in a private method, so the replay restates it with the public access and
    projection functions.
    """
    ranges: list[list] = []
    with tracer.span("collection.run"):
        for spec in plan.prefix:
            if spec.range.restriction is None or not len(source.relation(spec.range.relation)):
                continue
            path = select_access_path(source, spec.var, spec.range, options)
            if next(iter_access(source, path, spec.var), None) is None:
                raise ExtendedRangeEmptyError(spec.var, spec.range.relation)
        if plan.constant:
            for binding in plan.bindings:
                path = select_access_path(source, binding.var, binding.range, options)
                ranges.append([record for _, record in iter_access(source, path, binding.var)])
    with tracer.span("construction.run"):
        result = result_relation_for(selection, source)
        if plan.constant:
            variables = [binding.var for binding in plan.bindings]
            for combination in itertools.product(*ranges):
                record = project_environment(
                    selection, dict(zip(variables, combination)), result.schema
                )
                if result.find(result.schema.key_of(record.values)) is None:
                    result.insert(record)
    return result.elements()


def live_collection_pages(connection, plan) -> tuple[int, int, int]:
    """Buffer-pool ``(hits, misses, pages read)`` of one live-path collection.

    Pinned snapshots bypass the buffer pool, so page counters only move on
    the live database; single-threaded workloads only (no execution lock).
    """
    if plan.constant is not None:
        return 0, 0, 0
    database = connection.database
    statistics = database.statistics
    before = (statistics.page_hits, statistics.page_misses, statistics.pages_read)
    try:
        CollectionPhase(plan, database, connection.service.options).run()
    except ExtendedRangeEmptyError:
        pass
    return (
        statistics.page_hits - before[0],
        statistics.page_misses - before[1],
        statistics.pages_read - before[2],
    )
