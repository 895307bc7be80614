"""The relational algebra of the combination phase, as streaming kernels.

Section 3.3 of the paper evaluates the combination phase with "operations
like join or Cartesian product of reference relations", a union over the
conjunctions of the disjunctive normal form, *projection* for existential
quantifiers and *division* for universal quantifiers (after Codd).  This
module implements those operators — plus the semijoin the paper relates to
Bernstein & Chiu's semi-join technique — over relations whose components are
ordinary values or references.

Every operator consumes a :class:`~repro.engine.stream.RowStream` on its
pipeline side and produces a new ``RowStream``, buffering tuples only where
it is a genuine pipeline breaker (division's group table, union's dedup
state); build sides (hash tables, key sets) are taken from
already-materialised operands — relations, or
:class:`~repro.engine.stream.Rows` of bare value tuples, which is how the
combination phase runs these operators over dense reference ids.
``*_kernel`` prepares an operator against its input schema, ``stream_*``
prepares and wires it at once; ``RowStream.materialize()`` turns any output
back into a relation.

All operators are pure: they never modify their operands and return
single-use streams.  Schema compatibility problems raise
:class:`~repro.errors.AlgebraError`.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from repro.errors import AlgebraError
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.schema import RelationSchema

__all__ = [
    "stream_project",
    "stream_natural_join",
    "stream_semijoin",
    "stream_union",
    "stream_divide",
    "Kernel",
    "project_kernel",
    "natural_join_kernel",
    "semijoin_kernel",
    "union_kernel",
    "divide_kernel",
]


def _values_getter(schema: RelationSchema, field_names: Sequence[str]) -> Callable[[tuple], tuple]:
    """A callable mapping a record's value tuple to the named components.

    The hot operators resolve component positions *once per call* through this
    helper instead of once per record (the old ``project_values`` path), which
    removes the dominant per-record overhead of the combination phase.
    """
    positions = schema.positions_of(tuple(field_names))
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda values: (values[position],)
    return itemgetter(*positions)


def _chunk_getter(schema: RelationSchema, field_names: Sequence[str]):
    """:func:`_values_getter` for a whole chunk: maps a list of value tuples to
    an iterable of their named components, without a Python frame per row."""
    return chunk_getter(schema.positions_of(tuple(field_names)))


def chunk_getter(positions: Sequence[int]):
    """:func:`_chunk_getter` by position (a selection projects concatenated
    elements, whose component names may repeat)."""
    if not positions:
        return lambda chunk: [()] * len(chunk)
    if len(positions) == 1:
        column = itemgetter(positions[0])
        return lambda chunk: zip(map(column, chunk))  # zip wraps each value in a 1-tuple
    return partial(map, itemgetter(*positions))


def match_getter(schema: RelationSchema, field_names: Sequence[str]) -> Callable[[tuple], object]:
    """Like :func:`_values_getter`, for values that are only hashed and compared.

    Join and semijoin keys never reach an output row, so a single component
    is returned bare (one C-level ``itemgetter`` call) instead of wrapped in
    a 1-tuple; both operands of a match resolve the same number of
    components, so their keys stay comparable.
    """
    positions = schema.positions_of(tuple(field_names))
    if not positions:
        return lambda values: ()
    return itemgetter(*positions)


def _key_getter(schema: RelationSchema) -> Callable[[tuple], tuple] | None:
    """Once-per-call key extraction, or ``None`` when the key is the full row."""
    if schema.key == schema.field_names:
        return None
    return _values_getter(schema, schema.key)


def value_rows(operand) -> Iterable[tuple]:
    """A materialised operand's rows as raw value tuples.

    Build sides are either relations (records, whose storage tuple is
    ``values``) or :class:`~repro.engine.stream.Rows` (bare tuples already).
    """
    if isinstance(operand, Relation):
        return (record.values for record in operand)
    return operand.rows


def _build_side(operand, kind: str, columns: Sequence[str], build: Callable[[], object]):
    """``build()`` — a kernel's hash table or key set over ``operand``'s ``columns``.

    A :class:`~repro.engine.stream.Rows` keeps it in its ``memo``, so the
    executions sharing the operand build it once; it is stored finished, and
    racing first uses store equal ones.
    """
    memo = getattr(operand, "memo", None)
    key = (kind, tuple(columns))
    table = None if memo is None else memo.get(key)
    if table is None:
        table = build()
        if memo is not None:
            memo[key] = table
    return table


def _key_set(operand, columns: Sequence[str]) -> set:
    """The distinct ``columns`` values of a materialised operand (see :func:`_build_side`)."""
    getter = match_getter(operand.schema, columns)
    return _build_side(operand, "keys", columns, lambda: set(map(getter, value_rows(operand))))


# ======================================================================== streaming kernels
#
# The pipeline side of every streaming kernel is a RowStream: *chunks* — lists
# of raw value tuples — flow through it (``RowStream.chunks()``), and a kernel
# is ``for chunk in source.chunks(): out = [one comprehension]; yield out``,
# with ``del chunk`` before the yield and ``del out`` after it (DESIGN "A
# suspended kernel holds no chunk": held, they woke the cyclic collector).
# Build sides are materialised operands — relations, or Rows of bare tuples
# (in the engine: collection-phase structures over dense reference ids).  The
# kernels never look inside a value, so the same code joins integers or
# references.
#
# ``*_kernel(schema, ...)`` resolves what the rows do not decide — output
# schema, getters, the build side — into a :class:`Kernel`, which the
# combination phase keeps on its plan; calling it with a source wires one
# execution.  ``stream_*(source, ...)`` does both at once.  Accounting is
# fused into each operator's generator and paid per chunk: comparisons go to
# ``tracker``, breaker state to ``live``, and ``emitted`` is called once with
# the output row count as the generator closes.  RowStream is imported
# lazily: ``repro.relational`` must stay importable without ``repro.engine``.

Emitted = Callable[[int], None]


class Kernel:
    """A streaming operator prepared against its input schema: ``body`` is a
    generator function over ``(source, tracker, live, emitted, demand)``
    yielding the output chunks (never an empty one; ``demand`` sizes a breaker's),
    everything else sits in its closure.
    Calling the kernel wires one execution: its single-use output stream."""

    __slots__ = ("schema", "label", "body")

    def __init__(self, schema: RelationSchema, label: str, body) -> None:
        self.schema = schema
        self.label = label
        self.body = body

    def __call__(self, source, tracker=None, live=None, emitted: Emitted | None = None, demand=None):
        from repro.engine.stream import RowStream

        chunks = self.body(source, tracker, live, emitted, demand)
        return RowStream(self.schema, chunks=chunks, label=self.label)


def project_kernel(
    source_schema: RelationSchema, field_names: Sequence[str], name: str, dedup: bool = False
) -> Kernel:
    """:func:`stream_project`, prepared against ``source_schema``."""
    identity = tuple(field_names) == source_schema.field_names
    # An identity projection of an all-key schema *is* that schema (a plan
    # holds its kernels' schemas for as long as it lives).
    if identity and source_schema.key == source_schema.field_names:
        schema = source_schema
    else:
        schema = source_schema.project(field_names, name)
    getter = None if identity else _chunk_getter(source_schema, field_names)

    def body(source, tracker, live, emitted, demand):
        seen: set[tuple] = set()
        add = seen.add
        count = 0
        try:
            for chunk in source.chunks():
                out = chunk if identity else list(getter(chunk))
                del chunk
                if dedup:
                    out = [row for row in out if row not in seen and not add(row)]
                    if live is not None:
                        live.acquire(len(out))
                if out:
                    count += len(out)
                    yield out
                del out
        finally:
            if live is not None:
                live.release(len(seen))
            if emitted is not None:
                emitted(count)

    return Kernel(schema, name, body)


def stream_project(
    source,
    field_names: Sequence[str],
    name: str | None = None,
    dedup: bool = False,
    live=None,
    emitted: Emitted | None = None,
):
    """Streaming projection on ``field_names``.

    With ``dedup=False`` (the default) duplicates pass through — the caller
    either tolerates them or collapses them later (``materialize()`` and the
    union stage both do).  With ``dedup=True`` the operator keeps a seen-set
    and emits each distinct projection exactly *once, the first time a
    witness arrives* — the streaming form of existential-quantifier
    elimination.  The seen-set is breaker state, reported to ``live``.
    """
    kernel = project_kernel(
        source.schema, field_names, name or f"{source.label}_projection", dedup
    )
    return kernel(source, live=live, emitted=emitted)


def _hash_join(schema: RelationSchema, left_key, right, columns, right_part, kind: str) -> Kernel:
    """Probe ``{right key: [right_part(row), ...]}`` per stream row, one
    comparison per probe and per matching pair, flushed when the pipeline closes.

    A chunk is probed in slices short enough that the widest bucket keeps an
    output chunk under twice ``CHUNK_ROWS`` (plus one row's partners): a hot
    key multiplies rows, it must not multiply what is held at once.
    """
    from repro.engine.stream import CHUNK_ROWS

    right_key = match_getter(right.schema, columns)

    def build():
        buckets: dict[object, list[tuple]] = {}
        for values in value_rows(right):
            buckets.setdefault(right_key(values), []).append(right_part(values))
        return buckets, max(map(len, buckets.values()), default=1)

    buckets, widest = _build_side(right, kind, columns, build)
    partners = buckets.get
    step = max(1, CHUNK_ROWS // widest)

    def body(source, tracker, live, emitted, demand):
        probes = matches = 0
        try:
            for chunk in source.chunks():
                probes += len(chunk)
                out: list[tuple] = []
                for start in range(0, len(chunk), step):
                    out += [
                        values + rest
                        for values in chunk[start : start + step]
                        for rest in partners(left_key(values), ())
                    ]
                    if len(out) >= CHUNK_ROWS:
                        matches += len(out)
                        yield out
                        out = []
                del chunk
                if out:
                    matches += len(out)
                    yield out
                del out
        finally:
            if tracker is not None:
                tracker.record_comparison(probes + matches)
            if emitted is not None:
                emitted(matches)

    return Kernel(schema, schema.name, body)


def natural_join_kernel(left_schema: RelationSchema, right, name: str) -> Kernel:
    """:func:`stream_natural_join`, prepared against ``left_schema``."""
    right_schema = right.schema
    common = [f for f in left_schema.field_names if f in right_schema]
    right_only = tuple(f for f in right_schema.fields if f.name not in left_schema)
    if not right_only:
        # A natural join that adds no column is a semijoin.  Exact because
        # operands are duplicate-free *sets*: every stream row has at most
        # one partner, so filtering on the key set emits what enumerating
        # ``{key: [()]}`` would.  Once rows carry annotations (bags,
        # provenance) the identity holds only where the annotation semiring
        # makes the partner's factor vanish — Kolaitis, "Semijoins of
        # Annotated Relations" (PAPERS.md), is the reference before relying
        # on it there.  Probes and kept rows both count, as the join's
        # probes and matches did.
        return semijoin_kernel(left_schema, right, [(f, f) for f in common], name, True)
    schema = RelationSchema(name, left_schema.fields + right_only, key=None)
    right_rest = _values_getter(right_schema, [f.name for f in right_only])
    return _hash_join(
        schema, match_getter(left_schema, common), right, common, right_rest, "buckets"
    )


def stream_natural_join(
    source,
    right,
    name: str | None = None,
    tracker: AccessStatistics | None = None,
    emitted: Emitted | None = None,
):
    """Streaming natural join on the common components (hash build on ``right``).

    The common components appear once in the output (the stream's copy).
    With no common component this degenerates to the streaming Cartesian
    product — the combination phase's range extension.  One
    comparison is recorded per probe and per matching pair, flushed when the
    pipeline closes.
    """
    kernel = natural_join_kernel(source.schema, right, name or f"{source.label}_nj_{right.name}")
    return kernel(source, tracker, emitted=emitted)


def semijoin_kernel(
    left_schema: RelationSchema,
    right,
    on: Sequence[tuple[str, str]],
    label: str,
    count_kept: bool = False,
) -> Kernel:
    """:func:`stream_semijoin`, prepared against ``left_schema``; with
    ``count_kept`` a kept row costs a second comparison (see
    :func:`natural_join_kernel`)."""
    left_getter = match_getter(left_schema, [pair[0] for pair in on])
    partnered = _key_set(right, [pair[1] for pair in on]).__contains__

    def body(source, tracker, live, emitted, demand):
        probes = kept = 0
        try:
            for chunk in source.chunks():
                probes += len(chunk)
                out = list(compress(chunk, map(partnered, map(left_getter, chunk))))
                del chunk
                if out:
                    kept += len(out)
                    yield out
                del out
        finally:
            if tracker is not None:
                tracker.record_comparison(probes + kept if count_kept else probes)
            if emitted is not None:
                emitted(kept)

    return Kernel(left_schema, label, body)


def stream_semijoin(
    source,
    right,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
    emitted: Emitted | None = None,
):
    """Streaming semi-join: rows of the stream with at least one partner.

    Membership is a single set probe per row — the partner group is never
    enumerated, which is what makes this the short-circuit form of
    existential-quantifier elimination inside a join chain.
    """
    kernel = semijoin_kernel(
        source.schema, right, on, name or f"{source.label}_semijoin_{right.name}"
    )
    return kernel(source, tracker, emitted=emitted)


def union_kernel(schema: RelationSchema, label: str, dedup: bool = True) -> Kernel:
    """:func:`stream_union` over ``schema``; its source is a sequence of streams."""
    key_of = _key_getter(schema)

    def body(sources, tracker, live, emitted, demand):
        seen: set[tuple] = set()
        add = seen.add
        checked = 0
        count = 0
        try:
            for position, source in enumerate(sources):
                for chunk in source.chunks():
                    if position:
                        checked += len(chunk)
                    out = chunk
                    if dedup:
                        out = [
                            row for row, key in
                            zip(chunk, chunk if key_of is None else map(key_of, chunk))
                            if key not in seen and not add(key)
                        ]
                        if live is not None:
                            live.acquire(len(out))
                    del chunk
                    if out:
                        count += len(out)
                        yield out
                    del out
        finally:
            if live is not None:
                live.release(len(seen))
            if tracker is not None and checked:
                tracker.record_comparison(checked)
            if emitted is not None:
                emitted(count)

    return Kernel(schema, label, body)


def stream_union(
    sources: Sequence,
    schema: RelationSchema | None = None,
    name: str | None = None,
    tracker: AccessStatistics | None = None,
    live=None,
    dedup: bool = True,
    emitted: Emitted | None = None,
):
    """Streaming union of several row streams over the same components.

    Rows of earlier sources win on key collisions ("left wins"); sources
    must share their component names (:class:`~repro.errors.AlgebraError`
    otherwise).  The dedup set is the union's breaker *state* — chunks still
    flow through as they come, but the set of keys seen so far stays live
    for the life of the operator and is reported to ``live``.  One
    comparison is recorded per row arriving from any source after the first
    (each is checked against the union so far).
    """
    sources = list(sources)
    if not sources and schema is None:
        raise AlgebraError("stream_union needs at least one source or an explicit schema")
    out_schema = schema if schema is not None else sources[0].schema
    for source in sources:
        if source.schema.field_names != out_schema.field_names:
            raise AlgebraError(
                f"union requires identical schemas; got {out_schema.field_names} "
                f"and {source.schema.field_names}"
            )
    return union_kernel(out_schema, name or "union", dedup)(sources, tracker, live, emitted)


def divide_kernel(
    source_schema: RelationSchema, divisor, by: Sequence[tuple[str, str]], name: str
) -> Kernel:
    """:func:`stream_divide`, prepared against ``source_schema``."""
    divisor_fields = [pair[0] for pair in by]
    dividend_match_fields = [pair[1] for pair in by]
    for f in divisor_fields:
        if not divisor.schema.has_field(f):
            raise AlgebraError(f"divisor has no component {f!r}")
    for f in dividend_match_fields:
        if not source_schema.has_field(f):
            raise AlgebraError(f"dividend has no component {f!r}")
    remaining = [f for f in source_schema.field_names if f not in dividend_match_fields]
    if not remaining:
        raise AlgebraError("division would eliminate every dividend component")
    required = _key_set(divisor, divisor_fields)
    if not required:
        return project_kernel(source_schema, remaining, name, dedup=True)
    from repro.engine.stream import ramped

    groups_of = _chunk_getter(source_schema, remaining)
    match_of = match_getter(source_schema, dividend_match_fields)

    def body(source, tracker, live, emitted, demand):
        groups: dict[tuple, set] = {}
        consumed = buffered = count = 0
        try:
            for chunk in source.chunks():
                consumed += len(chunk)
                held = buffered
                # The breaker's table: a lookup per row (faster than pair-wise sets).
                for group, value in zip(groups_of(chunk), map(match_of, chunk)):
                    matches = groups.get(group)
                    if matches is None:
                        matches = groups[group] = set()
                    if value not in matches:
                        matches.add(value)
                        buffered += 1
                del chunk
                if live is not None:
                    live.acquire(buffered - held)
            if tracker is not None:
                tracker.record_comparison(consumed + len(groups) * len(required))
            for out in ramped([group for group, matches in groups.items() if required <= matches], demand):
                count += len(out)
                yield out
        finally:
            if live is not None:
                live.release(buffered)
            if emitted is not None:
                emitted(count)

    return Kernel(source_schema.project(remaining, name), name, body)


def stream_divide(
    source,
    divisor,
    by: Sequence[tuple[str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
    live=None,
    emitted: Emitted | None = None,
):
    """Streaming relational division — the universal-quantifier breaker.

    ``by`` pairs each divisor component with the dividend component it must
    match.  Division is a genuine pipeline breaker: the whole input must be
    seen before any group is known to match every divisor element, so the
    operator buffers a ``{group: matched values}`` table (reported to
    ``live``) and then emits the qualifying groups *group-wise*, in chunks
    cut as ``demand`` asks — each surviving group exactly once, without
    materialising an output relation.

    An empty divisor degenerates to the deduplicating projection on the
    remaining components (the vacuous-truth convention).
    """
    kernel = divide_kernel(source.schema, divisor, by, name or f"{source.label}_div_{divisor.name}")
    return kernel(source, tracker, live, emitted)
