"""Relational algebra on :class:`~repro.relational.relation.Relation` values.

Section 3.3 of the paper evaluates the combination phase with "operations
like join or Cartesian product of reference relations", a union over the
conjunctions of the disjunctive normal form, *projection* for existential
quantifiers and *division* for universal quantifiers (after Codd).  This
module implements those operators — plus the semijoin/antijoin pair the paper
relates to Bernstein & Chiu's semi-join technique — for arbitrary relations,
whether their components are ordinary values or references.

Every hot kernel comes in two forms:

* a **streaming variant** (``stream_*``) that consumes a
  :class:`~repro.engine.stream.RowStream` on its pipeline side and produces a
  new ``RowStream``, buffering tuples only where the operator is a genuine
  pipeline breaker (division's group table, union's dedup state); build
  sides (hash tables, key sets) are taken from already-materialised
  operands — relations, or :class:`~repro.engine.stream.Rows` of bare value
  tuples, which is how the combination phase runs these very operators over
  dense reference ids — and
* the classic **``Relation``-returning signature**, now a thin materialising
  wrapper over the streaming variant, so existing callers keep working
  unchanged while the engine migrates incrementally.

All operators are pure functions: they never modify their operands and return
fresh relations (or single-use streams).  Schema compatibility problems raise
:class:`~repro.errors.AlgebraError`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import AlgebraError
from repro.relational.record import Record
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import compare_values
from repro.types.schema import RelationSchema

__all__ = [
    "select",
    "project",
    "rename",
    "product",
    "join",
    "natural_join",
    "theta_join",
    "union",
    "difference",
    "intersection",
    "divide",
    "semijoin",
    "antijoin",
    "theta_semijoin",
    "extend_product",
    "distinct_values",
    "stream_select",
    "stream_project",
    "stream_join",
    "stream_natural_join",
    "stream_semijoin",
    "stream_theta_semijoin",
    "stream_union",
    "stream_divide",
]


def _require_same_schema(left: Relation, right: Relation, operation: str) -> None:
    if left.schema.field_names != right.schema.field_names:
        raise AlgebraError(
            f"{operation} requires identical schemas; got {left.schema.field_names} "
            f"and {right.schema.field_names}"
        )


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
# The pipeline side of every streaming kernel is a RowStream of raw value
# tuples; build sides are materialised operands — relations, or Rows of bare
# tuples (in the engine: collection-phase structures over dense reference
# ids, which exist regardless).  The kernels never look inside a value, so
# the same code joins integers, references or a shard's pickled pairs.
#
# Accounting is fused into each operator's one generator: comparisons go to
# ``tracker`` and, when the caller passes an ``emitted`` hook, the operator
# calls it once with its output row count as the generator closes — a
# pipeline needs no counting wrapper (and no extra frame per row) around its
# operators.  The kernels import RowStream lazily: ``repro.relational`` must
# stay importable without pulling the whole ``repro.engine`` package in at
# module-import time.

Emitted = Callable[[int], None]


def _row_stream(schema: RelationSchema, rows: Iterable[tuple], label: str):
    from repro.engine.stream import RowStream

    return RowStream(schema, rows, label=label)


def stream_select(source, predicate: Callable[[Record], bool], name: str | None = None):
    """Streaming restriction: rows whose record satisfies ``predicate``."""
    schema = source.schema

    def rows() -> Iterator[tuple]:
        raw = Record.raw
        for values in source:
            if predicate(raw(schema, values)):
                yield values

    return _row_stream(schema, rows(), name or f"select_{source.label}")


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
    schema = source.schema.project(field_names, name or f"{source.label}_projection")
    identity = tuple(field_names) == source.schema.field_names
    getter = None if identity else _values_getter(source.schema, field_names)

    def rows() -> Iterator[tuple]:
        if identity and not dedup and emitted is None:
            yield from source
            return
        seen: set[tuple] = set()
        add = seen.add
        count = 0
        try:
            for values in source:
                out = values if identity else getter(values)
                if dedup:
                    if out in seen:
                        continue
                    add(out)
                    if live is not None:
                        live.acquire()
                count += 1
                yield out
        finally:
            if live is not None:
                live.release(len(seen))
            if emitted is not None:
                emitted(count)

    return _row_stream(schema, rows(), schema.name)


def stream_join(
    source,
    right,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
):
    """Streaming equi-join keeping both operands in full (hash build on ``right``)."""
    schema = source.schema.concat(
        right.schema, name or f"{source.label}_join_{right.name}"
    )
    left_key = match_getter(source.schema, [pair[0] for pair in on])
    right_key = match_getter(right.schema, [pair[1] for pair in on])
    buckets: dict[object, list[tuple]] = {}
    for values in value_rows(right):
        buckets.setdefault(right_key(values), []).append(values)

    def rows() -> Iterator[tuple]:
        probes = 0
        matches = 0
        get_bucket = buckets.get
        try:
            for values in source:
                probes += 1
                partners = get_bucket(left_key(values))
                if partners:
                    matches += len(partners)
                    for right_values in partners:
                        yield values + right_values
        finally:
            if tracker is not None:
                tracker.record_comparison(probes + matches)

    return _row_stream(schema, rows(), schema.name)


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
    product — the ``extend_product`` of the combination phase.  One
    comparison is recorded per probe and per matching pair, flushed when the
    pipeline closes.
    """
    left_schema = source.schema
    right_schema = right.schema
    common = [f for f in left_schema.field_names if f in right_schema]
    right_only = tuple(f for f in right_schema.fields if f.name not in left_schema)
    schema = RelationSchema(
        name or f"{source.label}_nj_{right.name}", left_schema.fields + right_only, key=None
    )
    right_key = match_getter(right_schema, common)
    left_key = match_getter(left_schema, common)
    right_rest = _values_getter(right_schema, [f.name for f in right_only])

    def build() -> dict[object, list[tuple]]:
        buckets: dict[object, list[tuple]] = {}
        for values in value_rows(right):
            buckets.setdefault(right_key(values), []).append(right_rest(values))
        return buckets

    buckets = _build_side(right, "buckets", common, build)

    def rows() -> Iterator[tuple]:
        probes = 0
        matches = 0
        get_bucket = buckets.get
        try:
            for values in source:
                probes += 1
                partners = get_bucket(left_key(values))
                if partners:
                    matches += len(partners)
                    for rest in partners:
                        yield values + rest
        finally:
            if tracker is not None:
                tracker.record_comparison(probes + matches)
            if emitted is not None:
                emitted(matches)

    return _row_stream(schema, rows(), schema.name)


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
    schema = source.schema
    left_getter = match_getter(schema, [pair[0] for pair in on])
    right_keys = _key_set(right, [pair[1] for pair in on])

    def rows() -> Iterator[tuple]:
        probes = 0
        kept = 0
        try:
            for values in source:
                probes += 1
                if left_getter(values) in right_keys:
                    kept += 1
                    yield values
        finally:
            if tracker is not None:
                tracker.record_comparison(probes)
            if emitted is not None:
                emitted(kept)

    return _row_stream(schema, rows(), name or f"{source.label}_semijoin_{right.name}")


def stream_theta_semijoin(
    source,
    right,
    on: Sequence[tuple[str, str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
):
    """Streaming semi-join under arbitrary comparison operators.

    ``on`` holds ``(left_field, operator, right_field)`` triples; probing
    stops at the first satisfying partner (short-circuit).
    """
    schema = source.schema
    left_getter = _values_getter(schema, [lf for lf, _, _ in on])
    right_getter = _values_getter(right.schema, [rf for _, _, rf in on])
    operators = [op for _, op, _ in on]
    right_tuples = [right_getter(values) for values in value_rows(right)]

    def rows() -> Iterator[tuple]:
        probes = 0
        try:
            for values in source:
                probes += 1
                left_values = left_getter(values)
                for right_values in right_tuples:
                    if all(
                        compare_values(op, lv, rv)
                        for op, lv, rv in zip(operators, left_values, right_values)
                    ):
                        yield values
                        break
        finally:
            if tracker is not None:
                tracker.record_comparison(probes)

    return _row_stream(schema, rows(), name or f"{source.label}_tsemijoin_{right.name}")


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

    Rows of earlier sources win on key collisions (matching the historical
    "left wins" behaviour of the materialised operator).  The dedup set is
    the union's breaker *state* — rows still flow through one at a time, but
    the set of keys seen so far stays live for the life of the operator and
    is reported to ``live``.  One comparison is recorded per row arriving
    from any source after the first (the rows the materialised operator
    checked against the accumulating result).
    """
    sources = list(sources)
    if not sources and schema is None:
        raise AlgebraError("stream_union needs at least one source or an explicit schema")
    out_schema = schema if schema is not None else sources[0].schema
    key_of = _key_getter(out_schema)

    def rows() -> Iterator[tuple]:
        seen: set[tuple] = set()
        add = seen.add
        checked = 0
        count = 0
        try:
            for position, source in enumerate(sources):
                for values in source:
                    if position:
                        checked += 1
                    if dedup:
                        key = values if key_of is None else key_of(values)
                        if key in seen:
                            continue
                        add(key)
                        if live is not None:
                            live.acquire()
                    count += 1
                    yield values
        finally:
            if live is not None:
                live.release(len(seen))
            if tracker is not None and checked:
                tracker.record_comparison(checked)
            if emitted is not None:
                emitted(count)

    return _row_stream(out_schema, rows(), name or "union")


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
    ``live``) and then emits the qualifying groups *group-wise* — each
    surviving group exactly once, without materialising an output relation.

    An empty divisor degenerates to the deduplicating projection on the
    remaining components (the vacuous-truth convention).
    """
    divisor_fields = [pair[0] for pair in by]
    dividend_match_fields = [pair[1] for pair in by]
    for f in divisor_fields:
        if not divisor.schema.has_field(f):
            raise AlgebraError(f"divisor has no component {f!r}")
    for f in dividend_match_fields:
        if not source.schema.has_field(f):
            raise AlgebraError(f"dividend has no component {f!r}")
    remaining = [f for f in source.schema.field_names if f not in dividend_match_fields]
    if not remaining:
        raise AlgebraError("division would eliminate every dividend component")
    schema = source.schema.project(remaining, name or f"{source.label}_div_{divisor.name}")
    required = _key_set(divisor, divisor_fields)
    if not required:
        return stream_project(
            source, remaining, name=schema.name, dedup=True, live=live, emitted=emitted
        )
    group_getter = _values_getter(source.schema, remaining)
    match_of = match_getter(source.schema, dividend_match_fields)

    def rows() -> Iterator[tuple]:
        groups: dict[tuple, set] = {}
        consumed = 0
        buffered = 0
        count = 0
        try:
            for values in source:
                consumed += 1
                group = group_getter(values)
                matches = groups.get(group)
                if matches is None:
                    matches = groups[group] = set()
                value = match_of(values)
                if value not in matches:
                    matches.add(value)
                    buffered += 1
                    if live is not None:
                        live.acquire()
            if tracker is not None:
                tracker.record_comparison(consumed + len(groups) * len(required))
            for group, matches in groups.items():
                if required <= matches:
                    count += 1
                    yield group
        finally:
            if live is not None:
                live.release(buffered)
            if emitted is not None:
                emitted(count)

    return _row_stream(schema, rows(), schema.name)


# ================================================================== materialising kernels


def select(relation: Relation, predicate: Callable[[Record], bool], name: str | None = None) -> Relation:
    """Restriction: the elements of ``relation`` satisfying ``predicate``."""
    result = Relation(name or f"select_{relation.name}", relation.schema)
    for record in relation:
        if predicate(record):
            result.insert(record)
    return result


def project(
    relation: Relation,
    field_names: Sequence[str],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Projection on ``field_names`` with duplicate elimination.

    This is the operator used for *existential* quantifier elimination in the
    materialised combination phase: projecting an n-tuple reference relation
    on the columns of the remaining variables.  A thin wrapper over
    :func:`stream_project`; duplicates collapse through the result relation's
    key dictionary (its key covers all components).
    """
    from repro.engine.stream import RowStream

    stream = stream_project(
        RowStream.from_relation(relation),
        field_names,
        name=name or f"project_{relation.name}",
    )
    result = stream.materialize()
    if tracker is not None:
        tracker.record_intermediate(len(result))
    return result


def rename(relation: Relation, mapping: Mapping[str, str], name: str | None = None) -> Relation:
    """Rename components according to ``mapping``."""
    schema = relation.schema.rename(mapping, name or relation.name)
    result = Relation(schema.name, schema)
    for record in relation:
        result.insert(Record.raw(schema, record.values))
    return result


def product(
    left: Relation,
    right: Relation,
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Cartesian product.  Component names must not clash."""
    schema = left.schema.concat(right.schema, name or f"{left.name}_x_{right.name}")
    result = Relation(schema.name, schema)
    right_records = right.elements()
    for left_record in left:
        for right_record in right_records:
            result.insert(Record.raw(schema, left_record.values + right_record.values))
    if tracker is not None:
        tracker.record_intermediate(len(result))
    return result


def theta_join(
    left: Relation,
    right: Relation,
    predicate: Callable[[Record, Record], bool],
    name: str | None = None,
) -> Relation:
    """General theta-join: product restricted by ``predicate``."""
    schema = left.schema.concat(right.schema, name or f"{left.name}_join_{right.name}")
    result = Relation(schema.name, schema)
    right_records = right.elements()
    for left_record in left:
        for right_record in right_records:
            if predicate(left_record, right_record):
                result.insert(Record.raw(schema, left_record.values + right_record.values))
    return result


def join(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
) -> Relation:
    """Equi-join on pairs of component names ``(left_field, right_field)``.

    The joined-on right components are *kept* (both operands appear in full),
    matching the paper's combination step where shared reference columns are
    compared (``cl.cref = c2.cref`` in Example 3.2).  A thin wrapper over
    :func:`stream_join`, so the cost is linear in the operand sizes plus the
    output size (hash join).
    """
    if not on:
        return product(left, right, name)
    from repro.engine.stream import RowStream

    stream = stream_join(
        RowStream.from_relation(left),
        right,
        on,
        name=name or f"{left.name}_join_{right.name}",
    )
    return stream.materialize()


def natural_join(
    left: Relation,
    right: Relation,
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Natural join on the components the operands have in common.

    The common components appear once in the result (left operand's copy).
    This is the join used when combining single lists and indirect joins that
    share a variable's reference column.  A thin wrapper over
    :func:`stream_natural_join`: one comparison is recorded per probe and per
    matching pair, and the result size is recorded as an intermediate
    relation when a ``tracker`` is supplied.
    """
    from repro.engine.stream import RowStream

    stream = stream_natural_join(
        RowStream.from_relation(left),
        right,
        name=name or f"{left.name}_nj_{right.name}",
        tracker=tracker,
    )
    result = stream.materialize()
    if tracker is not None:
        tracker.record_intermediate(len(result))
    return result


def union(
    left: Relation,
    right: Relation,
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Set union of two relations over the same components.

    Elements of ``left`` win on key collisions (matching the historical
    behaviour of inserting ``left`` first and skipping present keys).  A thin
    wrapper over :func:`stream_union`; key positions are resolved once per
    call, not once per record.
    """
    _require_same_schema(left, right, "union")
    from repro.engine.stream import RowStream

    stream = stream_union(
        (RowStream.from_relation(left), RowStream.from_relation(right)),
        schema=left.schema,
        tracker=tracker,
    )
    result = Relation(name or f"{left.name}_union_{right.name}", left.schema)
    raw = Record.raw
    schema = left.schema
    result.bulk_insert_raw(raw(schema, values) for values in stream)
    if tracker is not None:
        tracker.record_intermediate(len(result))
    return result


def difference(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Set difference ``left - right``.

    The schemas are component-wise identical (checked), so membership is
    decided on raw value tuples — positions resolve once per call instead of
    building and hashing a record per element.
    """
    _require_same_schema(left, right, "difference")
    right_values = {record.values for record in right}
    result = Relation(name or f"{left.name}_minus_{right.name}", left.schema)
    insert = result.insert_raw
    for record in left:
        if record.values not in right_values:
            insert(record)
    return result


def intersection(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Set intersection (value-tuple membership, positions resolved once per call)."""
    _require_same_schema(left, right, "intersection")
    right_values = {record.values for record in right}
    result = Relation(name or f"{left.name}_and_{right.name}", left.schema)
    insert = result.insert_raw
    for record in left:
        if record.values in right_values:
            insert(record)
    return result


def divide(
    dividend: Relation,
    divisor: Relation,
    by: Sequence[tuple[str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Relational division — the operator for *universal* quantification.

    ``by`` pairs each divisor component with the dividend component it must
    match, e.g. ``[("p_ref", "p_ref")]``.  The result keeps the remaining
    dividend components and contains a combination exactly when it appears in
    the dividend together with *every* element of the divisor.  A thin
    wrapper over :func:`stream_divide`.

    An empty divisor yields the projection of the dividend on the remaining
    components (the vacuous-truth convention); the engine normally removes
    empty ranges beforehand via the Lemma 1 runtime adaptation, so this case
    only arises in direct algebra use.
    """
    from repro.engine.stream import RowStream

    stream = stream_divide(
        RowStream.from_relation(dividend),
        divisor,
        by,
        name=name or f"{dividend.name}_div_{divisor.name}",
        tracker=tracker,
    )
    result = stream.materialize()
    if tracker is not None:
        tracker.record_intermediate(len(result))
    return result


def semijoin(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Semi-join: elements of ``left`` that join with at least one element of ``right``.

    This is the operation Bernstein & Chiu's technique is built on; Section 4.4
    interprets it as existential-quantifier evaluation in the collection phase,
    and the combination-phase reducer pass uses it to shrink conjunct
    structures before any n-tuple join.  A thin wrapper over
    :func:`stream_semijoin`.
    """
    from repro.engine.stream import RowStream

    stream = stream_semijoin(
        RowStream.from_relation(left),
        right,
        on,
        name=name or f"{left.name}_semijoin_{right.name}",
        tracker=tracker,
    )
    return stream.materialize()


def antijoin(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Anti-join: elements of ``left`` that join with *no* element of ``right``."""
    left_fields = [pair[0] for pair in on]
    right_fields = [pair[1] for pair in on]
    right_getter = _values_getter(right.schema, right_fields)
    left_getter = _values_getter(left.schema, left_fields)
    right_keys = {right_getter(rec.values) for rec in right}
    result = Relation(name or f"{left.name}_antijoin_{right.name}", left.schema)
    insert = result.insert_raw
    for record in left:
        if left_getter(record.values) not in right_keys:
            insert(record)
    if tracker is not None:
        tracker.record_comparison(len(left))
        tracker.record_intermediate(len(result))
    return result


def theta_semijoin(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str, str]],
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Semi-join under arbitrary comparison operators.

    ``on`` holds ``(left_field, operator, right_field)`` triples; an element of
    ``left`` qualifies when some element of ``right`` satisfies every triple.
    Used by the general collection-phase quantifier evaluation of Strategy 4
    when the connecting join term is not an equality.  A thin wrapper over
    :func:`stream_theta_semijoin`.
    """
    from repro.engine.stream import RowStream

    stream = stream_theta_semijoin(
        RowStream.from_relation(left),
        right,
        on,
        name=name or f"{left.name}_tsemijoin_{right.name}",
        tracker=tracker,
    )
    return stream.materialize()


def extend_product(
    relation: Relation,
    extra: Relation,
    name: str | None = None,
    tracker: AccessStatistics | None = None,
) -> Relation:
    """Cartesian-product extension used by the combination phase.

    When a conjunction of the disjunctive normal form does not mention some
    variable at all, its n-tuple reference relation must still carry a column
    for that variable ranging over *all* elements of the variable's range
    (Section 3.3 builds n-tuples for *all* n variables).  This helper is a
    named, intention-revealing wrapper around :func:`product`; like the other
    kernels it reports its result size as an intermediate relation.
    """
    return product(relation, extra, name, tracker=tracker)


def distinct_values(relation: Relation, field_name: str) -> set:
    """The set of distinct values of one component (used for value lists)."""
    return {record[field_name] for record in relation}
