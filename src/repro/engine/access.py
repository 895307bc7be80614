"""Cost-based access-path selection (this repository's extension).

The paper observes that the collection phase's index-building scan "can be
omitted, if permanent indexes exist" (Section 3.2), but only ever exploits
that for the build side of indirect joins.  This module generalises the
observation into a per-variable *access-path selector*: every place the
engine enumerates the (possibly extended) range of a variable — range
expressions, monadic single lists, Strategy 4 derived-predicate outer loops,
the constant-matrix shortcut — first asks the selector how to enumerate it:

``probe``
    a permanent :class:`~repro.relational.index.HashIndex` (``=``) or
    :class:`~repro.relational.index.SortedIndex` (``=``/``<``/``<=``/``>``/
    ``>=``) answers one restriction conjunct directly with element keys;
    qualifying elements are fetched by key and only the *residual*
    restriction is evaluated per element.  Sub-linear in the relation size.
``scan``
    the Strategy 1 shared scan (or the per-structure scan of the
    unoptimised engine) with the full restriction evaluated per element.

The decision is *cost-based* and depends only on the catalog (which indexes
exist, their sizes and distinct counts, relation cardinalities; on a pin,
which index views are built) and the query structure — never on a compared
value, constant or ``$param`` — so one rule prices every read,
and a selection's plan keeps the decision while the probe value late-binds
at execution time (the bound plan carries the constant the probe reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import log2
from typing import Any, Iterator, NamedTuple

from repro.calculus.ast import And, Comparison, Const, FieldRef, Formula, Param, RangeExpr
from repro.config import StrategyOptions
from repro.engine.naive import restriction_flags
from repro.engine.stream import Demand, next_chunk, ramped
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.record import Record, values_of
from repro.types.scalar import swap_operator

__all__ = [
    "SCAN",
    "PROBE",
    "AccessPath",
    "probe_term",
    "restriction_conjuncts",
    "select_access_path",
    "AccessDecision",
    "decide_access",
    "decided_path",
    "access_chunks",
    "iter_access",
]

SCAN = "scan"
PROBE = "probe"

#: Operators an index organisation can answer sub-linearly (``<>`` excluded:
#: neither a hash bucket lookup nor a bisection serves it better than a scan).
_PROBE_OPERATORS = ("=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class _ProbeTerm:
    """One restriction conjunct ``var.field op operand``, probe-oriented."""

    field: str
    op: str
    operand: object  # Const (bound) or Param (unbound service plan)

    def bound_value(self) -> tuple[bool, Any]:
        """``(True, value)`` when the probe value is known, else ``(False, None)``."""
        if isinstance(self.operand, Const):
            return True, self.operand.value
        return False, None

    def describe_value(self) -> str:
        if isinstance(self.operand, Param):
            return f"${self.operand.name}"
        return repr(getattr(self.operand, "value", self.operand))


@dataclass
class AccessPath:
    """The selector's decision for one variable's range enumeration."""

    var: str
    relation_name: str
    kind: str  # SCAN | PROBE
    restriction: Formula | None = None
    probe: _ProbeTerm | None = None
    residual: Formula | None = None  # restriction minus the probed conjunct
    #: The index a PROBE path reads, as the selector found it in the catalog
    #: (on a pinned snapshot: the view over the pin's own contents).
    index: HashIndex | SortedIndex | None = field(default=None, repr=False, compare=False)
    estimated_cost: float = 0.0
    scan_cost: float = 0.0
    note: str = ""

    @property
    def index_name(self) -> str | None:
        return self.index.name if self.index is not None else None

    def describe(self) -> str:
        suffix = f" [{self.note}]" if self.note else ""
        if self.kind == PROBE:
            assert self.probe is not None
            return (
                f"probe {self.index_name} ({self.relation_name}.{self.probe.field} "
                f"{self.probe.op} {self.probe.describe_value()}, "
                f"est. {self.estimated_cost:.0f} vs scan {self.scan_cost:.0f})"
                + (", residual filter" if self.residual is not None else "")
                + suffix
            )
        return f"scan {self.relation_name}{suffix}"


def restriction_conjuncts(formula: Formula | None) -> list[Formula]:
    """The top-level conjuncts of a range restriction (empty for ``None``)."""
    if formula is None:
        return []
    if isinstance(formula, And):
        return list(formula.operands)
    return [formula]


def probe_term(var: str, conjunct: Formula) -> _ProbeTerm | None:
    """``conjunct`` as a probe-able term over ``var``, or ``None``.

    Accepts ``var.field op value`` and ``value op var.field`` (operator
    swapped) where ``value`` is a constant or a ``$parameter`` and ``op`` is
    one of the sub-linear probe operators.
    """
    if not isinstance(conjunct, Comparison):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, FieldRef) and left.var == var and isinstance(right, (Const, Param)):
        op = conjunct.op
        field_name = left.field
        operand = right
    elif isinstance(right, FieldRef) and right.var == var and isinstance(left, (Const, Param)):
        op = swap_operator(conjunct.op)
        field_name = right.field
        operand = left
    else:
        return None
    if op not in _PROBE_OPERATORS:
        return None
    return _ProbeTerm(field_name, op, operand)


def _residual_of(conjuncts: list[Formula], position: int) -> Formula | None:
    """The restriction with the probed conjunct removed."""
    rest = [c for i, c in enumerate(conjuncts) if i != position]
    if not rest:
        return None
    if len(rest) == 1:
        return rest[0]
    return And(*rest)


def _probe_cost(index, op: str) -> float | None:
    """Estimated elements touched by probing ``index`` — a view, or the
    catalog entry of one not built yet — with operator ``op``.

    ``None`` when the index organisation cannot answer the operator
    sub-linearly.  The price reads the index's own counts, never the probe
    value: both organisations count their distinct values once per build,
    so equality is the true ``size/distinct`` bucket average; a range is
    the distribution-free one-third guess.  A sorted index adds its
    bisection.
    """
    size, distinct = index.counts
    size, distinct = max(size, 1), max(distinct, 1)
    if index.organisation is HashIndex:
        return size / distinct if op == "=" else None
    if op == "=":
        return log2(size) + size / distinct
    return log2(size) + size / 3.0


def select_access_path(
    database,
    var: str,
    range_expr: RangeExpr,
    options: StrategyOptions,
) -> AccessPath:
    """Choose how to enumerate the (possibly extended) range of ``var``.

    Decision rule (also documented in DESIGN.md): among the restriction's
    top-level conjuncts of the shape ``var.field op value``, pick the
    permanent index whose estimated probe cost is lowest; take it when that
    cost undercuts the full scan; otherwise scan.  Candidates are priced
    through ``database.index_candidate`` — which never builds a view, and
    keeps one that is not worth building yet off the table — at their probe
    cost, and only the winner is resolved with ``index_for``; when that has
    to build the view, the path's estimate includes the reads and says so.
    The rule reads catalog state only (indexes and their counts,
    cardinalities); a constant and a ``$param`` are priced the same.
    """
    return decided_path(database, var, range_expr, decide_access(database, var, range_expr, options))


class AccessDecision(NamedTuple):
    """:func:`select_access_path`'s rule, decided for one range (:func:`decide_access`)."""

    kind: str  # SCAN | PROBE
    position: int  # of the probed conjunct in the restriction; -1: none
    cost: float
    scan_cost: float
    build_reads: int  # element reads that build a pinned index view first
    #: Every execution at the same catalog and contents versions decides the
    #: same (a selection's plan then keeps the decision): no pinned view was
    #: passed over or built.  Always true on the engine door's pin.
    settled: bool


def decide_access(
    database, var: str, range_expr: RangeExpr, options: StrategyOptions
) -> AccessDecision:
    """Take :func:`select_access_path`'s decision without resolving the index."""
    relation = database.relation(range_expr.relation)
    restriction = range_expr.restriction
    scan_cost = float(len(relation))
    if not options.use_index_paths or restriction is None:
        return AccessDecision(SCAN, -1, 0.0, scan_cost, 0, True)
    best: tuple[float, int, int] | None = None
    settled = True
    for position, conjunct in enumerate(restriction_conjuncts(restriction)):
        term = probe_term(var, conjunct)
        if term is None:
            continue
        index, build_reads = database.index_candidate(relation.name, term.field)
        if index is None:
            # A pin answers "none" for a view not on offer yet: the next sight prices it.
            settled = settled and (relation.name, term.field) not in database.indexes()
        elif build_reads:
            settled = False
        cost = None if index is None else _probe_cost(index, term.op)
        if cost is not None and (best is None or cost < best[0]):
            best = (cost, position, build_reads)
    if best is not None and best[0] < scan_cost:
        cost, position, build_reads = best
        return AccessDecision(PROBE, position, cost + build_reads, scan_cost, build_reads, settled)
    return AccessDecision(SCAN, -1, 0.0, scan_cost, 0, settled)


def decided_path(
    database, var: str, range_expr: RangeExpr, decision: AccessDecision
) -> AccessPath:
    """``decision`` as the path of one binding of the range: the probe value
    and the residual are the binding's, the index — on a pin, the view —
    ``database``'s own."""
    relation, restriction = range_expr.relation, range_expr.restriction
    probe = residual = index = None
    if decision.kind == PROBE:
        conjuncts = restriction_conjuncts(restriction)
        probe = probe_term(var, conjuncts[decision.position])
        residual = _residual_of(conjuncts, decision.position)
        index = database.index_for(relation, probe.field)
    reads = decision.build_reads
    return AccessPath(
        var, relation, decision.kind, restriction, probe, residual, index,
        decision.cost, decision.scan_cost, f"builds the view: {reads} reads" if reads else "",
    )


def access_chunks(
    database,
    path: AccessPath,
    var: str,
    demand: Demand | None = None,
) -> Iterator[tuple[list[tuple], list[Record]]]:
    """Enumerate the in-range elements of ``var`` as ``(keys, records)`` chunks,
    cut like any pipeline source's as ``demand`` asks (:func:`~repro.engine.stream.ramped`).

    The probe path takes the keys from the index the selector put on ``path``
    in one probe and reads a chunk of them at a time through the relation's
    tracked ``fetch_many`` (one element read per key; an element deleted
    since the probe is a :class:`~repro.errors.DanglingReferenceError`, as in
    the construction phase), applying only the residual restriction; the
    scan path is the classic scan-and-filter over ramped chunks of the
    relation's elements, each charged as it is pulled, rejected elements
    included: a reader that stops early pays for what it read.
    """
    relation = database.relation(path.relation_name)
    bound, value = path.probe.bound_value() if path.probe is not None else (False, None)
    if path.index is not None and bound:
        residual = path.residual and restriction_flags(path.residual, var, relation.schema, database)
        probed, start, size = path.index.probe_operator(path.probe.op, value), 0, 0
        while start < len(probed):  # ``ramped``, by slices of the one list
            size = next_chunk(size, demand)
            keys = probed[start : start + size]
            start += size
            records = relation.fetch_many(keys)
            if residual is not None:
                kept = residual(records)
                keys, records = list(compress(keys, kept)), list(compress(records, kept))
            if keys:
                yield keys, records
        return
    # A scan — also for an unbound parameter, which no index can be probed with.
    restriction = path.restriction and restriction_flags(path.restriction, var, relation.schema, database)
    keys_of, tracker = relation.schema.keys_of, relation.tracker
    if tracker is not None:
        tracker.record_scan(relation.name)
    for chunk in ramped(relation.elements(), demand):
        if tracker is not None:
            tracker.record_element_read(relation.name, len(chunk))
        if restriction is not None:
            chunk = list(compress(chunk, restriction(chunk)))
        if chunk:
            yield keys_of(list(values_of(chunk))), chunk


def iter_access(
    database,
    path: AccessPath,
    var: str,
) -> Iterator[tuple[tuple, Record]]:
    """:func:`access_chunks`, flattened to ``(key, record)`` pairs."""
    for keys, records in access_chunks(database, path, var):
        yield from zip(keys, records)
