"""Strategy configuration.

The four optimization strategies of Section 4 (plus a few implementation
choices) can be switched on and off individually, and the combination phase's
join order and plan are picked by name, which is what the ablation benchmarks
and most of the examples do.  :class:`StrategyOptions` is a plain
immutable value object; the defaults correspond to the full PASCAL/R system
as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Literal, get_args

from repro.errors import PlanError

__all__ = [
    "StrategyOptions",
    "ServiceOptions",
    "DURABILITY_OFF",
    "DURABILITY_COMMIT",
    "DURABILITY_CHECKPOINT",
    "DURABILITY_MODES",
]

#: Durability modes of a disk-resident database (``repro.connect(path, durability=...)``).
#:
#: ``off``
#:     No write-ahead logging at all.  The database is persisted only by an
#:     explicit ``checkpoint()`` (``close()`` checkpoints); a crash loses
#:     everything since the last checkpoint.  Commit latency is identical to
#:     the in-memory commit path.
#: ``commit``
#:     Every ``Session.commit()`` appends a ``COMMIT`` record and fsyncs the
#:     WAL before returning — a returned commit survives any crash.
#: ``checkpoint``
#:     WAL records are written to the OS on commit but only fsynced by
#:     checkpoints.  A crash may lose the most recent commits (the torn log
#:     tail), but recovery still replays every commit the log proves.
DURABILITY_OFF = "off"
DURABILITY_COMMIT = "commit"
DURABILITY_CHECKPOINT = "checkpoint"
DURABILITY_MODES = (DURABILITY_OFF, DURABILITY_COMMIT, DURABILITY_CHECKPOINT)

#: The values of ``StrategyOptions.join_order`` and ``StrategyOptions.plan``.
JoinOrder = Literal["written", "uniform", "histogram"]
Plan = Literal["streamed", "literal"]


@dataclass(frozen=True)
class StrategyOptions:
    """Which query-processing strategies the engine applies.

    Attributes
    ----------
    parallel_collection:
        Strategy 1 — evaluate all join terms over a relation in a single scan
        ("parallel evaluation of subexpressions").  When off, every single
        list, index and indirect join is produced by its own scan.
    one_step_nested:
        Strategy 2 — let monadic join terms restrict the construction of
        indirect joins while the relation is being read, instead of
        materialising separate single lists.
    extended_ranges:
        Strategy 3 — move monadic restrictions into the range expressions of
        the variables (the most global use of monadic terms).
    collection_phase_quantifiers:
        Strategy 4 — evaluate qualifying quantifiers in the collection phase
        with value lists (the generalised semi-join technique).
    general_range_extensions:
        The paper's proposed improvement of Strategy 3: allow conjunctive
        normal form extensions (negations of multi-term monadic disjuncts),
        not just conjunctions of join terms.
    separate_existential_conjunctions:
        Evaluate each conjunction of a purely existential query as an
        independent sub-query (end of Section 2).  Off by default because the
        paper notes that fully independent evaluation is not always
        desirable (Section 4.3).
    use_index_paths:
        Index-driven access paths — per variable, let a cost-based selector
        replace the collection-phase relation scan with a permanent-index
        probe (range restrictions, monadic terms and derived-predicate
        outer loops answered directly from index references, sub-linearly);
        and skip the index-construction step of the collection phase when
        the database holds a matching permanent index (Section 3.2).  One flag governs every use of a permanent index.
        Late-bound ``$param`` values bind into the probe at execution time.
        The chosen path depends on the catalog and the cardinalities only
        (an index prices a probe from its own counts, never from the value
        compared), on the live database and on a pinned snapshot alike.
    join_order:
        Combination-phase optimizer — how each conjunction's joins are
        ordered: ``"written"``, the textual first-connected order of the
        literal Section 3.3 procedure; ``"uniform"``, smallest structure
        first, then greedily the connected structure with the smallest
        estimated join result (the ``|L|*|R|/max(distinct)`` formula over
        what the stream can hold); ``"histogram"``, the same loop with its
        first step priced from join-key sketches of the collection
        structures (see :mod:`repro.relational.histogram`), so skewed keys
        surface in the ordering decision.
    semijoin_reduction:
        Combination-phase optimizer — before joining, semijoin-filter every
        conjunct structure against the other structures of the same
        conjunction that share a variable column (Bernstein & Chiu's
        technique, which Section 4.4 relates to collection-phase
        quantifiers), so dyadic structures shrink before they enter a join.
    plan:
        The plan policy of the combination phase's one pull-based operator
        pipeline.  ``"streamed"``: innermost SOME quantifiers are eliminated
        inside each conjunction's chain (short-circuiting to a semijoin where
        their columns are no longer needed), so only pipeline breakers
        (division, union dedup state) buffer tuples and ``peak_tuples``
        reports the live-tuple high-water mark.  ``"literal"``: the literal
        Section 3.3 procedure — n-tuples over every variable, a deduplicated
        union, one operator per quantifier — with ``peak_tuples`` the
        largest n-tuple relation it builds.  Either way the construction
        phase dereferences straight from the final stream.

    ``join_order`` and ``plan`` take one of the strings above; any other
    value, a bool included, raises :class:`~repro.errors.PlanError`.
    """

    parallel_collection: bool = True
    one_step_nested: bool = True
    extended_ranges: bool = True
    collection_phase_quantifiers: bool = True
    general_range_extensions: bool = False
    separate_existential_conjunctions: bool = False
    use_index_paths: bool = True
    join_order: JoinOrder = "histogram"
    semijoin_reduction: bool = True
    plan: Plan = "streamed"

    def __post_init__(self) -> None:
        for name, policy in (("join_order", JoinOrder), ("plan", Plan)):
            value, allowed = getattr(self, name), get_args(policy)
            if value not in allowed:
                raise PlanError(
                    f"StrategyOptions.{name} must be one of "
                    f"{', '.join(map(repr, allowed))}; got {value!r}"
                )

    # -- presets -----------------------------------------------------------------

    @classmethod
    def all_strategies(cls) -> "StrategyOptions":
        """The full PASCAL/R optimizer (the default)."""
        return cls()

    @classmethod
    def none(cls) -> "StrategyOptions":
        """The unoptimised three-phase evaluation of Section 3.3."""
        return cls(
            parallel_collection=False,
            one_step_nested=False,
            extended_ranges=False,
            collection_phase_quantifiers=False,
            use_index_paths=False,
            join_order="written",
            semijoin_reduction=False,
            plan="literal",
        )

    @classmethod
    def only(cls, **enabled) -> "StrategyOptions":
        """Start from :meth:`none` and switch on the named strategies
        (a policy is named with its value: ``only(plan="streamed")``)."""
        return replace(cls.none(), **enabled)

    def with_(self, **changes) -> "StrategyOptions":
        """A copy with the named fields changed."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Short human readable description for EXPLAIN output."""
        switched = {
            "S1 parallel collection": self.parallel_collection,
            "S2 one-step nested": self.one_step_nested,
            "S3 extended ranges": self.extended_ranges,
            "S4 collection-phase quantifiers": self.collection_phase_quantifiers,
            "S3+ general extensions": self.general_range_extensions,
            "separate conjunctions": self.separate_existential_conjunctions,
            "index access paths": self.use_index_paths,
            "cost-ordered joins": self.join_order != "written",
            "semijoin reduction": self.semijoin_reduction,
            "streaming pipeline": self.plan == "streamed",
            "histogram statistics": self.join_order == "histogram",
        }
        enabled = [label for label, on in switched.items() if on]
        return ", ".join(enabled) if enabled else "no strategies"


@dataclass(frozen=True)
class ServiceOptions:
    """Tuning knobs of the prepared-query service layer.

    Attributes
    ----------
    plan_cache_capacity:
        Maximum number of compiled plans the
        :class:`~repro.service.cache.PlanCache` retains (LRU-evicted);
        ``0`` disables plan caching (every prepare recompiles).
    collection_cache_size:
        Per-prepared-query bound-plan and collection-structure memo size;
        ``0`` disables both memos (every execution re-binds and re-collects).
    busy_timeout:
        How long (in seconds) ``Session.begin()`` waits on the
        one-active-transaction-per-database gate before raising
        :class:`~repro.errors.TransactionError`.  ``0`` (the default) fails
        immediately when another transaction is active; a positive timeout
        lets a second writer wait for the gate instead of erroring out, but
        never blocks forever.

    A negative value of any of the three raises :class:`~repro.errors.PlanError`.

    Every cursor reads a pinned copy-on-write snapshot
    (:mod:`repro.relational.mvcc`): of the committed state, or — a session
    cursor inside a transaction — of that transaction's writes so far.
    """

    plan_cache_capacity: int = 128
    collection_cache_size: int = 32
    busy_timeout: float = 0.0

    def __post_init__(self) -> None:
        for setting in fields(self):
            value = getattr(self, setting.name)
            if value < 0:
                raise PlanError(
                    f"ServiceOptions.{setting.name} must be non-negative; got {value!r}"
                )

    def with_(self, **changes) -> "ServiceOptions":
        """A copy with the named settings changed."""
        return replace(self, **changes)
